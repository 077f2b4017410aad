// Cross-engine pool mode: a CachePool is one byte-budgeted span cache
// shared by any number of engines — the scaling primitive behind the
// archive server, where "N bytes across all open archives" is the
// memory contract, not "N spans per archive". Each participating
// engine gets a view into the pool; recency is global, so a hot
// archive's spans push a cold archive's spans out, and the sum of
// cached decompressed bytes never exceeds the configured budget.

package spanengine

import (
	"sync"

	"repro/internal/cache"
)

// poolKey identifies one cached span pool-wide: the owning view's id
// plus the span index within that engine.
type poolKey struct {
	view uint64
	span int
}

// PoolStats is a snapshot of a CachePool's accounting, aggregated over
// all member engines past and present; rgzserve's /metrics serves it as
// the JSON its tags name.
type PoolStats struct {
	// BudgetBytes is the configured capacity, UsedBytes the cached
	// decompressed bytes right now, and PeakBytes the lifetime
	// high-water mark of UsedBytes. Spans larger than the whole budget
	// are not cached, so PeakBytes <= BudgetBytes is a structural
	// invariant.
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
	PeakBytes   int64 `json:"peak_bytes"`
	// Entries counts cached spans; Archives the member engines
	// currently registered (one per open archive in pool mode).
	Entries  int `json:"entries"`
	Archives int `json:"archives"`
	// Hits/Misses/Evictions aggregate span-cache activity pool-wide;
	// Rejected counts spans not cached because they alone exceed the
	// budget.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Rejected  uint64 `json:"rejected"`
}

// CachePool is a shared span cache with a global byte budget and
// global LRU recency across every engine registered with it. It is
// safe for concurrent use and may outlive any of its engines; closing
// an engine releases its entries back to the budget.
type CachePool struct {
	mu     sync.Mutex
	budget int64
	used   int64
	peak   int64
	nextID uint64
	lru    *cache.LRU[poolKey]
	items  map[poolKey]*entry
	views  map[uint64]*poolView
	// aggregate counters over closed views, so Stats does not dip when
	// an engine deregisters.
	hits, misses, evictions, rejected uint64
}

// NewCachePool returns a pool bounding the cached decompressed bytes
// of all member engines to budgetBytes. A non-positive budget caches
// nothing (every span is served by decoding).
func NewCachePool(budgetBytes int64) *CachePool {
	return &CachePool{
		budget: budgetBytes,
		lru:    cache.NewLRU[poolKey](),
		items:  map[poolKey]*entry{},
		views:  map[uint64]*poolView{},
	}
}

// Stats returns a snapshot of the pool's accounting, aggregated over
// all member engines (past and present).
func (p *CachePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{
		BudgetBytes: p.budget,
		UsedBytes:   p.used,
		PeakBytes:   p.peak,
		Entries:     len(p.items),
		Archives:    len(p.views),
		Hits:        p.hits,
		Misses:      p.misses,
		Evictions:   p.evictions,
		Rejected:    p.rejected,
	}
	for _, v := range p.views {
		s.Hits += v.hits
		s.Misses += v.misses
		s.Evictions += v.evictions
		s.Rejected += v.rejected
	}
	return s
}

// register creates a view for one engine. Called by newEngine when
// Config.Pool is set.
func (p *CachePool) register() *poolView {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	v := &poolView{pool: p, id: p.nextID, keys: map[int]struct{}{}}
	p.views[v.id] = v
	return v
}

// evictOneLocked drops the globally least-recently-used entry and
// credits its bytes back. Caller holds p.mu.
func (p *CachePool) evictOneLocked() bool {
	k, ok := p.lru.Evict()
	if !ok {
		return false
	}
	ent := p.items[k]
	delete(p.items, k)
	p.used -= ent.cost()
	if owner := p.views[k.view]; owner != nil {
		delete(owner.keys, k.span)
		owner.evictions++
		ent.dropped(&owner.unused)
	} else {
		p.evictions++
	}
	return true
}

// poolView adapts the shared pool to the engine's spanStore interface.
// All methods are called with the owning engine's mutex held; the view
// only takes the pool mutex inside, so the lock order is always
// engine -> pool and the pool never calls back into an engine.
type poolView struct {
	pool *CachePool
	id   uint64
	// guarded by pool.mu:
	keys                              map[int]struct{}
	hits, misses, evictions, rejected uint64
	unused                            uint64 // entries dropped with entry.unused set
	closed                            bool
}

func (v *poolView) Get(i int, need int64) (*entry, bool) {
	p := v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.closed {
		return nil, false
	}
	k := poolKey{view: v.id, span: i}
	ent := p.items[k]
	if ent == nil || !ent.covers(need) {
		v.misses++
		return ent, false
	}
	p.lru.Touch(k)
	v.hits++
	ent.unused = false
	return ent, true
}

func (v *poolView) Put(i int, ent *entry) {
	cost := ent.cost()
	p := v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.closed {
		return
	}
	v.removeLocked(i)
	if cost > p.budget {
		// Caching this span alone would break the budget invariant;
		// serve it uncached instead (the caller already has the bytes).
		v.rejected++
		ent.dropped(&v.unused)
		return
	}
	for p.used+cost > p.budget {
		if !p.evictOneLocked() {
			return // nothing left to evict; should be unreachable
		}
	}
	k := poolKey{view: v.id, span: i}
	p.items[k] = ent
	p.lru.Insert(k)
	v.keys[i] = struct{}{}
	p.used += cost
	if p.used > p.peak {
		p.peak = p.used
	}
}

// removeLocked drops the view's entry for span i, if any, and credits
// its bytes back. Caller holds pool.mu.
func (v *poolView) removeLocked(i int) {
	p := v.pool
	k := poolKey{view: v.id, span: i}
	if old, ok := p.items[k]; ok {
		p.used -= old.cost()
		delete(p.items, k)
		delete(v.keys, i)
		p.lru.Remove(k)
		old.dropped(&v.unused)
	}
}

func (v *poolView) Delete(i int) {
	v.pool.mu.Lock()
	defer v.pool.mu.Unlock()
	if !v.closed {
		v.removeLocked(i)
	}
}

func (v *poolView) Peek(i int) *entry {
	p := v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.closed {
		return nil
	}
	return p.items[poolKey{view: v.id, span: i}]
}

func (v *poolView) Touch(i int) {
	p := v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if !v.closed {
		p.lru.Touch(poolKey{view: v.id, span: i})
	}
}

func (v *poolView) Stats() storeStats {
	p := v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return storeStats{cache.Stats{Hits: v.hits, Misses: v.misses, Evictions: v.evictions}, v.unused}
}

// Close deregisters the view: its entries are dropped, their bytes
// credited back to the budget, and its counters folded into the pool
// aggregates. Idempotent; subsequent Get/Put are no-ops.
func (v *poolView) Close() {
	p := v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.closed {
		return
	}
	v.closed = true
	for span := range v.keys {
		v.removeLocked(span)
	}
	v.keys = nil
	p.hits += v.hits
	p.misses += v.misses
	p.evictions += v.evictions
	p.rejected += v.rejected
	delete(p.views, v.id)
}

// localStore is the classic per-engine span cache (capacity in spans,
// private LRU) behind the same spanStore interface pool mode uses.
type localStore struct {
	c      *cache.Cache[int, *entry]
	misses uint64 // spans absent, or cached short of what was asked for
	unused uint64 // entries dropped with entry.unused set
}

func newLocalStore(capacity int) *localStore {
	l := &localStore{c: cache.NewLRUCache[int, *entry](capacity)}
	l.c.OnEvict = func(_ int, ent *entry) { ent.dropped(&l.unused) }
	return l
}

func (l *localStore) Get(i int, need int64) (*entry, bool) {
	ent, _ := l.c.Peek(i)
	if ent == nil || !ent.covers(need) {
		l.misses++
		return ent, false
	}
	l.c.Get(i) // counts the hit and marks the entry recently used
	ent.unused = false
	return ent, true
}

func (l *localStore) Put(i int, ent *entry) {
	if old, ok := l.c.Peek(i); ok {
		old.dropped(&l.unused)
	}
	l.c.Put(i, ent)
}

func (l *localStore) Delete(i int) { l.c.Delete(i) }

func (l *localStore) Peek(i int) *entry {
	ent, _ := l.c.Peek(i)
	return ent
}

func (l *localStore) Touch(i int) { l.c.Touch(i) }

func (l *localStore) Stats() storeStats {
	s := l.c.Stats()
	s.Misses = l.misses
	return storeStats{s, l.unused}
}

// Close counts what is left as dropped and lets go of the parked
// decodes; the cache is not used again.
func (l *localStore) Close() {
	for _, i := range l.c.Keys() {
		ent, _ := l.c.Peek(i)
		ent.dropped(&l.unused)
		ent.parked = nil
	}
}

// storeStats is what a spanStore reports: the cache counters, and how
// many entries left it (evicted, overwritten, dropped at Close or
// refused) that a prefetch had decoded and no reader had got.
type storeStats struct {
	cache.Stats
	unused uint64
}

// spanStore is the engine's cache seam: either a private LRU
// (localStore) or a view into a shared cross-engine CachePool.
// Methods are called with the engine mutex held. Get reports a hit when
// the span is cached as far as need reaches, and marks the entry it
// then returns as read (entry.unused); on a miss it still returns the
// entry, if there is one, as the prefix to continue from. Peek looks
// without counting or touching recency; Touch is the recency of a Get
// and nothing else of it.
type spanStore interface {
	Get(i int, need int64) (ent *entry, hit bool)
	Put(i int, ent *entry)
	Delete(i int)
	Peek(i int) *entry
	Touch(i int)
	Stats() storeStats
	Close()
}
