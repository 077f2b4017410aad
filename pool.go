package rapidgzip

import "repro/internal/spanengine"

// CachePool is a shared span-cache budget across any number of open
// archives: every archive opened with WithSharedPool(p) caches its
// decompressed spans in one pool bounded to a total byte budget, with
// recency global across archives — a hot archive's spans evict a cold
// archive's. This turns the per-archive memory model (a span count
// sized from the parallelism, see WithParallelism) into the
// cross-archive model a server needs ("N bytes across everything
// open"), and is the memory contract behind cmd/rgzserve.
//
// A pool is safe for concurrent use and may outlive any archive using
// it; closing an archive releases its cached bytes back to the budget.
// Spans larger than the whole budget are served by decoding and never
// cached, so the pool's resident bytes never exceed the budget.
type CachePool struct {
	p *spanengine.CachePool
}

// NewCachePool returns a pool bounding the total cached decompressed
// bytes of all member archives to budgetBytes. A non-positive budget
// caches nothing (every access decodes).
func NewCachePool(budgetBytes int64) *CachePool {
	return &CachePool{p: spanengine.NewCachePool(budgetBytes)}
}

// PoolStats is a snapshot of a CachePool's accounting, aggregated over
// all member archives past and present.
type PoolStats struct {
	// BudgetBytes is the configured capacity, UsedBytes the cached
	// decompressed bytes right now, and PeakBytes the lifetime
	// high-water mark of UsedBytes. PeakBytes <= BudgetBytes is a
	// structural invariant.
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
	PeakBytes   int64 `json:"peak_bytes"`
	// Entries counts cached spans; Archives the member engines
	// currently registered.
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

// Stats returns a snapshot of the pool's accounting.
func (p *CachePool) Stats() PoolStats {
	s := p.p.Stats()
	return PoolStats{
		BudgetBytes: s.BudgetBytes,
		UsedBytes:   s.UsedBytes,
		PeakBytes:   s.PeakBytes,
		Entries:     s.Entries,
		Archives:    s.Engines,
		Hits:        s.Hits,
		Misses:      s.Misses,
		Evictions:   s.Evictions,
		Rejected:    s.Rejected,
	}
}

// WithSharedPool places the archive's span cache in p instead of a
// private per-archive cache. The memory model changes accordingly: the
// pool's byte budget is the bound, shared across every member, in place
// of a span count per archive. It is also the one way to bound an
// archive's cache other than by its parallelism. All five formats
// participate; for gzip/BGZF the pooled entries are the chunks of the
// speculative pipeline.
func WithSharedPool(p *CachePool) Option {
	return func(c *config) error {
		if p == nil {
			return errOptNilPool
		}
		c.pool = p.p
		return nil
	}
}
