// Package cache provides a generic keyed cache with pluggable eviction
// strategies — the Cache<Key, Value, CacheStrategy> component of the
// paper's architecture (Figure 5). The chunk fetcher uses two instances:
// a small cache for accessed chunks and a larger prefetch cache, kept
// separate to avoid prefetch-induced pollution (paper §3.2).
package cache

// Strategy decides which key to evict when a cache is full.
type Strategy[K comparable] interface {
	// Touch records an access to key.
	Touch(key K)
	// Insert records a new key.
	Insert(key K)
	// Evict selects and removes the eviction victim.
	Evict() (K, bool)
	// Remove deletes key from the strategy's bookkeeping.
	Remove(key K)
}

// lruNode is a doubly-linked list node for LRU ordering.
type lruNode[K comparable] struct {
	key        K
	prev, next *lruNode[K]
}

// LRU is a least-recently-used eviction strategy.
type LRU[K comparable] struct {
	nodes      map[K]*lruNode[K]
	head, tail *lruNode[K] // head = most recent, tail = eviction victim
}

// NewLRU returns an empty LRU strategy.
func NewLRU[K comparable]() *LRU[K] {
	return &LRU[K]{nodes: map[K]*lruNode[K]{}}
}

func (l *LRU[K]) unlink(n *lruNode[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *LRU[K]) pushFront(n *lruNode[K]) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// Touch implements Strategy.
func (l *LRU[K]) Touch(key K) {
	if n, ok := l.nodes[key]; ok {
		l.unlink(n)
		l.pushFront(n)
	}
}

// Insert implements Strategy.
func (l *LRU[K]) Insert(key K) {
	if _, ok := l.nodes[key]; ok {
		l.Touch(key)
		return
	}
	n := &lruNode[K]{key: key}
	l.nodes[key] = n
	l.pushFront(n)
}

// Evict implements Strategy.
func (l *LRU[K]) Evict() (K, bool) {
	var zero K
	if l.tail == nil {
		return zero, false
	}
	n := l.tail
	l.unlink(n)
	delete(l.nodes, n.key)
	return n.key, true
}

// Remove implements Strategy.
func (l *LRU[K]) Remove(key K) {
	if n, ok := l.nodes[key]; ok {
		l.unlink(n)
		delete(l.nodes, key)
	}
}

// Stats counts cache effectiveness; the chunk fetcher reports these for
// diagnosing prefetch quality.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Cache is a capacity-bounded map with strategy-driven eviction. It is
// not goroutine-safe; the chunk fetcher serialises access.
type Cache[K comparable, V any] struct {
	capacity int
	items    map[K]V
	strat    Strategy[K]
	stats    Stats
	// OnEvict, when set, observes evicted entries.
	OnEvict func(K, V)
}

// New returns a cache holding at most capacity entries.
func New[K comparable, V any](capacity int, strat Strategy[K]) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{capacity: capacity, items: map[K]V{}, strat: strat}
}

// NewLRUCache returns a cache with LRU eviction.
func NewLRUCache[K comparable, V any](capacity int) *Cache[K, V] {
	return New[K, V](capacity, NewLRU[K]())
}

// Get returns the value for key, updating recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	v, ok := c.items[key]
	if ok {
		c.strat.Touch(key)
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return v, ok
}

// Peek returns the value without updating recency or stats.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	v, ok := c.items[key]
	return v, ok
}

// Touch marks key recently used, if it is cached, without counting a
// hit.
func (c *Cache[K, V]) Touch(key K) {
	if _, ok := c.items[key]; ok {
		c.strat.Touch(key)
	}
}

// Contains reports presence without side effects.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces the value for key, evicting if necessary.
func (c *Cache[K, V]) Put(key K, value V) {
	if _, ok := c.items[key]; ok {
		c.items[key] = value
		c.strat.Touch(key)
		return
	}
	for len(c.items) >= c.capacity {
		victim, ok := c.strat.Evict()
		if !ok {
			break
		}
		if c.OnEvict != nil {
			c.OnEvict(victim, c.items[victim])
		}
		delete(c.items, victim)
		c.stats.Evictions++
	}
	c.items[key] = value
	c.strat.Insert(key)
}

// Delete removes key.
func (c *Cache[K, V]) Delete(key K) {
	if _, ok := c.items[key]; ok {
		delete(c.items, key)
		c.strat.Remove(key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Capacity returns the configured capacity.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Resize changes the capacity, evicting as needed.
func (c *Cache[K, V]) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	for len(c.items) > c.capacity {
		victim, ok := c.strat.Evict()
		if !ok {
			break
		}
		if c.OnEvict != nil {
			c.OnEvict(victim, c.items[victim])
		}
		delete(c.items, victim)
		c.stats.Evictions++
	}
}

// Stats returns a copy of the hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() Stats { return c.stats }

// Keys returns the cached keys in unspecified order.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	return out
}
