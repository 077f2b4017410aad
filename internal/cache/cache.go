// Package cache provides a generic keyed cache with least-recently-used
// eviction — the Cache<Key, Value, CacheStrategy> component of the
// paper's architecture (Figure 5), with the one strategy it needs. LRU
// is also usable on its own, as the recency order of a cache that keeps
// its entries elsewhere (spanengine's shared pool).
package cache

// lruNode is a doubly-linked list node for LRU ordering.
type lruNode[K comparable] struct {
	key        K
	prev, next *lruNode[K]
}

// LRU is a least-recently-used order of keys.
type LRU[K comparable] struct {
	nodes      map[K]*lruNode[K]
	head, tail *lruNode[K] // head = most recent, tail = eviction victim
}

// NewLRU returns an empty LRU order.
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

// Touch makes key the most recently used, if it is present.
func (l *LRU[K]) Touch(key K) {
	if n, ok := l.nodes[key]; ok {
		l.unlink(n)
		l.pushFront(n)
	}
}

// Insert adds key as the most recently used.
func (l *LRU[K]) Insert(key K) {
	if _, ok := l.nodes[key]; ok {
		l.Touch(key)
		return
	}
	n := &lruNode[K]{key: key}
	l.nodes[key] = n
	l.pushFront(n)
}

// Evict removes and returns the least recently used key.
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

// Remove deletes key.
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

// Cache is a capacity-bounded map with LRU eviction. It is not
// goroutine-safe; its owner serialises access.
type Cache[K comparable, V any] struct {
	capacity int
	items    map[K]V
	lru      *LRU[K]
	stats    Stats
	// OnEvict, when set, observes evicted entries.
	OnEvict func(K, V)
}

// NewLRUCache returns a cache holding at most capacity entries (at least
// one).
func NewLRUCache[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: max(capacity, 1), items: map[K]V{}, lru: NewLRU[K]()}
}

// Get returns the value for key, updating recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	v, ok := c.items[key]
	if ok {
		c.lru.Touch(key)
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
		c.lru.Touch(key)
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
		c.lru.Touch(key)
		return
	}
	for len(c.items) >= c.capacity {
		victim, ok := c.lru.Evict()
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
	c.lru.Insert(key)
}

// Delete removes key.
func (c *Cache[K, V]) Delete(key K) {
	if _, ok := c.items[key]; ok {
		delete(c.items, key)
		c.lru.Remove(key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

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
