package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRUCache[int, string](3)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")
	c.Get(1) // 1 becomes most recent; 2 is now LRU
	c.Put(4, "d")
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if !c.Contains(k) {
			t.Fatalf("%d missing", k)
		}
	}
}

func TestPutExistingRefreshes(t *testing.T) {
	c := NewLRUCache[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(1, 11) // refresh 1; 2 becomes LRU
	c.Put(3, 30)
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("got %d", v)
	}
}

func TestStats(t *testing.T) {
	c := NewLRUCache[int, int](2)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	c.Put(2, 2)
	c.Put(3, 3)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOnEvict(t *testing.T) {
	var evicted []int
	c := NewLRUCache[int, int](1)
	c.OnEvict = func(k, v int) { evicted = append(evicted, k) }
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted %v", evicted)
	}
}

func TestDelete(t *testing.T) {
	c := NewLRUCache[int, int](4)
	for i := 0; i < 4; i++ {
		c.Put(i, i)
	}
	c.Delete(2)
	if c.Len() != 3 || c.Contains(2) {
		t.Fatal("delete failed")
	}
	// Deleting a missing key is a no-op.
	c.Delete(99)
}

func TestPeekDoesNotTouch(t *testing.T) {
	c := NewLRUCache[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Peek(1) // must NOT refresh 1
	c.Put(3, 3)
	if c.Contains(1) {
		t.Fatal("peek should not have refreshed 1")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		c := NewLRUCache[int, int](capacity)
		for i := 0; i < 500; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Put(rng.Intn(40), i)
			case 1:
				c.Get(rng.Intn(40))
			default:
				c.Delete(rng.Intn(40))
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKeys(t *testing.T) {
	c := NewLRUCache[int, int](8)
	for i := 0; i < 5; i++ {
		c.Put(i, i)
	}
	if len(c.Keys()) != 5 {
		t.Fatalf("keys %v", c.Keys())
	}
}
