package spanengine

import "testing"

// TestDefaultSizing pins how every engine is sized, whatever its format
// and however it was opened (only the worker count and a shared pool are
// set from outside): at P = 1, 2 and 4, a prefetch depth of 2P, a cache
// of 2P + 4 spans and, growing, a tentative pool of max(4P, 4).
func TestDefaultSizing(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		c := Config{Threads: p}.withDefaults()
		if c.maxPrefetch != 2*p || c.cacheSize != 2*p+4 || c.tentativeSize() != max(4*p, 4) || c.strategy == nil {
			t.Errorf("P=%d: depth %d, cache %d, tentative pool %d; want %d, %d, %d and a strategy",
				p, c.maxPrefetch, c.cacheSize, c.tentativeSize(), 2*p, 2*p+4, max(4*p, 4))
		}
	}
	// What a test sets is kept; the tentative pool follows the depth.
	c := Config{Threads: 2, maxPrefetch: 8, cacheSize: 12}.withDefaults()
	if c.maxPrefetch != 8 || c.cacheSize != 12 || c.tentativeSize() != 16 {
		t.Errorf("explicit sizes: %+v, tentative pool %d", c, c.tentativeSize())
	}
}
