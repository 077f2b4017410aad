package spanengine

import "testing"

// TestDefaultSizing pins the engine's defaults, which is how bzip2, LZ4
// and zstd archives are sized (only the worker count and a shared pool
// are set for them): at P = 1, 2 and 4, a prefetch depth of 2P, a cache of
// 2P + 2 spans and, growing, a tentative pool of max(2·MaxPrefetch, 4).
func TestDefaultSizing(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		c := Config{Threads: p}.withDefaults()
		if c.MaxPrefetch != 2*p || c.CacheSize != 2*p+2 || c.tentativeSize() != max(4*p, 4) || c.Strategy == nil {
			t.Errorf("P=%d: MaxPrefetch %d, CacheSize %d, tentative pool %d; want %d, %d, %d and a strategy",
				p, c.MaxPrefetch, c.CacheSize, c.tentativeSize(), 2*p, 2*p+2, max(4*p, 4))
		}
	}
	// What a caller sets is kept; the tentative pool follows the depth.
	c := Config{Threads: 2, MaxPrefetch: 8, CacheSize: 12}.withDefaults()
	if c.MaxPrefetch != 8 || c.CacheSize != 12 || c.tentativeSize() != 16 {
		t.Errorf("explicit sizes: %+v, tentative pool %d", c, c.tentativeSize())
	}
}
