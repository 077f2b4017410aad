package core

import (
	"testing"

	"repro/internal/spanengine"
)

// TestEngineSizing pins how a reader sizes its engines in each mode, at
// P = 1, 2 and 4: the prefetch depth and the span cache are no option, so
// a change here is a change of every gzip archive's memory and pipeline
// depth, not of a default someone can override.
func TestEngineSizing(t *testing.T) {
	pool := spanengine.NewCachePool(1 << 20)
	for _, p := range []int{1, 2, 4} {
		cfg := Config{Parallelism: p, Pool: pool}.withDefaults()
		for _, tc := range []struct {
			mode            string
			coldBGZF        bool
			prefetch, cache int
		}{
			{"growing gzip", false, 4 * p, 2*p + 4},
			{"cold BGZF", true, 4 * p, 4*p + 2},
			{"gzip or BGZF from an index", false, 4 * p, 2*p + 4},
		} {
			ec := cfg.engine(tc.coldBGZF)
			if ec.Threads != p || ec.MaxPrefetch != tc.prefetch || ec.CacheSize != tc.cache || ec.Pool != pool || ec.Strategy != nil {
				t.Errorf("P=%d %s: %+v, want MaxPrefetch %d, CacheSize %d, the pool and the default strategy",
					p, tc.mode, ec, tc.prefetch, tc.cache)
			}
		}
		// The growing engine parks twice the prefetch depth in its
		// tentative pool (the rule spanengine's TestDefaultSizing pins):
		// 8P guesses, and as many guess tasks in flight as prefetches.
		if got := 2 * cfg.engine(false).MaxPrefetch; got != 8*p || cfg.maxPrefetch() != 4*p {
			t.Errorf("P=%d: tentative pool %d, guesses in flight %d; want %d and %d", p, got, cfg.maxPrefetch(), 8*p, 4*p)
		}
	}
}
