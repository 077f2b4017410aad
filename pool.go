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
type CachePool = spanengine.CachePool

// NewCachePool returns a pool bounding the total cached decompressed
// bytes of all member archives to budgetBytes. A non-positive budget
// caches nothing (every access decodes).
func NewCachePool(budgetBytes int64) *CachePool { return spanengine.NewCachePool(budgetBytes) }

// PoolStats is a snapshot of a CachePool's accounting (CachePool.Stats),
// aggregated over all member archives past and present.
type PoolStats = spanengine.PoolStats

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
		c.pool = p
		return nil
	}
}
