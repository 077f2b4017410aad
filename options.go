package rapidgzip

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/spanengine"
)

// strategyFor maps a strategy name to a constructor (strategies are
// stateful, so every engine needs an instance of its own). nil means "the
// engine's default": adaptive, which "multistream" has become another
// name for.
func strategyFor(name string) (func() prefetch.Strategy, error) {
	switch name {
	case "", "adaptive", "multistream":
		return nil, nil
	case "fixed":
		return func() prefetch.Strategy { return prefetch.NewFixed() }, nil
	}
	return nil, fmt.Errorf("rapidgzip: unknown prefetch strategy %q (want adaptive, fixed or multistream)", name)
}

// config is the resolved configuration an Open call operates with. Zero
// fields select defaults, which for the prefetch depth and the cache size
// are the backend's own (gzip/BGZF keep a deeper pipeline than the
// formats whose spans need no confirming).
type config struct {
	parallelism int // resolve turns 0 into runtime.NumCPU()
	chunkSize   int
	maxPrefetch int
	cacheSize   int
	verify      bool
	strategy    func() prefetch.Strategy // nil = adaptive
	format      Format                   // FormatUnknown means sniff the content
	indexFile   string                   // explicit index to import; implies no discovery
	noDiscovery bool
	inMemory    bool                  // load the whole file instead of serving it file-backed
	pool        *spanengine.CachePool // shared span-cache pool (WithSharedPool); nil = private cache
}

// engine is the configuration of one span engine — bzip2, LZ4 and zstd
// are built with it as it is — with a strategy instance of its own.
func (c config) engine() spanengine.Config {
	ec := spanengine.Config{Threads: c.parallelism, CacheSize: c.cacheSize, MaxPrefetch: c.maxPrefetch, Pool: c.pool}
	if c.strategy != nil {
		ec.Strategy = c.strategy()
	}
	return ec
}

// core is the same configuration for gzip/BGZF: core adds the codec's
// knobs and its own defaults and builds its engines from that.
func (c config) core() core.Config {
	return core.Config{
		Parallelism:     c.parallelism,
		ChunkSize:       c.chunkSize,
		MaxPrefetch:     c.maxPrefetch,
		AccessCacheSize: c.cacheSize,
		Strategy:        c.strategy,
		VerifyChecksums: c.verify,
		Pool:            c.pool,
	}
}

// errOptNilPool is WithSharedPool's eager validation failure.
var errOptNilPool = fmt.Errorf("rapidgzip: WithSharedPool(nil)")

// An Option configures Open or OpenBytes. Invalid settings (an unknown
// strategy, a negative chunk size, ...) are reported by the constructor —
// each With* function validates eagerly and the first error wins.
type Option func(*config) error

func resolve(opts []Option) (config, error) {
	var cfg config
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	// Cross-option conflicts are checked after the loop — they depend on
	// the combination, not any single call, so order cannot matter.
	if cfg.pool != nil && cfg.cacheSize != 0 {
		return config{}, fmt.Errorf("%w: WithAccessCacheSize has no effect under WithSharedPool (the pool's byte budget replaces the per-archive span count)", ErrConflictingOptions)
	}
	if cfg.parallelism == 0 {
		cfg.parallelism = runtime.NumCPU()
	}
	return cfg, nil
}

// WithParallelism sets the number of decompression workers. Zero (the
// default) selects runtime.NumCPU().
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative parallelism %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithChunkSize sets the compressed bytes handed to one worker task.
// Zero selects the paper's 4 MiB default.
func WithChunkSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative chunk size %d", n)
		}
		c.chunkSize = n
		return nil
	}
}

// WithVerify enables (or disables) checksum verification where the
// format supports it — gzip member CRC32s during sequential
// consumption; bzip2 and LZ4 verify during every decode when the file
// carries checksums, regardless of this option.
func WithVerify(v bool) Option {
	return func(c *config) error {
		c.verify = v
		return nil
	}
}

// WithMaxPrefetch bounds the number of speculative chunk (or span)
// decodes in flight, for every format. Zero selects the default.
func WithMaxPrefetch(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative prefetch bound %d", n)
		}
		c.maxPrefetch = n
		return nil
	}
}

// WithAccessCacheSize sets the span-cache capacity, in spans, for
// every format (for gzip/BGZF a span is a chunk of the speculative
// pipeline). Zero selects the default: for bzip2, LZ4, zstd and BGZF,
// MaxPrefetch + 2 — the prefetch depth, the span being read and the one
// being handed over — which is what lets a streamed file decode each
// span once; a smaller cache evicts prefetched spans before they are
// read and decodes them again. Plain gzip sizes its own (2 × parallelism
// + 4).
//
// Since Open serves every format file-backed — the compressed bytes
// are never resident as a whole — this cache is the dominant term of
// an archive's decompressed-side memory budget: peak resident decoded
// bytes are bounded by roughly (AccessCacheSize + MaxPrefetch) × the
// largest span's decompressed size, plus one in-flight compressed
// extent per worker.
//
// Combining this option with WithSharedPool fails with
// ErrConflictingOptions: the pool's byte budget replaces the
// per-archive span count as the cache bound, so a per-archive size
// cannot be honoured there.
func WithAccessCacheSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative cache size %d", n)
		}
		c.cacheSize = n
		return nil
	}
}

// WithInMemory loads the whole compressed file into memory at Open and
// serves every decode zero-copy from the resident buffer — the
// pre-file-backed behavior, for every format including gzip/BGZF. It
// only makes sense for files comfortably smaller than RAM on storage
// slow enough that re-reading span extents hurts (network
// filesystems); the default file-backed path needs bounded memory
// regardless of file size. OpenBytes is always in-memory; the option
// is a no-op there.
func WithInMemory() Option {
	return func(c *config) error {
		c.inMemory = true
		return nil
	}
}

// WithStrategy selects the prefetch strategy by name, for every format
// (they share one engine). "adaptive", the default, follows streams: a
// stream is a run of reads in which each begins in the span where the
// previous one ended or in the next, and every stream on the archive —
// one sequential reader, or several interleaved at different offsets —
// has its prefetch depth doubled with each span it advances, up to
// MaxPrefetch shared among the streams that are advancing. A read
// elsewhere is a jump and prefetches nothing, so a random access costs
// the spans it covers and no more; a reader that goes on sequentially
// from there is prefetched for again after two further spans. Only the
// first read of an archive, when it is at offset 0, gets the full depth
// at once: whole-file decompression starts fully parallel.
// "multistream" is an older name for the same strategy. "fixed" always
// proposes the MaxPrefetch spans after the last read, whatever the
// pattern. Unknown names fail here, at option time — not silently at
// some later decode.
func WithStrategy(name string) Option {
	return func(c *config) error {
		strat, err := strategyFor(name)
		if err != nil {
			return err
		}
		c.strategy = strat
		return nil
	}
}

// WithFormat forces the container format instead of sniffing the
// content — for data whose magic bytes are unavailable (streams with
// stripped headers) or to fail fast when only one format is
// acceptable. Opening a file of a different format then fails with the
// backend's parse error.
func WithFormat(f Format) Option {
	return func(c *config) error {
		switch f {
		case FormatGzip, FormatBGZF, FormatBzip2, FormatLZ4, FormatZstd:
			c.format = f
			return nil
		}
		return fmt.Errorf("%w: cannot force %v", ErrUnsupportedFormat, f)
	}
}

// WithIndexFile imports the index at path during Open, making the
// reader fully indexed from the start (the paper's "(index)" mode):
// seek points with windows for gzip/BGZF, the checkpoint table for
// bzip2/LZ4/zstd — either way the initial scan or sizing pass is
// skipped entirely. It implies WithoutIndexDiscovery. The index must
// match the opened file (format tag, compressed size and source
// fingerprint are all enforced).
func WithIndexFile(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("rapidgzip: empty index file path")
		}
		c.indexFile = path
		return nil
	}
}

// WithoutIndexDiscovery disables the automatic import of a sibling
// "<file>.rgzidx" index that Open performs by default for indexable
// formats.
func WithoutIndexDiscovery() Option {
	return func(c *config) error {
		c.noDiscovery = true
		return nil
	}
}
