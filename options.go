package rapidgzip

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/spanengine"
)

// Options tunes a Reader. The zero value is ready to use.
//
// Deprecated: Options is the legacy flat configuration struct, kept so
// existing call sites compile and behave identically. New code should
// pass functional options (WithParallelism, WithChunkSize, ...) to Open
// or OpenBytes.
type Options struct {
	// Parallelism is the number of decompression workers. Zero selects
	// runtime.NumCPU(); the paper's -P flag.
	Parallelism int
	// ChunkSize is the compressed bytes handed to one worker task.
	// Zero selects the paper's 4 MiB default. Figure 12 of the paper
	// sweeps this parameter: too small wastes time in the block finder,
	// too large starves workers near the end of the file.
	ChunkSize int
	// VerifyChecksums enables CRC32 verification of every gzip member
	// against its footer while the stream is consumed sequentially.
	// Chunk checksums are combined with a GF(2) CRC-combine, so
	// verification is parallel too.
	VerifyChecksums bool
	// MaxPrefetch bounds the number of speculative chunk decodes in
	// flight. Zero selects twice the parallelism (the paper's default).
	MaxPrefetch int
	// AccessCacheSize is the capacity (in chunks) of the accessed-chunk
	// cache. It only matters for concurrent random access; sequential
	// decompression needs a single slot.
	AccessCacheSize int
	// Strategy selects the prefetch strategy: "adaptive" (default) or
	// "fixed"; see WithStrategy. Unknown names are rejected when the
	// reader is constructed.
	Strategy string
}

// strategyFor maps a strategy name to a fresh prefetch.Strategy
// instance (strategies are stateful, so every reader needs its own).
// nil means "the backend's default" (adaptive, which "multistream" has
// become another name for).
func strategyFor(name string) (prefetch.Strategy, error) {
	switch name {
	case "", "adaptive", "multistream":
		return nil, nil
	case "fixed":
		return prefetch.NewFixed(), nil
	}
	return nil, fmt.Errorf("rapidgzip: unknown prefetch strategy %q (want adaptive, fixed or multistream)", name)
}

func (o Options) toCore() (core.Config, error) {
	cfg := core.Config{
		Parallelism:     o.Parallelism,
		ChunkSize:       o.ChunkSize,
		MaxPrefetch:     o.MaxPrefetch,
		AccessCacheSize: o.AccessCacheSize,
		VerifyChecksums: o.VerifyChecksums,
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	strat, err := strategyFor(o.Strategy)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Strategy = strat // nil = core defaults to adaptive
	return cfg, nil
}

// toEngine builds the span-engine configuration the bzip2/LZ4/zstd
// backends run with — the same knobs as the gzip core, applied to the
// shared engine: Parallelism sizes the worker pool, MaxPrefetch bounds
// in-flight speculative span decodes, AccessCacheSize caps the span
// cache, Strategy picks the prefetcher.
func (o Options) toEngine() (spanengine.Config, error) {
	strat, err := strategyFor(o.Strategy)
	if err != nil {
		return spanengine.Config{}, err
	}
	threads := o.Parallelism
	if threads == 0 {
		threads = runtime.NumCPU()
	}
	return spanengine.Config{
		Threads:     threads,
		CacheSize:   o.AccessCacheSize,
		MaxPrefetch: o.MaxPrefetch,
		Strategy:    strat,
	}, nil
}

// config is the resolved configuration an Open call operates with.
type config struct {
	opts        Options
	format      Format // FormatUnknown means sniff the content
	indexFile   string // explicit index to import; implies no discovery
	noDiscovery bool
	inMemory    bool       // load the whole file instead of serving it file-backed
	pool        *CachePool // shared span-cache pool (WithSharedPool); nil = private cache
}

// coreConfig resolves the gzip/BGZF core configuration, applying the
// shared pool when one was requested.
func (c config) coreConfig() (core.Config, error) {
	cfg, err := c.opts.toCore()
	if err != nil {
		return core.Config{}, err
	}
	if c.pool != nil {
		cfg.Pool = c.pool.p
	}
	return cfg, nil
}

// engineConfig resolves the span-engine configuration for bzip2/LZ4/
// zstd, applying the shared pool when one was requested.
func (c config) engineConfig() (spanengine.Config, error) {
	cfg, err := c.opts.toEngine()
	if err != nil {
		return spanengine.Config{}, err
	}
	if c.pool != nil {
		cfg.Pool = c.pool.p
	}
	return cfg, nil
}

// errOptNilPool is WithSharedPool's eager validation failure.
var errOptNilPool = fmt.Errorf("rapidgzip: WithSharedPool(nil)")

// An Option configures Open, OpenBytes or any of the constructors that
// accept functional options. Invalid settings (an unknown strategy, a
// non-positive chunk size, ...) are reported by the constructor — each
// With* function validates eagerly and the first error wins.
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
	if cfg.pool != nil && cfg.opts.AccessCacheSize != 0 {
		return config{}, fmt.Errorf("%w: WithAccessCacheSize has no effect under WithSharedPool (the pool's byte budget replaces the per-archive span count)", ErrConflictingOptions)
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
		c.opts.Parallelism = n
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
		c.opts.ChunkSize = n
		return nil
	}
}

// WithVerify enables (or disables) checksum verification where the
// format supports it — gzip member CRC32s during sequential
// consumption; bzip2 and LZ4 verify during every decode when the file
// carries checksums, regardless of this option.
func WithVerify(v bool) Option {
	return func(c *config) error {
		c.opts.VerifyChecksums = v
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
		c.opts.MaxPrefetch = n
		return nil
	}
}

// WithAccessCacheSize sets the span-cache capacity, in spans, for
// every format (for gzip/BGZF a span is a chunk of the speculative
// pipeline). Zero selects the default.
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
		c.opts.AccessCacheSize = n
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
		probe := Options{Strategy: name}
		if _, err := probe.toCore(); err != nil {
			return err
		}
		c.opts.Strategy = name
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

// WithOptions applies a legacy Options struct wholesale — the bridge
// for call sites migrating to functional options one knob at a time.
//
// Deprecated: pass the individual functional options instead —
// WithParallelism, WithChunkSize, WithVerify, WithMaxPrefetch,
// WithAccessCacheSize and WithStrategy cover every Options field, and
// validate eagerly where the struct could smuggle invalid values in.
func WithOptions(o Options) Option {
	return func(c *config) error {
		if _, err := o.toCore(); err != nil {
			return err
		}
		c.opts = o
		return nil
	}
}
