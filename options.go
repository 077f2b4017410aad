package rapidgzip

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/spanengine"
)

// config is the resolved configuration an Open call operates with. Zero
// fields select defaults. The prefetch depth and the span cache are no
// option: every engine sizes them from the parallelism by one rule (see
// WithParallelism), and WithSharedPool replaces the cache with a byte
// budget.
type config struct {
	parallelism int // resolve turns 0 into runtime.NumCPU()
	chunkSize   int
	verify      bool
	format      Format // FormatUnknown means sniff the content
	indexFile   string // explicit index to import; implies no discovery
	noDiscovery bool
	inMemory    bool                  // load the whole file instead of serving it file-backed
	pool        *spanengine.CachePool // shared span-cache pool (WithSharedPool); nil = private cache
	sourceFP    *gzindex.Fingerprint  // the source's fingerprint when already taken; nil = backends take it
	// rebuildWindows decodes a window that a discovered index file fails
	// to give again from the compressed file (core.Config.RebuildWindows).
	rebuildWindows bool
}

// engine is the configuration of one span engine: bzip2, LZ4 and zstd
// are built with it as it is.
func (c config) engine() spanengine.Config {
	return spanengine.Config{Threads: c.parallelism, Pool: c.pool}
}

// core is the same configuration for gzip/BGZF, with the codec's knobs
// added: core sizes its engines as spanengine sizes every other.
func (c config) core() core.Config {
	return core.Config{
		Parallelism:     c.parallelism,
		ChunkSize:       c.chunkSize,
		VerifyChecksums: c.verify,
		Pool:            c.pool,
		SourceFP:        c.sourceFP,
		RebuildWindows:  c.rebuildWindows,
	}
}

// fingerprint is the fingerprint of src: sourceFP when taken already.
func (c config) fingerprint(src filereader.FileReader) (gzindex.Fingerprint, error) {
	if c.sourceFP != nil {
		return *c.sourceFP, nil
	}
	return gzindex.ComputeFingerprint(src, src.Size())
}

// errOptNilPool is WithSharedPool's eager validation failure.
var errOptNilPool = fmt.Errorf("rapidgzip: WithSharedPool(nil)")

// An Option configures Open or OpenBytes. Invalid settings (a negative
// chunk size, an unknown format, ...) are reported by the constructor —
// each With* function validates eagerly and the first error wins.
type Option func(*config) error

func resolve(opts []Option) (config, error) {
	var cfg config
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	if cfg.parallelism == 0 {
		cfg.parallelism = runtime.NumCPU()
	}
	return cfg, nil
}

// WithParallelism sets the number of decompression workers. Zero (the
// default) selects runtime.NumCPU(). It also sizes what an archive holds
// in memory, one rule for every format: P workers keep at most 2P spans
// in flight ahead of the reader in a cache of 2P + 4. WithSharedPool
// bounds the cache in bytes instead.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative parallelism %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithChunkSize sets the chunk size of gzip and BGZF, which has two
// meanings: the compressed bytes of one speculative cell a worker
// guesses a block start in, and the decompressed bytes a span is cut to
// (at a block of a gzip file, by grouping members of a BGZF file).
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
