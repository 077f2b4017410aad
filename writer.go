package rapidgzip

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/zstdx"
)

// Writer is the write-side mirror of Archive: one interface over a
// parallel, seekable-by-construction compressor for gzip, BGZF or
// Zstandard output. Input is cut into fixed-size shards compressed
// concurrently on a worker pool and joined in order, so the output is
// what the paper's Table 3 / §4.8–4.9 identify as the parallel-
// decompressible shape: independent chunks behind byte-aligned sync
// points (gzip), member-per-chunk framing (BGZF), or one sized frame
// per shard (zstd). The per-shard checkpoints are recorded while
// encoding, so ExportIndex (and Create's automatic sidecar) emit an
// RGZIDX05 index without re-reading anything — archives are born
// seekable, and reopening them with the index costs zero sizing
// passes.
//
// A Writer is not safe for concurrent use: one producer writes, the
// encoding parallelizes underneath.
type Writer interface {
	io.Writer
	io.ReaderFrom
	io.Closer

	// Stats returns a snapshot of writer activity counters. Final after
	// Close.
	Stats() WriterStats
	// ExportIndex serialises the index built during encoding (seek
	// points for gzip/BGZF, the checkpoint table for zstd). Only valid
	// after Close, when the geometry is final.
	ExportIndex(w io.Writer) error
	// Format reports the container format being written.
	Format() Format
}

// WriterStats counts write-side activity.
type WriterStats struct {
	// Shards is the number of independently compressed work units
	// (gzip shards, BGZF members, zstd frames).
	Shards uint64
	// UncompressedBytes and CompressedBytes are the totals consumed and
	// produced. CompressedBytes is final only after Close (trailers and
	// in-flight shards land there).
	UncompressedBytes, CompressedBytes uint64
}

// ErrConflictingOptions reports two writer options that cannot be
// honoured together (WithIndexSidecar with WithoutIndexSidecar). Test
// with errors.Is.
var ErrConflictingOptions = errors.New("rapidgzip: conflicting options")

// writerConfig is the resolved configuration of a Create/NewWriter
// call.
type writerConfig struct {
	format      Format // FormatUnknown = infer from path extension / default gzip
	level       int    // -1 = default (6)
	shardSize   int
	parallelism int
	checksums   bool   // zstd per-frame content checksums
	sidecar     string // explicit sidecar path ("" = default for Create)
	noSidecar   bool
}

// A WriterOption configures Create or NewWriter. Like the read side's
// Option, every With* function validates eagerly and the first error
// wins.
type WriterOption func(*writerConfig) error

func resolveWriter(opts []WriterOption) (writerConfig, error) {
	cfg := writerConfig{level: -1}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return writerConfig{}, err
		}
	}
	if cfg.sidecar != "" && cfg.noSidecar {
		return writerConfig{}, fmt.Errorf("%w: WithIndexSidecar with WithoutIndexSidecar", ErrConflictingOptions)
	}
	return cfg, nil
}

// WithWriterFormat selects the output container format instead of
// inferring it from the file extension (Create) or defaulting to gzip
// (NewWriter). Supported: FormatGzip, FormatBGZF, FormatZstd. The
// read side decompresses bzip2 and LZ4 too, but no parallel encoder
// exists for them here, so they are rejected eagerly.
func WithWriterFormat(f Format) WriterOption {
	return func(c *writerConfig) error {
		switch f {
		case FormatGzip, FormatBGZF, FormatZstd:
			c.format = f
			return nil
		}
		return fmt.Errorf("%w: no encoder for %v", ErrUnsupportedFormat, f)
	}
}

// WithWriterParallelism sets the number of encode workers. Zero (the
// default) selects runtime.NumCPU() — the write-side mirror of
// WithParallelism.
func WithWriterParallelism(n int) WriterOption {
	return func(c *writerConfig) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative parallelism %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithLevel sets the compression level, 0–9. Level 0 stores without
// compression; for gzip/BGZF levels 1–9 trade speed for ratio like
// zlib's, while the zstd encoder has a single matcher and treats every
// non-zero level the same. The default is 6.
func WithLevel(n int) WriterOption {
	return func(c *writerConfig) error {
		if n < 0 || n > 9 {
			return fmt.Errorf("rapidgzip: invalid compression level %d (want 0..9)", n)
		}
		c.level = n
		return nil
	}
}

// WithShardSize sets the uncompressed bytes compressed independently
// per shard — the parallel work unit and the random-access granularity
// of the born archive. Zero selects 1 MiB. BGZF ignores it: the format
// caps members at 65280 bytes.
func WithShardSize(n int) WriterOption {
	return func(c *writerConfig) error {
		if n < 0 {
			return fmt.Errorf("rapidgzip: negative shard size %d", n)
		}
		c.shardSize = n
		return nil
	}
}

// WithContentChecksum adds an xxHash64 content checksum to every zstd
// frame, so parallel decodes verify integrity. Gzip and BGZF always
// carry CRC32s (the format requires them), so this option only changes
// zstd output.
func WithContentChecksum(v bool) WriterOption {
	return func(c *writerConfig) error {
		c.checksums = v
		return nil
	}
}

// WithIndexSidecar writes the RGZIDX05 index to path on Close instead
// of Create's default sibling "<file>.rgzidx". For NewWriter — which
// writes no sidecar by default, having no path — this opts one in.
func WithIndexSidecar(path string) WriterOption {
	return func(c *writerConfig) error {
		if path == "" {
			return fmt.Errorf("rapidgzip: empty index sidecar path")
		}
		c.sidecar = path
		return nil
	}
}

// WithoutIndexSidecar disables Create's automatic index sidecar. The
// index is still built while encoding and remains available through
// ExportIndex after Close.
func WithoutIndexSidecar() WriterOption {
	return func(c *writerConfig) error {
		c.noSidecar = true
		return nil
	}
}

// formatForPath infers the output format from a file extension,
// defaulting to gzip.
func formatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bgz", ".bgzf":
		return FormatBGZF
	case ".zst", ".zstd", ".tzst":
		return FormatZstd
	}
	return FormatGzip
}

// Create creates the file at path and returns a Writer compressing
// into it — the write-side mirror of Open. The format comes from
// WithWriterFormat or, absent that, the file extension (".bgz"/".bgzf"
// → BGZF, ".zst"/".zstd"/".tzst" → zstd, anything else gzip). On Close
// the index built during encoding is written to the sibling
// "<path>.rgzidx" (the file Open auto-discovers), so
//
//	w, _ := rapidgzip.Create("big.gz")
//	io.Copy(w, src)
//	w.Close()
//	a, _ := rapidgzip.Open("big.gz")
//
// reopens with zero sizing passes and full Parallel/RandomAccess
// capabilities. Disable the sidecar with WithoutIndexSidecar, or
// redirect it with WithIndexSidecar.
func Create(path string, opts ...WriterOption) (Writer, error) {
	cfg, err := resolveWriter(opts)
	if err != nil {
		return nil, err
	}
	if cfg.format == FormatUnknown {
		cfg.format = formatForPath(path)
	}
	if cfg.sidecar == "" && !cfg.noSidecar {
		cfg.sidecar = path + IndexSuffix
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSourceRead, err)
	}
	w, err := newWriter(f, cfg)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.ownedFile = f
	return w, nil
}

// NewWriter returns a Writer compressing into w — Create for callers
// that bring their own destination (a pipe, an HTTP response, a
// bytes.Buffer). The format comes from WithWriterFormat, defaulting to
// gzip. No index sidecar is written (there is no path); the index is
// available through ExportIndex after Close, or via WithIndexSidecar.
func NewWriter(w io.Writer, opts ...WriterOption) (Writer, error) {
	cfg, err := resolveWriter(opts)
	if err != nil {
		return nil, err
	}
	if cfg.format == FormatUnknown {
		cfg.format = FormatGzip
	}
	return newWriter(w, cfg)
}

// newWriter wires the format's parallel encoder behind the tracked
// output.
func newWriter(out io.Writer, cfg writerConfig) (*writer, error) {
	level := cfg.level
	if level < 0 {
		level = 6
	}
	w := &writer{format: cfg.format, sidecar: cfg.sidecar, tracked: &fpWriter{out: out}}
	var err error
	switch cfg.format {
	case FormatGzip, FormatBGZF:
		w.gz, err = gzipw.NewWriter(w.tracked, gzipw.WriterOptions{
			Level:       level,
			ShardSize:   cfg.shardSize,
			Parallelism: cfg.parallelism,
			BGZF:        cfg.format == FormatBGZF,
		})
	case FormatZstd:
		w.zw, err = zstdx.NewWriter(w.tracked, zstdx.WriterOptions{
			Level:           level,
			ShardSize:       cfg.shardSize,
			Parallelism:     cfg.parallelism,
			ContentChecksum: cfg.checksums,
		})
	default:
		err = fmt.Errorf("%w: no encoder for %v", ErrUnsupportedFormat, cfg.format)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// writer implements Writer over one of the format encoders, tracking
// the output fingerprint for the emitted index.
type writer struct {
	format    Format
	gz        *gzipw.Writer
	zw        *zstdx.Writer
	tracked   *fpWriter
	sidecar   string
	ownedFile *os.File // Create only; closed (and the sidecar written) on Close
	closed    bool
	err       error
}

func (w *writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("%w: write after Close", ErrClosed)
	}
	if w.gz != nil {
		return w.gz.Write(p)
	}
	return w.zw.Write(p)
}

func (w *writer) ReadFrom(r io.Reader) (int64, error) {
	if w.closed {
		return 0, fmt.Errorf("%w: write after Close", ErrClosed)
	}
	if w.gz != nil {
		return w.gz.ReadFrom(r)
	}
	return w.zw.ReadFrom(r)
}

// Close drains the encode pipeline, writes the format trailer, writes
// the index sidecar if one was requested, and closes the file when the
// writer owns one (Create). Close is idempotent.
func (w *writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.gz != nil {
		w.err = w.gz.Close()
	} else {
		w.err = w.zw.Close()
	}
	if w.err == nil && w.sidecar != "" {
		w.err = w.writeSidecar()
	}
	if w.ownedFile != nil {
		if cerr := w.ownedFile.Close(); w.err == nil {
			w.err = cerr
		}
	}
	return w.err
}

// writeSidecar exports the index atomically next to the archive: a
// temp file renamed into place, so a crash never leaves a truncated
// index for a later Open to trip on.
func (w *writer) writeSidecar() error {
	return writeFileAtomic(w.sidecar, w.ExportIndex)
}

func (w *writer) Stats() WriterStats {
	if w.gz != nil {
		return WriterStats{
			Shards:            uint64(len(w.gz.Checkpoints())),
			UncompressedBytes: uint64(w.gz.UncompressedSize()),
			CompressedBytes:   uint64(w.gz.CompressedSize()),
		}
	}
	return WriterStats{
		Shards:            uint64(len(w.zw.Checkpoints())),
		UncompressedBytes: uint64(w.zw.UncompressedSize()),
		CompressedBytes:   uint64(w.zw.CompressedSize()),
	}
}

func (w *writer) Format() Format { return w.format }

// ExportIndex serialises the RGZIDX05 index recorded while encoding.
// Only valid after Close: the trailer bytes and the final shard are
// part of the geometry.
func (w *writer) ExportIndex(dst io.Writer) error {
	if !w.closed {
		return errors.New("rapidgzip: ExportIndex before Close (the index geometry is final only then)")
	}
	if w.err != nil {
		return fmt.Errorf("rapidgzip: no index for a failed archive: %w", w.err)
	}
	ix, err := w.buildIndex()
	if err != nil {
		return err
	}
	_, err = ix.WriteTo(dst)
	return err
}

// --- fingerprint tracking -------------------------------------------------

// fpWriter tees the compressed output through head/tail trackers so
// the emitted index carries the same source fingerprint Open would
// compute (CRC32 of the first and last FingerprintSpan bytes).
type fpWriter struct {
	out  io.Writer
	size int64
	head []byte // first ≤FingerprintSpan bytes
	tail []byte // last ≤FingerprintSpan bytes
}

func (t *fpWriter) Write(p []byte) (int, error) {
	n, err := t.out.Write(p)
	w := p[:n]
	t.size += int64(n)
	if len(t.head) < gzindex.FingerprintSpan {
		t.head = append(t.head, w[:min(len(w), gzindex.FingerprintSpan-len(t.head))]...)
	}
	if len(w) >= gzindex.FingerprintSpan {
		t.tail = append(t.tail[:0], w[len(w)-gzindex.FingerprintSpan:]...)
	} else {
		t.tail = append(t.tail, w...)
		if over := len(t.tail) - gzindex.FingerprintSpan; over > 0 {
			t.tail = append(t.tail[:0], t.tail[over:]...)
		}
	}
	return n, err
}

// fingerprint reproduces gzindex.ComputeFingerprint over the bytes
// written: for outputs shorter than the span, head and tail are the
// same whole-file window.
func (t *fpWriter) fingerprint() gzindex.Fingerprint {
	span := int64(gzindex.FingerprintSpan)
	if t.size < span {
		span = t.size
	}
	return gzindex.Fingerprint{
		Head: crc32.ChecksumIEEE(t.head[:span]),
		Tail: crc32.ChecksumIEEE(t.tail[len(t.tail)-int(span):]),
	}
}
