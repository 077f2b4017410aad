package rapidgzip

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/crc32x"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/shardpipe"
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
// non-zero level the same, storing about what the reference zstd -1
// stores. The default is 6.
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

// defaultShardSize is the uncompressed bytes per shard when
// WithShardSize leaves it zero: large enough that the per-shard
// dictionary reset costs little ratio, small enough to be a sensible
// random-access unit.
const defaultShardSize = 1 << 20

// newWriter wires the shard loop to the format's encoder and framing,
// and writes the format's header.
func newWriter(out io.Writer, cfg writerConfig) (*writer, error) {
	level := cfg.level
	if level < 0 {
		level = 6
	}
	w := &writer{format: cfg.format, sidecar: cfg.sidecar, tracked: &fpWriter{out: out}, shardSize: cfg.shardSize}
	if w.shardSize == 0 {
		w.shardSize = defaultShardSize
	}
	var header []byte
	switch cfg.format {
	case FormatGzip:
		header = gzipw.AppendHeader(nil)
		w.encode = func(dst, shard []byte) ([]byte, uint32, error) { return gzipw.AppendShard(dst, shard, level) }
		w.trailer = w.gzipTrailer
		w.fill = w.fillGzipIndex
	case FormatBGZF:
		w.shardSize = gzipw.BGZFChunkSize
		w.encode = func(dst, shard []byte) ([]byte, uint32, error) { return gzipw.AppendBGZFMember(dst, shard, level) }
		w.trailer = func() []byte { return gzipw.BGZFEOFMarker }
		w.fill = w.fillBGZFIndex
	case FormatZstd:
		// FrameSize 0 makes each shard one frame, and its header always
		// declares the content size: the output is metadata-sized.
		fo := zstdx.FrameOptions{Level: level, ContentChecksum: cfg.checksums}
		w.encode = func(dst, shard []byte) ([]byte, uint32, error) { return zstdx.AppendFrames(dst, shard, fo), 0, nil }
		w.trailer = func() []byte { return nil }
		w.emptyShard = true
		w.fill = func(ix *gzindex.Index) error { return w.fillZstdIndex(ix, fo.ContentChecksum) }
	default:
		return nil, fmt.Errorf("%w: no encoder for %v", ErrUnsupportedFormat, cfg.format)
	}
	if len(header) > 0 {
		if _, err := w.tracked.Write(header); err != nil {
			return nil, err
		}
	}
	w.pools = &formatPools[cfg.format]
	p := cfg.parallelism
	if p == 0 {
		p = runtime.NumCPU()
	}
	w.pipe = shardpipe.New(p, 2*p, w.drain)
	return w, nil
}

// bufPools recycles shard and segment buffers across shards and
// writers: a full shard is garbage once it is encoded and a segment
// once it is written, and leaving them to the GC costs the encode
// workers cores. Each format has its own, so that one format's buffers
// do not stand in for another's of a different size.
type bufPools struct{ shard, seg sync.Pool } // []byte

var formatPools [FormatZstd + 1]bufPools

// getShard returns an empty buffer with capacity for an n-byte shard.
func (bp *bufPools) getShard(n int) []byte {
	if v := bp.shard.Get(); v != nil {
		if b := v.([]byte); cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, n)
}

func (bp *bufPools) getSeg() []byte {
	if v := bp.seg.Get(); v != nil {
		return v.([]byte)[:0]
	}
	return nil
}

// writer implements Writer for every format with one shard loop: input
// is cut into shards, each shard is encoded independently on a worker
// pool, and the drain writes the segments in order and records one
// checkpoint per shard. A format adds only its encoder and framing,
// set by newWriter.
type writer struct {
	format    Format
	tracked   *fpWriter
	sidecar   string
	ownedFile *os.File // Create only; closed (and the sidecar written) on Close

	shardSize int
	// encode appends one shard's independent encoding to dst and
	// returns the shard's CRC-32 where the format keeps one.
	encode  func(dst, shard []byte) ([]byte, uint32, error)
	trailer func() []byte
	fill    func(*gzindex.Index) error
	// emptyShard makes an empty input encode one empty shard, for a
	// format whose valid file has at least one.
	emptyShard bool

	pipe      *shardpipe.Pipeline[encodedShard]
	pools     *bufPools
	shard     []byte // pending input
	submitted int
	cps       []shardCheckpoint
	decompOff int64  // input bytes drained
	crc       uint32 // gzip: the member's CRC-32, set by gzipTrailer

	closed bool
	err    error
}

// shardCheckpoint records one drained shard: its compressed extent in
// the output, the input extent it encodes, and the CRC-32 of that
// input (gzip and BGZF). Every extent is byte-aligned by construction,
// which is what makes the archive seekable without a sizing pass.
type shardCheckpoint struct {
	compOff, compEnd      int64
	decompOff, decompSize int64
	crc                   uint32
}

// encodedShard is one shard's encoding on its way to the drain.
type encodedShard struct {
	seg  []byte
	crc  uint32
	size int
}

func (w *writer) Write(p []byte) (int, error) {
	if err := w.writable(); err != nil {
		return 0, err
	}
	total := len(p)
	for len(p) > 0 {
		n := copy(w.space(), p)
		p = p[n:]
		if err := w.filled(n); err != nil {
			return total - len(p), err
		}
	}
	return total, nil
}

// ReadFrom fills shards straight from r, without the caller's
// intermediate buffer.
func (w *writer) ReadFrom(r io.Reader) (int64, error) {
	if err := w.writable(); err != nil {
		return 0, err
	}
	var total int64
	for {
		n, err := r.Read(w.space())
		total += int64(n)
		if ferr := w.filled(n); ferr != nil {
			return total, ferr
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

func (w *writer) writable() error {
	if w.closed {
		return fmt.Errorf("%w: write after Close", ErrClosed)
	}
	return w.err
}

// space returns the free tail of the pending shard, starting a shard
// if none is pending.
func (w *writer) space() []byte {
	if w.shard == nil {
		w.shard = w.pools.getShard(w.shardSize)
	}
	return w.shard[len(w.shard):w.shardSize]
}

// filled accounts for n bytes placed in space() and submits the shard
// once it is full. It blocks only while the in-flight window is full.
func (w *writer) filled(n int) error {
	w.shard = w.shard[:len(w.shard)+n]
	if len(w.shard) < w.shardSize {
		return nil
	}
	return w.submit()
}

// submit hands the pending shard to the encode pool; the job owns it
// from here on.
func (w *writer) submit() error {
	shard, encode, pools := w.shard, w.encode, w.pools
	w.shard = nil
	err := w.pipe.Submit(func() (encodedShard, error) {
		seg, crc, err := encode(pools.getSeg(), shard)
		es := encodedShard{seg: seg, crc: crc, size: len(shard)}
		pools.shard.Put(shard[:0])
		return es, err
	})
	if err != nil {
		w.err = err
		return err
	}
	w.submitted++
	return nil
}

// drain is the pipeline's sink, run on the producer's goroutine inside
// Write, ReadFrom and Close: it writes one segment and records its
// checkpoint.
func (w *writer) drain(es encodedShard) error {
	off := w.tracked.size
	if _, err := w.tracked.Write(es.seg); err != nil {
		return err
	}
	w.cps = append(w.cps, shardCheckpoint{
		compOff: off, compEnd: w.tracked.size,
		decompOff: w.decompOff, decompSize: int64(es.size),
		crc: es.crc,
	})
	w.decompOff += int64(es.size)
	w.pools.seg.Put(es.seg[:0])
	return nil
}

// Close submits the pending shard, drains the encode pipeline, writes
// the format trailer, writes the index sidecar if one was requested,
// and closes the file when the writer owns one (Create). Close is
// idempotent.
func (w *writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil && (len(w.shard) > 0 || w.emptyShard && w.submitted == 0) {
		w.submit()
	}
	if err := w.pipe.Close(); err != nil && w.err == nil {
		w.err = err
	}
	if w.err == nil {
		if t := w.trailer(); len(t) > 0 {
			_, w.err = w.tracked.Write(t)
		}
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

// gzipTrailer ends the gzip member. Its footer CRC-32 combines the
// shard CRCs in GF(2), the way parallel verification combines them on
// decode; the sidecar's member-end mark reuses it.
func (w *writer) gzipTrailer() []byte {
	for _, cp := range w.cps {
		w.crc = crc32x.Combine(w.crc, cp.crc, cp.decompSize)
	}
	return gzipw.AppendTrailer(nil, w.crc, w.decompOff)
}

// writeSidecar exports the index atomically next to the archive: a
// temp file renamed into place, so a crash never leaves a truncated
// index for a later Open to trip on.
func (w *writer) writeSidecar() error {
	return writeFileAtomic(w.sidecar, w.ExportIndex)
}

func (w *writer) Stats() WriterStats {
	return WriterStats{
		Shards:            uint64(len(w.cps)),
		UncompressedBytes: uint64(w.decompOff),
		CompressedBytes:   uint64(w.tracked.size),
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
