package rapidgzip

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"repro/internal/bzip2x"
	"repro/internal/core"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/lz4x"
	"repro/internal/spanengine"
	"repro/internal/zstdx"
)

// Archive is the format-agnostic face of the package: one interface
// over the decompressed stream of a gzip, BGZF, bzip2, LZ4 or zstd
// file, served by whichever backend Open dispatched to. All methods
// are safe for concurrent use.
//
// Every format persists an index: gzip/BGZF export seek points with
// windows, bzip2/LZ4/zstd export their checkpoint tables — either way,
// reopening with the index skips the initial scan or sizing pass.
type Archive interface {
	io.Reader
	io.Seeker
	io.ReaderAt
	io.WriterTo
	io.Closer

	// Size returns the decompressed size, completing whatever scan the
	// backend needs first.
	Size() (int64, error)
	// DecompressedSize reports the decompressed size when it is already
	// known without any decoding — when metadata declares it (LZ4, zstd
	// frames with content sizes, BGZF), when an index was imported, and
	// for gzip, bzip2 and unsized zstd once a first pass or a Size call
	// has completed the span table. ok=false means answering would cost a
	// decode; callers that must stay cheap (a server emitting
	// Content-Length) branch on it instead of calling Size.
	DecompressedSize() (size int64, ok bool)
	// BuildIndex completes the backend's seek checkpoints for the whole
	// file, making every subsequent Seek/ReadAt constant-time where the
	// format allows it.
	BuildIndex() error
	// ExportIndex serialises the seek-point index or checkpoint table.
	ExportIndex(w io.Writer) error
	// ImportIndex installs a previously exported index.
	ImportIndex(rd io.Reader) error
	// Stats returns a snapshot of backend activity counters.
	Stats() Stats
	// Format reports the detected (or forced) container format.
	Format() Format
	// Capabilities reports what this archive can actually do.
	Capabilities() Capabilities
}

// IndexSuffix is the sibling-file extension Open probes for index
// auto-discovery: "file.gz" → "file.gz.rgzidx".
const IndexSuffix = ".rgzidx"

// Open opens the compressed file at path behind one format-agnostic
// front door: the content's magic bytes select the backend (gzip,
// BGZF, bzip2, LZ4 or zstd — WithFormat overrides), and the returned
// Archive serves parallel decompression and, where the format allows,
// checkpointed random access. Content that matches no supported magic
// fails with ErrUnsupportedFormat; a file whose bytes cannot be read
// at all (a directory, a truncated or vanished file) fails with
// ErrSourceRead.
//
// Every format is file-backed: the compressed bytes stay on disk and
// each decode preads only the extents it needs, so archives larger
// than RAM open and serve random access with bounded resident memory
// (WithInMemory restores the old load-it-all behavior for small files
// on slow storage).
//
// A sibling "path.rgzidx" index saved by a previous run is imported
// automatically when present and valid (disable with
// WithoutIndexDiscovery, force a specific file with WithIndexFile).
// For gzip/BGZF the import skips the initial decompression pass; for
// bzip2/LZ4/zstd it skips the scan, and for bzip2 and unsized zstd the
// decodes that would size the table.
func Open(path string, opts ...Option) (Archive, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	src, err := filereader.OpenFile(path)
	if err != nil {
		return nil, err
	}
	a, err := openArchive(src, path, cfg)
	if err != nil {
		src.Close()
		return nil, err
	}
	switch t := a.(type) {
	case *Reader:
		if t.fileBacked {
			t.owned = src
		} else {
			// WithInMemory copied the data out; the file is done.
			src.Close()
		}
	case *spanArchive:
		if t.fileBacked {
			t.owned = src
		} else {
			src.Close()
		}
	default:
		src.Close()
	}
	return a, nil
}

// OpenBytes opens an in-memory compressed buffer with the same
// sniffing dispatch as Open. No index auto-discovery (there is no
// sibling file), but WithIndexFile still works for every format.
func OpenBytes(data []byte, opts ...Option) (Archive, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return openArchive(filereader.MemoryReader(data), "", cfg)
}

// openArchive dispatches src to a backend by sniffed or forced format.
// path is only used to locate a sibling index ("" disables discovery).
func openArchive(src filereader.FileReader, path string, cfg config) (Archive, error) {
	format := cfg.format
	if format == FormatUnknown {
		prefix := make([]byte, SniffLen)
		n, rerr := src.ReadAt(prefix, 0)
		format = DetectFormat(prefix[:n])
		if format == FormatUnknown {
			// A real read failure is an I/O problem, not a format
			// verdict — callers branching on ErrUnsupportedFormat must
			// not mistake a flaky disk (or a directory opened as a
			// file) for a wrong file type. (EOF just means the file is
			// shorter than the sniff window.)
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return nil, fmt.Errorf("%w: sniffing input: %w", ErrSourceRead, rerr)
			}
			// Classify here, before any backend sees the data: an
			// empty or undersized file must fail with the typed sniff
			// error, not a short-read error from deeper in a decoder.
			if n == 0 {
				return nil, fmt.Errorf("%w: empty input", ErrUnsupportedFormat)
			}
			return nil, fmt.Errorf("%w: %d-byte prefix matches no supported magic", ErrUnsupportedFormat, n)
		}
	}
	if cfg.inMemory {
		// Opt-in legacy behavior, same for every format: load everything
		// once, then serve decodes zero-copy from the resident buffer.
		if _, mem := filereader.Bytes(src); !mem {
			data, err := filereader.ReadAll(src)
			if err != nil {
				return nil, sourceErr(err)
			}
			src = filereader.MemoryReader(data)
		}
	}
	switch format {
	case FormatGzip, FormatBGZF:
		return openIndexed(src, path, cfg, format)
	case FormatBzip2, FormatLZ4, FormatZstd:
		return newSpanArchive(src, format, cfg, path)
	}
	return nil, fmt.Errorf("%w: content matches no supported magic", ErrUnsupportedFormat)
}

// sourceErr maps a filereader I/O failure to the public typed error.
// Format-level errors (corrupt headers, missing magics) pass through
// untouched: they mean the bytes were readable but wrong, which is a
// different caller branch.
func sourceErr(err error) error {
	if errors.Is(err, filereader.ErrIO) {
		return fmt.Errorf("%w: %w", ErrSourceRead, err)
	}
	return err
}

// closedErr maps the internal closed-state errors a read can surface —
// the engine's own gate, the core's, or a pread on a file descriptor
// that Close won the race for — onto the public ErrClosed, so a caller
// racing Close against ReadAt gets one typed answer regardless of
// which layer noticed first. Other errors pass through untouched.
func closedErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, spanengine.ErrClosed) || errors.Is(err, core.ErrClosed) || errors.Is(err, fs.ErrClosed) {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return err
}

// openIndexed builds the gzip/BGZF backend, importing an explicit or
// discovered index when available.
func openIndexed(src filereader.FileReader, path string, cfg config, format Format) (*Reader, error) {
	coreCfg, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	if cfg.indexFile != "" {
		// An explicit index must work; failure is the caller's answer.
		return importIndexReader(src, coreCfg, cfg.indexFile, format)
	}
	if !cfg.noDiscovery && path != "" {
		if _, err := os.Stat(path + IndexSuffix); err == nil {
			// A sibling index is an optimisation: import it when valid,
			// fall back to a normal scan when stale, corrupt, or built
			// for a different file.
			if r, err := importIndexReader(src, coreCfg, path+IndexSuffix, format); err == nil {
				return r, nil
			}
		}
	}
	pr, err := core.NewReader(src, coreCfg)
	if err != nil {
		// The core tags open-time read failures (fingerprint probe on a
		// directory, a shrinking file) with filereader.ErrIO; surface
		// those as the typed ErrSourceRead, like every other backend.
		return nil, sourceErr(err)
	}
	_, mem := filereader.Bytes(src)
	return &Reader{pr: pr, format: format, fileBacked: !mem}, nil
}

// importIndexReader constructs a reader destined for an immediate index
// import: the eager BGZF member-metadata scan is skipped, because the
// imported table would replace its result anyway — for a BGZF file
// with millions of members that scan is the exact startup cost
// importing an index exists to avoid.
func importIndexReader(src filereader.FileReader, coreCfg core.Config, indexPath string, format Format) (*Reader, error) {
	ixf, err := os.Open(indexPath)
	if err != nil {
		return nil, err
	}
	defer ixf.Close()
	coreCfg.SkipMetadataScan = true
	pr, err := core.NewReader(src, coreCfg)
	if err != nil {
		return nil, sourceErr(err)
	}
	_, mem := filereader.Bytes(src)
	r := &Reader{pr: pr, format: format, fileBacked: !mem}
	// The file holds nothing but the index, so buffering is safe and
	// spares the varint-level deserializer per-byte file reads.
	if err := r.ImportIndex(bufio.NewReader(ixf)); err != nil {
		pr.Close()
		return nil, err
	}
	return r, nil
}

// --- span-engine backends (bzip2, LZ4, zstd) -----------------------------

// spanBackend is the contract of the span-engine-backed readers
// (bzip2x.Reader, lz4x.Reader, zstdx.Reader): concurrent positional
// reads over the decompressed stream, and the engine itself for the span
// table — which bzip2 and unsized zstd grow as they are read — stats and
// checkpoint export.
type spanBackend interface {
	io.ReaderAt
	io.Closer
	Engine() *spanengine.Engine
}

// spanArchive adapts a spanBackend to the Archive interface: it adds
// the sequential cursor (Read/Seek/WriteTo) and the checkpoint-table
// index methods (ExportIndex/ImportIndex over the RGZIDX04 container).
// One archive serves either backing — a resident buffer (OpenBytes,
// WithInMemory) or an open file, in which case the compressed bytes
// are never whole in memory: every decode preads only its span's
// extent.
type spanArchive struct {
	src        filereader.FileReader // compressed source (file- or memory-backed)
	fileBacked bool
	owned      io.Closer // underlying file, closed with the archive (Open only)
	format     Format
	cfg        config // retained to rebuild the backend on ImportIndex (keeps the shared pool)

	mu   sync.Mutex
	back spanBackend
	// retired holds backends replaced by ImportIndex. They stay open
	// until Close so a concurrent ReadAt that snapshotted one mid-swap
	// finishes against it instead of hitting a closed engine.
	retired []spanBackend
	caps    Capabilities
	pos     int64
}

// formatTag returns the checkpoint-table tag of a span-engine format.
func formatTag(format Format) string {
	switch format {
	case FormatBzip2:
		return bzip2x.FormatTag
	case FormatLZ4:
		return lz4x.FormatTag
	case FormatZstd:
		return zstdx.FormatTag
	}
	return ""
}

// newSpanArchive constructs the backend over src (file- or memory-
// backed), importing an explicit or discovered checkpoint-table index
// when available (mirroring openIndexed's behavior for gzip: an
// explicit index must work, a discovered one falls back to a scan).
func newSpanArchive(src filereader.FileReader, format Format, cfg config, path string) (Archive, error) {
	if cfg.indexFile != "" {
		return spanArchiveFromIndexFile(src, format, cfg, cfg.indexFile)
	}
	if !cfg.noDiscovery && path != "" {
		if _, err := os.Stat(path + IndexSuffix); err == nil {
			if a, err := spanArchiveFromIndexFile(src, format, cfg, path+IndexSuffix); err == nil {
				return a, nil
			}
		}
	}
	engCfg, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	back, caps, err := scanSpanBackend(src, format, engCfg)
	if err != nil {
		return nil, sourceErr(err)
	}
	return finishSpanArchive(src, format, cfg, back, caps), nil
}

// finishSpanArchive wraps a constructed backend in the Archive shell.
func finishSpanArchive(src filereader.FileReader, format Format, cfg config, back spanBackend, caps Capabilities) *spanArchive {
	_, mem := filereader.Bytes(src)
	return &spanArchive{src: src, fileBacked: !mem, format: format, cfg: cfg, back: back, caps: caps}
}

// spanArchiveFromIndexFile opens the index at indexPath and builds the
// backend from its checkpoint table — no scan, nothing decoded, and
// for a file-backed source zero reads of the compressed file beyond
// the fingerprint probe.
func spanArchiveFromIndexFile(src filereader.FileReader, format Format, cfg config, indexPath string) (Archive, error) {
	ixf, err := os.Open(indexPath)
	if err != nil {
		return nil, err
	}
	defer ixf.Close()
	ix, err := gzindex.Read(bufio.NewReader(ixf))
	if err != nil {
		return nil, err
	}
	engCfg, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	back, caps, err := spanBackendFromIndex(src, format, ix, engCfg)
	if err != nil {
		return nil, sourceErr(err)
	}
	return finishSpanArchive(src, format, cfg, back, caps), nil
}

// scanSpanBackend runs the format's scan (headers and magics; nothing
// is decoded) and reports the archive's truthful capabilities.
func scanSpanBackend(src filereader.FileReader, format Format, engCfg spanengine.Config) (spanBackend, Capabilities, error) {
	switch format {
	case FormatBzip2:
		br, err := bzip2x.NewReaderConfig(src, engCfg)
		if err != nil {
			return nil, Capabilities{}, err
		}
		// The stdlib bzip2 decoder verifies block CRCs on every decode,
		// so Verify holds unconditionally.
		return br, memCaps(br.NumStreams() > 1, true), nil
	case FormatLZ4:
		lr, err := lz4x.NewReaderConfig(src, engCfg)
		if err != nil {
			return nil, Capabilities{}, err
		}
		return lr, memCaps(lr.NumFrames() > 1, lr.Checksummed()), nil
	case FormatZstd:
		zr, err := zstdx.NewReaderConfig(src, engCfg)
		if err != nil {
			return nil, Capabilities{}, err
		}
		// Parallelism and metadata-only random access need the frame
		// table complete without decodes: multiple frames, each
		// declaring its content size. Unsized files size themselves as
		// they are read and stay honest about it (an index import lifts
		// the demotion — the table is metadata then).
		return zr, memCaps(zr.NumFrames() > 1 && zr.Sized(), zr.Checksummed()), nil
	}
	return nil, Capabilities{}, fmt.Errorf("%w: %v has no span-engine backend", ErrUnsupportedFormat, format)
}

// spanBackendFromIndex validates an imported index against the open
// source and builds the backend from its checkpoint table, skipping
// the scan entirely.
func spanBackendFromIndex(src filereader.FileReader, format Format, ix *gzindex.Index, engCfg spanengine.Config) (spanBackend, Capabilities, error) {
	if !ix.Finalized {
		return nil, Capabilities{}, errors.New("rapidgzip: can only import finalized indexes")
	}
	ct := ix.Checkpoints
	if ct == nil {
		return nil, Capabilities{}, fmt.Errorf("%w: index carries no checkpoint table for %v", ErrNoIndexSupport, format)
	}
	if want := formatTag(format); ct.Format != want {
		return nil, Capabilities{}, fmt.Errorf("rapidgzip: index checkpoint table is for format %q, want %q", ct.Format, want)
	}
	if ix.CompressedSize != uint64(src.Size()) {
		return nil, Capabilities{}, fmt.Errorf("rapidgzip: index is for a %d-byte file, have %d bytes",
			ix.CompressedSize, src.Size())
	}
	if ix.SourceFP != nil {
		// The probe reads 4 KiB at each end of the file — the whole
		// point of the import is that nothing else is read.
		fp, err := gzindex.ComputeFingerprint(src, src.Size())
		if err != nil {
			return nil, Capabilities{}, err
		}
		if *ix.SourceFP != fp {
			return nil, Capabilities{}, fmt.Errorf("rapidgzip: index fingerprint %08x/%08x does not match the open file's %08x/%08x (index built for a different file of the same size)",
				ix.SourceFP.Head, ix.SourceFP.Tail, fp.Head, fp.Tail)
		}
	}
	spans := make([]spanengine.Span, len(ct.Spans))
	for i, s := range ct.Spans {
		spans[i] = spanengine.Span{CompOff: s.CompOff, CompEnd: s.CompEnd, DecompOff: s.DecompOff, DecompSize: s.DecompSize}
	}
	multi := len(spans) > 1
	switch format {
	case FormatBzip2:
		br, err := bzip2x.NewReaderFromCheckpoints(src, spans, engCfg)
		if err != nil {
			return nil, Capabilities{}, err
		}
		return br, memCaps(multi, true), nil
	case FormatLZ4:
		lr, err := lz4x.NewReaderFromCheckpoints(src, spans, ct.Flags, engCfg)
		if err != nil {
			return nil, Capabilities{}, err
		}
		return lr, memCaps(multi, lr.Checksummed()), nil
	case FormatZstd:
		zr, err := zstdx.NewReaderFromCheckpoints(src, spans, ct.Flags, engCfg)
		if err != nil {
			return nil, Capabilities{}, err
		}
		// The imported table carries every extent, so even a file whose
		// frame headers omitted content sizes is parallel and randomly
		// accessible now.
		return zr, memCaps(multi, zr.Checksummed()), nil
	}
	return nil, Capabilities{}, fmt.Errorf("%w: %v has no span-engine backend", ErrUnsupportedFormat, format)
}

// memCaps is the capability profile of a span-engine archive: Seek and
// Index always work; random access, parallel decode and prefetching
// need more than one span.
func memCaps(multi, verify bool) Capabilities {
	return Capabilities{Seek: true, Index: true, RandomAccess: multi, Parallel: multi, Prefetch: multi, Verify: verify}
}

// engine returns the current backend's engine (ImportIndex swaps
// backends).
func (a *spanArchive) engine() *spanengine.Engine {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.back.Engine()
}

func (a *spanArchive) Read(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, err := a.back.ReadAt(p, a.pos)
	a.pos += int64(n)
	return n, closedErr(err)
}

func (a *spanArchive) Seek(offset int64, whence int) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = a.pos
	case io.SeekEnd:
		// The size is only known once the span table is complete.
		size, err := a.back.Engine().TotalSize()
		if err != nil {
			return 0, closedErr(err)
		}
		base = size
	default:
		return 0, fmt.Errorf("rapidgzip: bad whence %d", whence)
	}
	target := base + offset
	if target < 0 {
		return 0, fmt.Errorf("rapidgzip: negative seek position %d", target)
	}
	a.pos = target
	return target, nil
}

func (a *spanArchive) ReadAt(p []byte, off int64) (int, error) {
	a.mu.Lock()
	back := a.back
	a.mu.Unlock()
	n, err := back.ReadAt(p, off)
	return n, closedErr(err)
}

// WriteTo streams the remaining decompressed bytes in span order — the
// sequential fast path io.Copy hits — growing the span table as it goes
// where the format left sizes to the first decode. Parallelism comes from
// the span engine itself: each span access feeds the prefetch strategy,
// so upcoming spans decode on the worker pool while earlier ones are
// written.
func (a *spanArchive) WriteTo(w io.Writer) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fileBacked {
		// The whole remaining compressed tail is about to be preaded in
		// span order; tell the kernel so readahead widens.
		filereader.AdviseSequential(a.src, 0, a.src.Size())
	}
	eng := a.back.Engine()
	var written int64
	for i := 0; ; i++ {
		if ok, err := eng.GrowTo(i); err != nil {
			return written, closedErr(err)
		} else if !ok {
			return written, nil
		}
		off, size := eng.SpanExtent(i)
		if size <= 0 || off+size <= a.pos {
			continue
		}
		seg, err := eng.SpanContent(i)
		if err != nil {
			return written, closedErr(err)
		}
		if skip := a.pos - off; skip > 0 {
			seg = seg[skip:]
		}
		m, err := w.Write(seg)
		written += int64(m)
		a.pos += int64(m)
		if err != nil {
			return written, err
		}
	}
}

// Size returns the decompressed size, completing the span table first
// where sizes were left to decoding (bzip2, unsized zstd).
func (a *spanArchive) Size() (int64, error) {
	size, err := a.engine().TotalSize()
	return size, closedErr(err)
}

// DecompressedSize implements Archive: the size is free once the span
// table is complete — from construction for formats whose metadata
// declares it and for any imported index.
func (a *spanArchive) DecompressedSize() (int64, bool) {
	eng := a.engine()
	if !eng.Complete() {
		return 0, false
	}
	return eng.Size(), true
}

// AdviseSequentialRead hints the OS that the compressed file is about
// to be read front to back (a whole-archive streaming GET). No-op for
// memory-backed archives and platforms without posix_fadvise.
func (a *spanArchive) AdviseSequentialRead() {
	if a.fileBacked {
		filereader.AdviseSequential(a.src, 0, a.src.Size())
	}
}

// BuildIndex completes the checkpoint table (stream spans, frame table):
// a no-op where metadata or an index supplied it, a decode of whatever no
// read has reached yet for bzip2 and unsized zstd.
func (a *spanArchive) BuildIndex() error {
	return closedErr(a.engine().EnsureComplete())
}

// ExportIndex serialises the checkpoint table, completed first, as an
// RGZIDX04 index. A later Open of the same file with the index (explicit,
// or discovered as a sibling) skips the scan and every sizing decode.
func (a *spanArchive) ExportIndex(w io.Writer) error {
	eng := a.engine()
	if err := eng.EnsureComplete(); err != nil {
		return closedErr(err)
	}
	fp, err := gzindex.ComputeFingerprint(a.src, a.src.Size())
	if err != nil {
		return sourceErr(err)
	}
	ix := gzindex.New(0)
	ix.Finalized = true
	ix.CompressedSize = uint64(a.src.Size())
	ix.UncompressedSize = uint64(eng.Size())
	ix.SourceFP = &fp
	spans := eng.Checkpoints()
	ct := &gzindex.CheckpointTable{Format: formatTag(a.format), Flags: eng.Flags()}
	ct.Spans = make([]gzindex.Checkpoint, len(spans))
	for i, s := range spans {
		ct.Spans[i] = gzindex.Checkpoint{CompOff: s.CompOff, CompEnd: s.CompEnd, DecompOff: s.DecompOff, DecompSize: s.DecompSize}
	}
	ix.Checkpoints = ct
	_, err = ix.WriteTo(w)
	return err
}

// ImportIndex installs a previously exported checkpoint-table index,
// replacing the backend with one built from the persisted spans. The
// index must belong to the same compressed data (format tag,
// compressed size and source fingerprint are all enforced).
func (a *spanArchive) ImportIndex(rd io.Reader) error {
	ix, err := gzindex.Read(rd)
	if err != nil {
		return err
	}
	engCfg, err := a.cfg.engineConfig()
	if err != nil {
		return err
	}
	back, caps, err := spanBackendFromIndex(a.src, a.format, ix, engCfg)
	if err != nil {
		return sourceErr(err)
	}
	a.mu.Lock()
	a.retired = append(a.retired, a.back)
	a.back = back
	a.caps = caps
	a.mu.Unlock()
	return nil
}

// Stats reports the span engine's counters.
func (a *spanArchive) Stats() Stats {
	return engineStats(a.engine().Stats())
}

func (a *spanArchive) Close() error {
	a.mu.Lock()
	backs := append([]spanBackend{a.back}, a.retired...)
	a.retired = nil
	a.mu.Unlock()
	var err error
	for _, b := range backs {
		if cerr := b.Close(); err == nil {
			err = cerr
		}
	}
	// The compressed file outlives every backend engine (in-flight
	// decodes finished above), so it closes last.
	if a.owned != nil {
		if cerr := a.owned.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (a *spanArchive) Format() Format { return a.format }

func (a *spanArchive) Capabilities() Capabilities {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.caps
}

var (
	_ Archive = (*Reader)(nil)
	_ Archive = (*spanArchive)(nil)
)
