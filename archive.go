package rapidgzip

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

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
// file. All methods are safe for concurrent use, ImportIndex and Close
// included: a read that runs while an index is imported finishes on the
// table it started on and returns correct bytes, and a read that runs
// while the archive is closed returns its bytes or ErrClosed.
//
// Every format persists an index: gzip/BGZF export seek points with
// windows, bzip2/LZ4/zstd export their checkpoint tables — either way,
// reopening with the index skips the initial scan or sizing pass.
//
// There is one cursor, moved by Read, Seek and WriteTo, which exclude
// each other; ReadAt neither moves nor waits for it. What it answers is
// the same for every format and backing:
//
//   - Read returns io.EOF only together with zero bytes: the call that
//     delivers the last bytes of the stream returns them with a nil
//     error, the next one 0, io.EOF.
//   - Seek accepts any position that is not negative, past the end
//     included (Read then returns 0, io.EOF); io.SeekEnd first completes
//     the span table of a format whose size is found by decoding.
//   - ReadAt follows io.ReaderAt: a negative offset is an error, a read
//     that reaches the end returns what there was and io.EOF.
//   - After Close every method that can fail — Read, Seek, ReadAt,
//     WriteTo, Size, BuildIndex, ExportIndex, ImportIndex — fails with
//     ErrClosed; Stats, Format, Capabilities and DecompressedSize keep
//     answering from the final state. A second Close returns nil.
//
// Archives returned by Open and OpenBytes have three more methods, which
// callers reach by asserting them: CRCVerified() (bool, uint64), the
// state of checksum verification; AdviseSequentialRead(), a hint ahead
// of a front-to-back read; and WriteRangeTo(ctx context.Context, w
// io.Writer, off, n int64) (int64, error), which writes the n bytes at
// off to w straight from the span cache, like ReadAt without the cursor
// and without the copy, and stops between spans once ctx is done.
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
	// ExportIndex serialises the seek-point index or checkpoint table,
	// completing it first (for gzip, bzip2 and unsized zstd one pass over
	// whatever no read has reached yet). A later run that imports it skips
	// that pass and every scan — the paper's "(index)" mode. A gzip
	// archive opened through an index file reads windows from that file
	// as it needs them, the export's included, so write the index to that
	// path with ExportIndexFile, which renames a new file over it: opened
	// with os.Create, the file is cut to nothing before the export reads
	// it, and the export fails with gzindex.ErrCorrupt, unless the index
	// was discovered, whose windows are then decoded again from the file.
	ExportIndex(w io.Writer) error
	// ImportIndex installs a previously exported index: codec, prefetch
	// strategy and engine are built anew from it and replace the current
	// ones, whose counters Stats no longer reports. The index must belong
	// to the same compressed file (format tag, compressed size and source
	// fingerprint are all enforced); on an error the archive is unchanged.
	// Exactly the index bytes are consumed from rd, a varint at a time:
	// pass a buffered reader if rd holds nothing else.
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
	if a.fileBacked {
		a.owned = src
	} else {
		// WithInMemory copied the data out; the file is done.
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
	a, err := openArchive(filereader.MemoryReader(data), "", cfg)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// openArchive sniffs (or is told) the format of src and builds the
// archive over it. path is only used to locate a sibling index (""
// disables discovery).
func openArchive(src filereader.FileReader, path string, cfg config) (*archive, error) {
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
	_, mem := filereader.Bytes(src)
	if cfg.inMemory && !mem {
		// Opt-in legacy behavior, same for every format: load everything
		// once, then serve decodes zero-copy from the resident buffer.
		data, err := filereader.ReadAll(src)
		if err != nil {
			return nil, sourceErr(err)
		}
		src, mem = filereader.MemoryReader(data), true
	}
	be, ok := backends[format]
	if !ok {
		return nil, fmt.Errorf("%w: no backend for %v", ErrUnsupportedFormat, format)
	}
	a := &archive{src: src, fileBacked: !mem, format: format, cfg: cfg, backend: be}
	st, err := a.first(path)
	if err != nil {
		// Backends tag what they could not read (a directory opened as a
		// file, a file that shrank) with filereader.ErrIO; that is the
		// typed ErrSourceRead here, whatever the format.
		return nil, sourceErr(err)
	}
	a.cur.Store(st)
	return a, nil
}

// first builds the state an archive opens with.
func (a *archive) first(path string) (*state, error) {
	if a.cfg.indexFile != "" {
		// An explicit index must work; failure is the caller's answer.
		return a.fromIndexFile(a.cfg.indexFile, false)
	}
	if !a.cfg.noDiscovery && path != "" {
		// A sibling index is an optimisation: import it when valid, fall
		// back to a normal scan when stale, corrupt, or built for a
		// different file.
		if _, err := os.Stat(path + IndexSuffix); err == nil {
			if st, err := a.fromIndexFile(path+IndexSuffix, true); err == nil {
				return st, nil
			}
		}
	}
	return a.cold(a.src, a.cfg)
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

// readErr maps what a call on an open archive fails with onto the public
// typed errors, the same way for every method: the internal closed-state
// errors (the engine's own gate, or a pread on a descriptor that Close
// won the race for) to ErrClosed, whichever layer noticed first, and a
// failed read of the source to ErrSourceRead (sourceErr).
func readErr(err error) error {
	if errors.Is(err, spanengine.ErrClosed) || errors.Is(err, fs.ErrClosed) {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return sourceErr(err)
}

// --- the per-format part -------------------------------------------------

// state is one generation of an archive's decoding state: a span engine
// over a codec built cold or from an index. ImportIndex replaces it whole.
type state struct {
	eng  *spanengine.Engine
	caps Capabilities
	// indexFile is the index file the state was built from when its
	// windows are read from it on first use (gzindex.Index.ReadsWindows),
	// else nil. It closes with the engine.
	indexFile io.Closer
}

// close closes the engine and then the index file its decodes read
// windows from.
func (st *state) close() error {
	err := st.eng.Close()
	if st.indexFile != nil {
		if cerr := st.indexFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// backend is what a format contributes to the stack, chosen from
// backends by Format: how a state is built cold — a scan that decodes
// nothing — and how straight from a parsed index, with no scan at all.
type backend struct {
	cold    func(src filereader.FileReader, cfg config) (*state, error)
	indexed func(src filereader.FileReader, ix *gzindex.Index, cfg config) (*state, error)
}

var backends = map[Format]backend{
	FormatGzip: gzipBackend,
	FormatBGZF: gzipBackend,
	// Every bzip2 decode checks the CRCs of its blocks, and reads in order
	// the CRC of their stream, so Verify holds unconditionally.
	FormatBzip2: codecBackend(bzip2x.Codec{}, func(_ uint8, spans int, _ bool) Capabilities {
		return spanCaps(spans > 1, true)
	}),
	FormatLZ4: codecBackend(lz4x.Codec{}, func(flags uint8, spans int, _ bool) Capabilities {
		return spanCaps(spans > 1, flags&lz4x.FlagChecksummed != 0)
	}),
	// Parallelism and metadata-only random access need the frame table
	// complete without decodes: multiple frames, each declaring its
	// content size. Unsized files size themselves as they are read and
	// stay honest about it; an index lifts the demotion — it carries
	// every extent, so the table is metadata then.
	FormatZstd: codecBackend(zstdx.Codec{}, func(flags uint8, spans int, indexed bool) Capabilities {
		return spanCaps(spans > 1 && (indexed || flags&zstdx.FlagMetadataSized != 0), flags&zstdx.FlagChecksummed != 0)
	}),
}

// gzipBackend: seekable, constant-time random access once indexed,
// parallel decompression with strategy-driven prefetching, index export
// and import, and opt-in CRC verification — whatever the file looks like.
var gzipBackend = backend{
	cold: func(src filereader.FileReader, cfg config) (*state, error) {
		return gzipState(core.New(src, cfg.core()))
	},
	indexed: func(src filereader.FileReader, ix *gzindex.Index, cfg config) (*state, error) {
		return gzipState(core.NewFromIndex(src, ix, cfg.core()))
	},
}

func gzipState(eng *spanengine.Engine, err error) (*state, error) {
	if err != nil {
		return nil, err
	}
	return &state{eng: eng, caps: Capabilities{
		Seek: true, RandomAccess: true, Parallel: true, Index: true, Verify: true, Prefetch: true,
	}}, nil
}

// codecBackend is the backend of a format that is a spanengine.Codec and
// nothing more. caps is its capability rule: from the table's flags, the
// spans it lists, and whether it came from an index.
func codecBackend(codec spanengine.Codec, caps func(flags uint8, spans int, indexed bool) Capabilities) backend {
	return backend{
		cold: func(src filereader.FileReader, cfg config) (*state, error) {
			eng, err := spanengine.New(src, codec, cfg.engine())
			if err != nil {
				return nil, err
			}
			return &state{eng: eng, caps: caps(eng.Flags(), eng.ScanSpans(), false)}, nil
		},
		// Nothing is scanned or decoded, and of a file-backed source
		// nothing is read beyond the fingerprint probe, 4 KiB at each end.
		indexed: func(src filereader.FileReader, ix *gzindex.Index, cfg config) (*state, error) {
			ct := ix.Checkpoints
			if ct == nil {
				return nil, fmt.Errorf("%w: index carries no checkpoint table for %q", ErrNoIndexSupport, codec.FormatTag())
			}
			fp, err := cfg.fingerprint(src)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", filereader.ErrIO, err)
			}
			if err := ix.CheckSource(src.Size(), fp, codec.FormatTag()); err != nil {
				return nil, err
			}
			spans := make([]spanengine.Span, len(ct.Spans))
			for i, s := range ct.Spans {
				spans[i] = spanengine.Span(s)
			}
			eng, err := spanengine.NewFromCheckpoints(src, codec, spans, ct.Flags, cfg.engine())
			if err != nil {
				return nil, err
			}
			return &state{eng: eng, caps: caps(ct.Flags, len(spans), true)}, nil
		},
	}
}

// spanCaps is the capability profile of a bzip2, LZ4 or zstd archive:
// Seek and Index always work; random access, parallel decode and
// prefetching need more than one span.
func spanCaps(multi, verify bool) Capabilities {
	return Capabilities{Seek: true, Index: true, RandomAccess: multi, Parallel: multi, Prefetch: multi, Verify: verify}
}

// --- the archive ---------------------------------------------------------

// archive is the one Archive implementation: the compressed source (a
// resident buffer for OpenBytes and WithInMemory, else an open file of
// which every decode preads only its span's extent), the sequential
// cursor, and the current state.
type archive struct {
	src        filereader.FileReader
	fileBacked bool
	owned      io.Closer // the file under src, closed with the archive (Open only)
	format     Format
	cfg        config // kept to build the next state on ImportIndex (same shared pool)
	backend

	// cur is the state reads go to. Every method loads it once and
	// finishes on what it loaded, whatever ImportIndex does meanwhile.
	cur atomic.Pointer[state]

	mu  sync.Mutex // the cursor: Read, Seek and WriteTo exclude each other
	pos int64

	swap sync.Mutex // ImportIndex and Close exclude each other
	// retired holds the states ImportIndex replaced. They stay open until
	// Close, so a read that loaded one finishes against a live engine.
	retired []*state
	closed  atomic.Bool // set under swap
}

var _ Archive = (*archive)(nil)

// live returns the current state, or ErrClosed after Close.
func (a *archive) live() (*state, error) {
	if a.closed.Load() {
		return nil, ErrClosed
	}
	return a.cur.Load(), nil
}

// fromIndexFile builds a state from the index file at path. Of a regular
// file the table is read, in at most two reads, its head and then the
// rest; a discovered one is refused at its head when that records
// another size or fingerprint than the source's, and the fingerprint
// taken for that check is the one the state is built with. Where the
// windows trail the table the state keeps the file open and reads each
// window on its first use: a file renamed over it meanwhile (an export,
// Create's sidecar) leaves the open one as it was. A window the file
// fails to give fails its span's reads with gzindex.ErrCorrupt, or, of a
// discovered file, is decoded again from the source. Anything else, a
// pipe say, is read as a stream.
func (a *archive) fromIndexFile(path string, discovered bool) (*state, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	keep := false
	defer func() {
		if !keep {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return a.fromIndex(bufio.NewReader(f))
	}
	cfg := a.cfg
	var check func(*gzindex.Index) error
	if discovered {
		// A discovered index is an optimisation down to its windows: one
		// its file fails to give is decoded again from the source.
		cfg.rebuildWindows = true
		check = func(h *gzindex.Index) error {
			size := a.src.Size()
			var fp gzindex.Fingerprint
			if h.CompressedSize == uint64(size) {
				// Only a file of the recorded size is worth fingerprinting.
				var err error
				if fp, err = gzindex.ComputeFingerprint(a.src, size); err != nil {
					return err
				}
				cfg.sourceFP = &fp
			}
			return h.CheckSource(size, fp)
		}
	}
	ix, err := gzindex.ReadAt(f, st.Size(), check)
	if err != nil {
		return nil, err
	}
	s, err := a.indexed(a.src, ix, cfg)
	if err == nil && ix.ReadsWindows() {
		s.indexFile, keep = f, true
	}
	return s, err
}

func (a *archive) fromIndex(rd io.Reader) (*state, error) {
	ix, err := gzindex.Read(rd)
	if err != nil {
		return nil, err
	}
	return a.indexed(a.src, ix, a.cfg)
}

func (a *archive) Read(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, err := a.live()
	if err != nil {
		return 0, err
	}
	n, err := st.eng.ReadAt(p, a.pos)
	a.pos += int64(n)
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, readErr(err)
}

// Seek only moves the cursor (§3.1: "A seek only updates the internal
// position"); decompression happens on the next Read.
func (a *archive) Seek(offset int64, whence int) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, err := a.live()
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = a.pos
	case io.SeekEnd:
		if base, err = st.eng.TotalSize(); err != nil {
			return 0, readErr(err)
		}
	default:
		return 0, fmt.Errorf("rapidgzip: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("rapidgzip: negative seek position %d", base+offset)
	}
	a.pos = base + offset
	return a.pos, nil
}

// ReadAt does not take the cursor's lock: the engine is concurrent-safe,
// and parallel callers at different offsets share its span cache — the
// access pattern of a mounted compressed TAR (§3).
func (a *archive) ReadAt(p []byte, off int64) (int, error) {
	st, err := a.live()
	if err != nil {
		return 0, err
	}
	n, err := st.eng.ReadAt(p, off)
	return n, readErr(err)
}

// WriteTo streams what lies between the cursor and the end — the fast
// path io.Copy takes for whole-file decompression. Parallelism comes from
// the engine: each span written feeds the prefetch strategy, so the spans
// ahead decode on the worker pool meanwhile.
func (a *archive) WriteTo(w io.Writer) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, err := a.live()
	if err != nil {
		return 0, err
	}
	a.AdviseSequentialRead()
	n, err := st.eng.WriteTo(w, a.pos)
	a.pos += n
	return n, readErr(err)
}

// WriteRangeTo writes the decompressed bytes [off, off+n), or those of
// them before the end of the stream, to w and returns how many it wrote.
// w gets the cached spans themselves, a Write per span. Like ReadAt it
// takes no cursor lock, so concurrent ranged writes of one archive do not
// wait for each other; ctx is checked before every span and while a
// decode another reader runs is waited for.
func (a *archive) WriteRangeTo(ctx context.Context, w io.Writer, off, n int64) (int64, error) {
	st, err := a.live()
	if err != nil {
		return 0, err
	}
	k, err := st.eng.WriteRangeTo(ctx, w, off, n)
	return k, readErr(err)
}

// AdviseSequentialRead hints the OS that the compressed file is about
// to be read front to back, so readahead widens. No-op for memory-backed
// archives and platforms without posix_fadvise.
func (a *archive) AdviseSequentialRead() {
	if a.fileBacked {
		filereader.AdviseSequential(a.src, 0, a.src.Size())
	}
}

func (a *archive) Size() (int64, error) {
	st, err := a.live()
	if err != nil {
		return 0, err
	}
	size, err := st.eng.TotalSize()
	return size, readErr(err)
}

func (a *archive) DecompressedSize() (int64, bool) {
	eng := a.cur.Load().eng
	if !eng.Complete() {
		return 0, false
	}
	return eng.Size(), true
}

func (a *archive) BuildIndex() error {
	st, err := a.live()
	if err != nil {
		return err
	}
	return readErr(st.eng.EnsureComplete())
}

func (a *archive) ExportIndex(w io.Writer) error {
	st, err := a.live()
	if err != nil {
		return err
	}
	if err := st.eng.EnsureComplete(); err != nil {
		return readErr(err)
	}
	var ix *gzindex.Index
	if c, ok := st.eng.Codec().(seekIndexer); ok {
		ix, err = c.SeekIndex()
	} else {
		ix, err = a.checkpointIndex(st.eng)
	}
	if err == nil {
		_, err = ix.WriteTo(w)
	}
	return readErr(err)
}

// seekIndexer is the codec of a format that keeps a seek-point index of
// its own, windows included (gzip/BGZF): an export writes it.
type seekIndexer interface {
	SeekIndex() (*gzindex.Index, error)
}

// checkpointIndex is what an export of the other formats writes: eng's
// span table, under the source's size and fingerprint.
func (a *archive) checkpointIndex(eng *spanengine.Engine) (*gzindex.Index, error) {
	fp, err := gzindex.ComputeFingerprint(a.src, a.src.Size())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", filereader.ErrIO, err)
	}
	ix := gzindex.New(0)
	ix.Finalized = true
	ix.CompressedSize = uint64(a.src.Size())
	ix.UncompressedSize = uint64(eng.Size())
	ix.SourceFP = &fp
	ix.Checkpoints = eng.CheckpointTable()
	return ix, nil
}

func (a *archive) ImportIndex(rd io.Reader) error {
	if _, err := a.live(); err != nil {
		return err
	}
	st, err := a.fromIndex(rd)
	if err != nil {
		return sourceErr(err)
	}
	a.swap.Lock()
	defer a.swap.Unlock()
	if a.closed.Load() {
		st.close()
		return ErrClosed
	}
	a.retired = append(a.retired, a.cur.Swap(st))
	return nil
}

func (a *archive) Stats() Stats { return a.cur.Load().eng.Stats() }

func (a *archive) Format() Format { return a.format }

func (a *archive) Capabilities() Capabilities { return a.cur.Load().caps }

// CRCVerified reports whether checksum verification is intact and how
// many mismatches were seen. For gzip/BGZF opened WithVerify that is the
// member-CRC chain of sequential consumption: (false, 0) once reads leave
// stream order (verification is then skipped, not failed), and a mismatch
// seen before an ImportIndex still counts after it. bzip2, LZ4 and zstd
// verify inside every decode and fail the read on a mismatch, so for them
// the answer is whether the file carries checksums at all: an LZ4 or zstd
// frame with a content checksum is verified before any of its bytes is
// served; one without goes out block by block, an LZ4 block's checksum
// checked before its bytes.
func (a *archive) CRCVerified() (bool, uint64) {
	a.swap.Lock()
	defer a.swap.Unlock()
	st := a.cur.Load()
	c, ok := st.eng.Codec().(crcChain)
	if !ok {
		return st.caps.Verify, 0
	}
	intact, fails := c.CRCStatus()
	for _, old := range a.retired {
		_, f := old.eng.Codec().(crcChain).CRCStatus()
		fails += f
	}
	return intact && fails == 0, fails
}

// crcChain is the codec of a format that verifies checksums as reads
// consume its spans in order (gzip/BGZF), not inside every decode.
type crcChain interface {
	CRCStatus() (intact bool, failures uint64)
}

// Close releases every engine the archive built, each with the index
// file it reads windows from, and then the file. Reads still running
// return their bytes or ErrClosed. A state ImportIndex replaced keeps its
// index file until here, as it keeps its engine: a read that loaded it
// may still need a window.
func (a *archive) Close() error {
	a.swap.Lock()
	defer a.swap.Unlock()
	if a.closed.Swap(true) {
		return nil
	}
	err := a.cur.Load().close()
	for _, st := range a.retired {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}
	a.retired = nil
	// The compressed file outlives every engine (Close waited for their
	// decodes), so it closes last.
	if a.owned != nil {
		if cerr := a.owned.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
