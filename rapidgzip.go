// Package rapidgzip provides parallel decompression of, and constant-
// time random access ("seeking") into, compressed files — gzip first
// and foremost, plus BGZF, bzip2, LZ4 and Zstandard instantiations of
// the same cache-plus-prefetch chunk-fetcher architecture (all five
// formats run on one engine, internal/spanengine; gzip adds its
// speculative chunk pipeline as a codec on top).
//
// It is a from-scratch Go reproduction of the system described in
// "Rapidgzip: Parallel Decompression and Seeking in Gzip Files Using
// Cache Prefetching" (Knespel & Brunst, HPDC 2023): the compressed file
// is split into chunks, a false-positive-tolerant block finder locates
// Deflate block candidates inside each chunk, worker goroutines decode
// the chunks speculatively into a 16-bit intermediate format whose
// marker symbols stand in for the unknown 32 KiB LZ window, and a
// cache-plus-prefetcher architecture stitches the speculative results
// back into the exact decompressed stream — falling back to an
// on-demand decode whenever a speculative result turns out to have
// started at a false positive.
//
// Basic usage — Open sniffs the format from the content, so the same
// call handles gzip, BGZF, bzip2, LZ4 and zstd:
//
//	f, err := rapidgzip.Open("big.tar.gz")
//	if err != nil { ... }
//	defer f.Close()
//	io.Copy(dst, f) // decompresses on all cores
//
// A seek-point index is built on the fly. Once present (or imported
// from a previous run — a sibling "big.tar.gz.rgzidx" is picked up
// automatically), any offset of the decompressed stream is reachable
// in constant time:
//
//	f.Seek(1<<40, io.SeekStart)
//	f.Read(buf)
//
// Formats differ in what they can do; Capabilities reports it:
//
//	if f.Capabilities().RandomAccess { ... }
//
// Open takes functional options (WithParallelism, WithChunkSize,
// WithVerify, WithStrategy, WithFormat, WithIndexFile, ...). The
// legacy Options struct and its constructors remain for existing call
// sites.
package rapidgzip

import (
	"io"
	"io/fs"
	"os"

	"repro/internal/core"
	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/tarfs"
)

// Stats counts backend activity. Every format runs on the shared span
// engine, so the sizing/span/prefetch/source-read counters are live for
// all of them; the speculative-decode counters on top are specific to
// the gzip/BGZF chunk pipeline (the only format whose chunk boundaries
// must be guessed). Zeros mean the machinery genuinely never ran — an
// index import is visible as FinderProbes == 0 (gzip/BGZF) or
// SizingPasses == 0 (every format).
type Stats struct {
	// --- gzip/BGZF chunk pipeline ------------------------------------
	GuessTasks       uint64
	GuessNoBlock     uint64
	GuessFalseStarts uint64
	// FinderProbes counts block-finder candidate probes across all
	// speculative tasks. It stays exactly zero when a complete index
	// was imported: known chunk offsets make the finder unnecessary.
	FinderProbes    uint64
	OnDemandDecodes uint64
	IndexedDecodes  uint64
	ChunksConsumed  uint64
	CRCFailures     uint64

	// --- span engine (all formats) -----------------------------------
	// SizingPasses counts codec sizing scans (0 after an index import,
	// 1 after a cold open — a header or magic scan that decodes nothing;
	// for gzip, bzip2 and unsized zstd the span table then grows as the
	// file is first read, for BGZF it is the member-metadata scan).
	SizingPasses uint64
	// SpanDecodes counts span decodes started from a seek point after
	// construction, on-demand and prefetched alike, including the first
	// decode of a bzip2 stream or unsized zstd frame, which also sizes
	// it. A read through a gzip index decodes as far into the span as it
	// reaches and parks the rest; SpanResumes counts the decodes that
	// continued a parked one.
	SpanDecodes, SpanResumes uint64
	// DecodedBytes counts the bytes span decodes wrote — from a seek
	// point, resumed, prefetched, or resolving a freshly confirmed gzip
	// chunk. Over the bytes a workload was delivered it is the decoding
	// a read costs.
	DecodedBytes uint64
	// PrefetchProposed counts strategy proposals before filtering
	// (deterministic per access sequence); PrefetchIssued counts
	// speculative span decodes actually dispatched; PrefetchJoined
	// counts accesses that joined one instead of decoding.
	PrefetchProposed, PrefetchIssued, PrefetchJoined uint64
	// PrefetchUnused counts prefetched spans that left the cache
	// (evicted, overwritten, or dropped at Close) without any reader
	// having got them: against PrefetchIssued, the speculation wasted.
	PrefetchUnused uint64
	// DemandJoined counts accesses that joined another reader's
	// on-demand decode of the same span instead of decoding it again.
	DemandJoined uint64
	// SpanCacheHits / SpanCacheMisses / SpanCacheEvictions mirror the
	// engine's span cache.
	SpanCacheHits, SpanCacheMisses, SpanCacheEvictions uint64
	// SourceReads counts positional reads the span engine issued
	// against the compressed source (sizing-pass windows and span-
	// extent preads alike), and SourceBytesRead the bytes they
	// returned. For a file-backed archive these bound the compressed
	// bytes ever made resident: SourceBytesRead staying far below the
	// file size on a random-access workload is the larger-than-RAM
	// property, measured. Memory-backed archives count one logical
	// read per zero-copy span extent.
	SourceReads, SourceBytesRead uint64
}

// coreStats maps the gzip fetcher's counters into the public Stats.
func coreStats(s core.FetcherStats) Stats {
	return Stats{
		GuessTasks:       s.GuessTasks,
		GuessNoBlock:     s.GuessNoBlock,
		GuessFalseStarts: s.GuessFalseStarts,
		FinderProbes:     s.FinderProbes,
		OnDemandDecodes:  s.OnDemandDecodes,
		IndexedDecodes:   s.IndexedDecodes,
		ChunksConsumed:   s.ChunksConsumed,
		CRCFailures:      s.CRCFailures,
	}
}

// setEngine fills in the span-engine half of s.
func (s *Stats) setEngine(e spanengine.Stats) {
	s.SizingPasses = e.SizingPasses
	s.SpanDecodes = e.SpanDecodes
	s.SpanResumes = e.SpanResumes
	s.DecodedBytes = e.DecodedBytes
	s.PrefetchProposed = e.PrefetchProposed
	s.PrefetchIssued = e.PrefetchIssued
	s.PrefetchJoined = e.PrefetchJoined
	s.PrefetchUnused = e.PrefetchUnused
	s.DemandJoined = e.DemandJoined
	s.SpanCacheHits = e.CacheHits
	s.SpanCacheMisses = e.CacheMisses
	s.SpanCacheEvictions = e.Evictions
	s.SourceReads = e.SourceReads
	s.SourceBytesRead = e.SourceBytesRead
}

// engineStats maps a span engine's counters into the public Stats.
func engineStats(e spanengine.Stats) Stats {
	var s Stats
	s.setEngine(e)
	return s
}

// Reader decompresses a gzip (or BGZF) file in parallel. It implements
// Archive; all methods are safe for concurrent use.
type Reader struct {
	pr         *core.ParallelGzipReader
	format     Format
	fileBacked bool      // false when the source is a resident buffer (WithInMemory, OpenBytes)
	owned      io.Closer // closed together with the reader, if non-nil
}

// OpenOptions opens the gzip file at path with explicit legacy
// options. Unlike Open it never sniffs for other formats and never
// auto-discovers a sibling index.
//
// Deprecated: use Open with functional options — e.g.
// Open(path, WithFormat(FormatGzip), WithParallelism(n)) — which adds
// format sniffing, index auto-discovery, and the typed error
// contract. See the README migration table.
func OpenOptions(path string, opts Options) (*Reader, error) {
	src, err := filereader.OpenFile(path)
	if err != nil {
		return nil, err
	}
	r, err := newGzipReader(src, opts)
	if err != nil {
		src.Close()
		return nil, err
	}
	r.owned = src
	return r, nil
}

// OpenWithIndex opens the gzip file at path and imports the seek-point
// index previously saved at indexPath by ExportIndex. The reader is
// fully indexed from the start: every Seek/ReadAt is constant-time, the
// block finder never runs, and decompression is served chunk-exact from
// the recorded offsets and windows — the paper's "(index)" mode.
//
// Deprecated: use Open(path, WithIndexFile(indexPath)), which does the
// same import for every format (checkpoint tables included) and
// reports failures with the typed error contract. See the README
// migration table.
func OpenWithIndex(path, indexPath string, opts Options) (*Reader, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	src, err := filereader.OpenFile(path)
	if err != nil {
		return nil, err
	}
	r, err := importIndexReader(src, cfg, indexPath, sniffGzipFormat(src))
	if err != nil {
		src.Close()
		return nil, err
	}
	r.owned = src
	return r, nil
}

// NewReaderWithIndex wraps an open *os.File and imports a serialised
// seek-point index from index; exactly the index bytes are consumed
// from it. The gzip file must stay open for the lifetime of the
// Reader; Close does not close it. The index must have been exported
// for the same compressed file: corrupt indexes and wrong-file imports
// are rejected up front — the index header carries the compressed size
// and a head/tail fingerprint of the source file, so even an index for
// a different file of identical length is refused at import.
func NewReaderWithIndex(f *os.File, index io.Reader, opts Options) (*Reader, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	src, err := filereader.NewStandardFileReader(f)
	if err != nil {
		return nil, err
	}
	cfg.SkipMetadataScan = true
	pr, err := core.NewReader(src, cfg)
	if err != nil {
		return nil, err
	}
	r := &Reader{pr: pr, format: sniffGzipFormat(src)}
	if err := r.ImportIndex(index); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// NewReader wraps an open *os.File.  The file must stay open for the
// lifetime of the Reader; Close does not close it.
func NewReader(f *os.File, opts Options) (*Reader, error) {
	src, err := filereader.NewStandardFileReader(f)
	if err != nil {
		return nil, err
	}
	return newGzipReader(src, opts)
}

// NewBytesReader decompresses an in-memory gzip buffer.
func NewBytesReader(data []byte, opts Options) (*Reader, error) {
	return newGzipReader(filereader.MemoryReader(data), opts)
}

// newGzipReader is the common legacy-constructor tail: resolve the
// options and stand up the parallel gzip core over src.
func newGzipReader(src filereader.FileReader, opts Options) (*Reader, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	pr, err := core.NewReader(src, cfg)
	if err != nil {
		return nil, err
	}
	_, mem := filereader.Bytes(src)
	return &Reader{pr: pr, format: sniffGzipFormat(src), fileBacked: !mem}, nil
}

// sniffGzipFormat distinguishes BGZF from plain gzip for Format
// reporting. Anything else would have failed gzip header parsing, so
// unknown sniffs default to FormatGzip.
func sniffGzipFormat(src filereader.FileReader) Format {
	prefix := make([]byte, SniffLen)
	n, _ := src.ReadAt(prefix, 0)
	if f := DetectFormat(prefix[:n]); f == FormatBGZF {
		return FormatBGZF
	}
	return FormatGzip
}

// Read implements io.Reader on the decompressed stream.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.pr.Read(p)
	return n, closedErr(err)
}

// Seek implements io.Seeker on the decompressed stream. Seeking is
// cheap: it only moves the cursor; decompression happens on the next
// Read. io.SeekEnd completes the initial scan first, because the
// decompressed size of a gzip file is only known after scanning it.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	return r.pr.Seek(offset, whence)
}

// ReadAt implements io.ReaderAt without disturbing the Read cursor.
// Concurrent ReadAt calls at different offsets share the chunk caches —
// the access pattern of a mounted gzip-compressed TAR.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.pr.ReadAt(p, off)
	return n, closedErr(err)
}

// WriteTo implements io.WriterTo: the fast path for whole-file
// decompression used by io.Copy.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	if r.fileBacked {
		// Whole-file decompression reads the compressed source front to
		// back; hint the kernel so readahead widens.
		r.pr.AdviseSequential()
	}
	n, err := r.pr.WriteTo(w)
	return n, closedErr(err)
}

// Size returns the decompressed size, scanning the remainder of the
// file if it has not been fully indexed yet.
func (r *Reader) Size() (int64, error) { return r.pr.Size() }

// DecompressedSize implements Archive: the size is known without
// decoding once the chunk table is complete — after an index import, a
// BGZF metadata scan, or a finished first pass. Before that it reports
// ok=false rather than trigger the scan Size would run.
func (r *Reader) DecompressedSize() (int64, bool) { return r.pr.KnownSize() }

// AdviseSequentialRead hints the OS that the compressed file is about
// to be read front to back. No-op for memory-backed readers and
// platforms without posix_fadvise.
func (r *Reader) AdviseSequentialRead() {
	if r.fileBacked {
		r.pr.AdviseSequential()
	}
}

// Close releases the worker pool (and the file, for readers created
// with Open). Outstanding calls must have returned.
func (r *Reader) Close() error {
	err := r.pr.Close()
	if r.owned != nil {
		if cerr := r.owned.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// BuildIndex completes the seek-point index for the whole file, making
// every subsequent Seek/ReadAt constant-time.
func (r *Reader) BuildIndex() error { return r.pr.BuildIndex() }

// ExportIndex serialises the seek-point index to w (completing it
// first if necessary). A later run can ImportIndex it to skip the
// initial decompression pass entirely — the paper's "(index)" mode,
// which is both faster and perfectly load-balanced.
func (r *Reader) ExportIndex(w io.Writer) error { return r.pr.ExportIndex(w) }

// ImportIndex installs an index previously written by ExportIndex.
// The index must belong to the same compressed file (enforced via the
// compressed size and the source fingerprint stored in the index).
func (r *Reader) ImportIndex(rd io.Reader) error { return r.pr.ImportIndex(rd) }

// Stats returns a snapshot of backend activity counters. Since the
// gzip/BGZF pipeline runs on the shared span engine, both counter
// groups are live: the chunk-pipeline counters (speculation, block
// finding, delegation) come from the fetcher, the cache/prefetch/
// source-read counters from the engine underneath it.
func (r *Reader) Stats() Stats {
	s := coreStats(r.pr.FetcherStats())
	s.setEngine(r.pr.EngineStats())
	return s
}

// Format reports the container format this reader decodes (FormatGzip
// or FormatBGZF).
func (r *Reader) Format() Format { return r.format }

// Capabilities reports the gzip backend's full feature set: seekable,
// constant-time random access once indexed, parallel decompression
// with strategy-driven prefetching, index export/import, and opt-in
// CRC verification.
func (r *Reader) Capabilities() Capabilities {
	return Capabilities{Seek: true, RandomAccess: true, Parallel: true, Index: true, Verify: true, Prefetch: true}
}

// CRCVerified reports whether sequential CRC verification is still
// intact and how many mismatches were seen. It returns (false, 0) once
// consumption leaves sequential order (verification is then skipped,
// not failed). Requires Options.VerifyChecksums / WithVerify.
func (r *Reader) CRCVerified() (bool, uint64) { return r.pr.CRCStatus() }

// TarFS interprets the decompressed stream as a TAR archive and returns
// a read-only filesystem over its members — the ratarmount use case the
// paper describes (§1.3): after the initial scan, opening any member of
// a multi-gigabyte .tar.gz costs an index lookup plus decompression of
// the touched chunks only. The returned fs.FS also implements
// fs.ReadDirFS and fs.StatFS, so it works with fs.WalkDir and
// http.FileServerFS.
func (r *Reader) TarFS() (fs.FS, error) { return TarFS(r) }

// TarFS interprets any Archive's decompressed stream as a TAR archive
// and returns a read-only filesystem over its members. It works for
// every format Open handles — a .tar.bz2 or .tar.lz4 serves files the
// same way a .tar.gz does, at whatever random-access granularity the
// format's Capabilities admit.
func TarFS(a Archive) (fs.FS, error) { return tarfs.Open(a) }

// WriteTar streams src into w as a TAR archive — the write-side
// complement of TarFS. Pointed at a Writer from Create or NewWriter it
// produces a .tar.gz / .tar.zst whose members TarFS later serves with
// random access:
//
//	w, _ := rapidgzip.Create("backup.tar.gz")
//	rapidgzip.WriteTar(w, os.DirFS("/data"))
//	w.Close()
//
// WriteTar does not close w; call w.Close to finalize the archive and
// its index sidecar.
func WriteTar(w io.Writer, src fs.FS) error { return tarfs.Create(w, src) }
