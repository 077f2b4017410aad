// Package core implements the paper's primary contribution: parallel
// decompression of, and constant-time seeking in, arbitrary gzip files
// via a cache-and-parallel-prefetch chunk architecture (paper §3,
// Figures 4 and 5).
//
// The chunk table, the caches, the prefetch pipeline and the speculation
// past the frontier live in internal/spanengine — the same engine that
// serves bzip2, LZ4 and zstd. This package contributes what is gzip's
// alone: the codec (codec.go) — what a guess at a grid cell decodes
// (block finder plus two-stage decode), and the confirmation of one
// decode unit at a time at the exact frontier offset, which makes the
// whole design robust against block-finder false positives: a misguided
// speculative result simply never matches a requested key and ages out
// of the engine's tentative store (§3: "Robustness against false
// positives results from the cache acting as an intermediary with the
// offset as key") — and Reader, which owns one codec, the window index it
// builds or was given, and the engine over them. A Reader has no cursor
// and no Read: positions are the caller's (the root package's archive
// keeps the one there is), reads go to Engine().
//
// One table. The seek-point index (gzindex) is the codec's only
// description of its spans, keyed by exact bit offsets as the paper keys
// its chunks: span i of the engine's table is point i, it ends at point
// i+1 or, for the last point, at the frontier (the end of the file once
// the file is confirmed), and its member marks are the point's. The
// engine's spans carry byte extents and sizes for the engine alone; the
// codec finds a span's point by its decompressed offset. A unit the
// frontier confirms adds its points, windows, marks and spans at once,
// or nothing, and an export writes the index as it stands, with no
// second copy of the table.
//
// Buffer ownership. A chunk result's Marked and Raw are scratch from
// deflate's free lists, and a result has one owner at a time: the guess
// that decodes it, then the engine's tentative store it is parked in,
// then the GrowNext call the engine hands it to at the frontier. GrowNext
// reads it serially (window propagation and split-point windows, which
// are copies) and passes it to the unit's resolution tasks, one per span;
// each writes its span into a buffer of its own, and the task that
// finishes last calls Release — the only call there is. Whatever
// outlives that point (span contents, index windows, the frontier
// window) is therefore a copy, never a slice of the result. A result
// that is never confirmed — evicted from the tentative store, started at
// a block the frontier never asks for, still parked at Close — is never
// released either and falls to the collector.
package core

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/filereader"
	"repro/internal/gzformat"
	"repro/internal/gzindex"
	"repro/internal/spanengine"
)

// Config tunes a Reader.
type Config struct {
	// Parallelism is the worker count (values < 1 are clamped to 1). It
	// sizes the engine too, see engine.
	Parallelism int
	// ChunkSize is the compressed bytes per work unit (paper default
	// 4 MiB; Figure 12 sweeps this parameter).
	ChunkSize int
	// VerifyChecksums enables gzip CRC32 verification during sequential
	// consumption, combined across chunks with crc32x — the checksum
	// support the paper lists as future work (§6).
	VerifyChecksums bool
	// SkipMetadataScan suppresses the eager BGZF member-metadata scan
	// in NewReader, for a caller about to ImportIndex in place (which
	// replaces the table anyway); without an import the file is simply
	// handled by the generic, slower path. NewReaderFromIndex never
	// scans.
	SkipMetadataScan bool
	// Pool, when non-nil, places the chunk cache in a shared
	// cross-engine pool: cached decompressed bytes are bounded
	// pool-wide instead of a span count per reader.
	Pool *spanengine.CachePool
	// SourceFP, when non-nil, is the fingerprint of the source, already
	// taken by the caller; the reader takes it otherwise.
	SourceFP *gzindex.Fingerprint
	// RebuildWindows has a reader built from an index decode a window
	// again from the compressed file where the index file it is read
	// from fails to give it — cut short, rewritten, or a byte of it
	// changed — instead of failing the span's reads with
	// gzindex.ErrCorrupt. The rebuild decodes the spans before the point
	// back to the nearest sound window, one after another.
	RebuildWindows bool
}

// guessedRatioLimit aborts a speculative chunk decode whose output
// exceeds this multiple of the chunk size; the on-demand exact decode
// (unlimited) remains correct. This is the §1.4 mitigation for
// worst-case memory usage.
const guessedRatioLimit = 256

func (c Config) withDefaults() Config {
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4 << 20
	}
	return c
}

// maxPrefetch bounds the speculative decodes in flight: block-finder
// guesses ahead of the frontier, and prefetched spans. The paper holds
// 2x parallelism; this implementation holds 4x because its consumer does
// more per-chunk work (window copies into the index, CRC bookkeeping)
// and a deeper pipeline hides the resulting bubbles. Memory stays
// bounded by maxPrefetch * chunk output.
func (c Config) maxPrefetch() int { return 4 * c.Parallelism }

// engine sizes an engine under this reader. Confirmed chunks wait in the
// span cache until consumption, so it is sized like the prefetch window
// and none are evicted in flight: 2P + 4 spans, and the growing engine
// parks up to twice maxPrefetch guesses in its tentative store. A BGZF
// file scanned cold is exact spans, every prefetch a span of the table,
// and takes the size that holds a sequential pass of such a table
// (spanengine.Config's default rule): the prefetch depth plus the span
// being read and the one being handed over.
func (c Config) engine(coldBGZF bool) spanengine.Config {
	ec := spanengine.Config{
		Threads:     c.Parallelism,
		CacheSize:   2*c.Parallelism + 4,
		MaxPrefetch: c.maxPrefetch(),
		Pool:        c.Pool,
	}
	if coldBGZF {
		ec.CacheSize = ec.MaxPrefetch + 2
	}
	return ec
}

// errNoBlock marks a grid cell that contains no usable block start.
var errNoBlock = errors.New("core: no deflate block found in chunk")

// counters holds the gzip activity counters. They are bumped from
// worker goroutines and the consumer alike, so every field is atomic;
// the struct is owned by the Reader and outlives an in-place index
// import, which replaces codec and engine, not the statistics.
type counters struct {
	guessTasks       atomic.Uint64
	guessNoBlock     atomic.Uint64
	guessFalseStarts atomic.Uint64
	finderProbes     atomic.Uint64
	finderBytes      atomic.Uint64
	onDemand         atomic.Uint64
	indexed          atomic.Uint64
	consumed         atomic.Uint64
	crcFailures      atomic.Uint64
	maxPastStop      atomic.Uint64 // written by GrowNext only, which is serialised
}

// Stats counts the chunk pipeline's activity — what the engine's own
// counters (Engine().Stats()) do not know about.
type Stats struct {
	GuessTasks       uint64
	GuessNoBlock     uint64
	GuessFalseStarts uint64 // speculative results that never matched
	// FinderProbes counts block-finder candidate probes across all
	// speculative tasks. It stays exactly zero when a complete index
	// was imported: known chunk offsets make the finder unnecessary.
	FinderProbes uint64
	// FinderBytes counts the compressed bytes the block finder scanned
	// (see the root package's Stats).
	FinderBytes uint64
	// OnDemandDecodes counts frontier cells decoded without a guess (see
	// the root package's Stats).
	OnDemandDecodes uint64
	IndexedDecodes  uint64
	ChunksConsumed  uint64
	CRCFailures     uint64
	// MaxPastStop is the most compressed bytes a confirmed unit reached
	// past the end of the cell it began in: a block's worth on an
	// ordinary file, and a frontier decode pauses inside a block about
	// half a cell past it.
	MaxPastStop uint64
}

// Reader is the GzipChunkFetcher: the gzip codec, the seek-point index
// with its windows, and the span engine they drive. All methods but
// ImportIndex are safe for concurrent use — the engine serialises its
// own state, the codec its own.
type Reader struct {
	cfg  Config
	file *filereader.SharedFileReader
	bgzf bool
	cnt  counters
	// sourceFP is the fingerprint of the open file, computed once at
	// construction; exported indexes carry it and imports are checked
	// against it.
	sourceFP gzindex.Fingerprint
	codec    *gzipCodec
	eng      *spanengine.Engine
}

// newReader is what both constructors start with: the fingerprint and
// the first gzip header, validated eagerly.
func newReader(src filereader.FileReader, cfg Config) (*Reader, error) {
	size := src.Size()
	// Open-time setup reads the raw source before the counting wrapper
	// goes on: SourceReads then reports decode traffic only, so a reopen
	// from a persisted index performs zero counted reads before the
	// first access.
	fp, err := sourceFingerprint(src, cfg.SourceFP)
	if err != nil {
		// Fingerprinting only reads bytes, so any failure here is a
		// source I/O problem (a directory opened as a file, a file that
		// shrank under us) — never a format verdict. Tagging it ErrIO
		// lets the public layer classify it as ErrSourceRead.
		return nil, fmt.Errorf("core: %w: %w", filereader.ErrIO, err)
	}
	hdr, err := gzformat.ParseHeader(bitio.NewBitReader(src, size))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r := &Reader{cfg: cfg.withDefaults(), sourceFP: fp, bgzf: hdr.BGZFBlockSize > 0}
	if shared, ok := src.(*filereader.SharedFileReader); ok {
		r.file = shared
	} else {
		r.file = filereader.NewShared(src)
	}
	return r, nil
}

// sourceFingerprint is known when non-nil, else the fingerprint of src.
func sourceFingerprint(src filereader.FileReader, known *gzindex.Fingerprint) (gzindex.Fingerprint, error) {
	if known != nil {
		return *known, nil
	}
	return gzindex.ComputeFingerprint(src, src.Size())
}

// NewReader opens a gzip file cold. BGZF files take the metadata fast
// path of §3.4.4 (a complete-table engine); everything else runs the
// growing engine, whose span table extends one confirmed decode unit at
// a time. So does a BGZF file whose member chain breaks at a size field
// that does not lead to the next member; one that the chain shows cut
// short, or with a member header damaged, is refused (bgzfRefused).
func NewReader(src filereader.FileReader, cfg Config) (*Reader, error) {
	r, err := newReader(src, cfg)
	if err != nil {
		return nil, err
	}
	if r.bgzf && !cfg.SkipMetadataScan {
		r.eng, err = spanengine.New(r.file, r.coldCodec(), r.cfg.engine(true))
		if err != nil && r.codec.bgzfRefused(err) {
			return nil, err
		}
	}
	if r.eng == nil {
		r.eng, err = spanengine.NewGrowing(r.file, r.coldCodec(), 0, r.cfg.engine(false))
		if err != nil {
			return nil, err
		}
	}
	r.codec.chainEmpty()
	return r, nil
}

// coldCodec makes r's codec a new one with an empty index, and returns it.
func (r *Reader) coldCodec() *gzipCodec {
	r.codec = newGzipCodec(r.cfg, r.file, &r.cnt, r.bgzf)
	r.codec.index.CompressedSize = uint64(r.file.Size())
	r.codec.index.SourceFP = &r.sourceFP
	// First-pass confirmation observes every footer, so the index it
	// builds carries the complete set of member marks.
	r.codec.index.MemberMarksComplete = true
	return r.codec
}

// NewReaderFromIndex opens a gzip file through a finalized index of it,
// skipping the initial decompression pass entirely (§1.3: "The seek
// point index can be exported and imported ... to avoid the
// decompression time for the initial decompression pass"): nothing is
// scanned, the block finder never runs, and every span decodes from its
// recorded offset and window. The reader keeps ix.
func NewReaderFromIndex(src filereader.FileReader, ix *gzindex.Index, cfg Config) (*Reader, error) {
	r, err := newReader(src, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.install(ix); err != nil {
		return nil, err
	}
	return r, nil
}

// install builds a codec and an engine from ix and makes them r's. On
// an error r is as it was.
func (r *Reader) install(ix *gzindex.Index) error {
	if ix.Len() == 0 {
		return errors.New("core: empty index")
	}
	if err := ix.CheckSource(r.file.Size(), r.sourceFP, "gzip", "bgzf"); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Every writer records where each member ends, which is what member
	// verification after an import stands on.
	if !ix.MemberMarksComplete {
		return fmt.Errorf("core: %w: gzip index without complete member marks; re-export it", gzindex.ErrUnsupportedVersion)
	}
	// A last point that covers no bytes (the EOF member alone, as BGZF
	// sidecars of earlier versions record it) joins the one before it,
	// member marks included: no span is empty but an empty file's.
	if n := ix.Len(); n > 1 && ix.Point(n-1).UncompressedOffset == ix.UncompressedSize {
		last, prev := ix.Point(n-1), ix.Point(n-2)
		marks := ix.MemberEnds(last.CompressedBitOffset)
		ix.Truncate(n - 1)
		for _, m := range marks {
			m.RelEnd += last.UncompressedOffset - prev.UncompressedOffset
			ix.AddMemberEnd(prev.CompressedBitOffset, m)
		}
	}
	// The points are the span table; a checkpoint section that older
	// exports carry repeats it and is dropped.
	ix.Checkpoints = nil
	c := newGzipCodec(r.cfg, r.file, &r.cnt, r.bgzf)
	c.index = ix
	c.eof = true
	c.frontierBit = ix.CompressedSize * 8
	c.frontierDecomp = ix.UncompressedSize
	// Sequential verification starts over under the new table — unless a
	// mismatch was already detected: an import must not launder a stream
	// that has failed verification.
	c.crcBroken = r.cnt.crcFailures.Load() > 0

	spans := make([]spanengine.Span, ix.Len())
	for i := range spans {
		p, next, _ := c.spanLocked(i)
		spans[i] = engineSpan(p, next)
	}
	eng, err := spanengine.NewFromCheckpoints(r.file, c, spans, 0, r.cfg.engine(false))
	if err != nil {
		return err
	}
	c.chainEmpty()
	r.codec, r.eng = c, eng
	return nil
}

// Engine returns the span engine: ReadAt, WriteTo, the table and its
// growth, the cache and prefetch counters.
func (r *Reader) Engine() *spanengine.Engine { return r.eng }

// Close shuts the engine's worker pool down.
func (r *Reader) Close() error { return r.eng.Close() }

// WriteTo streams the whole decompressed file, from its first byte,
// into w.
func (r *Reader) WriteTo(w io.Writer) (int64, error) { return r.eng.WriteTo(w, 0) }

// ExportIndex serialises the index, completed first, to w. Concurrent
// exports share it: nothing writes an index once it is complete. With
// Config.RebuildWindows, a window the index file no longer gives is
// decoded again first.
func (r *Reader) ExportIndex(w io.Writer) error {
	if err := r.eng.EnsureComplete(); err != nil {
		return err
	}
	if err := r.codec.rebuildWindows(); err != nil {
		return err
	}
	_, err := r.Index().WriteTo(w)
	return err
}

// ImportIndex is NewReaderFromIndex in place: r's codec and engine are
// replaced by ones built from the index read from rd, the old engine is
// closed, the activity counters carry on. It must not run concurrently
// with any other method — the root package never calls it; an archive
// there builds a second Reader and retires the first, so that reads in
// flight finish on the engine they started on. It survives for callers
// that hold a Reader directly and import once before reading
// (bench/layers.go). The deserializer consumes exactly the index bytes,
// a varint at a time: pass a buffered reader if rd holds nothing else.
func (r *Reader) ImportIndex(rd io.Reader) error {
	ix, err := gzindex.Read(rd)
	if err != nil {
		return err
	}
	old := r.eng
	if err := r.install(ix); err != nil {
		return err
	}
	return old.Close()
}

// Index exposes the index built so far (read-only use).
func (r *Reader) Index() *gzindex.Index {
	r.codec.mu.Lock()
	defer r.codec.mu.Unlock()
	return r.codec.index
}

// CRCStatus reports (verifiedSoFar, failures). verifiedSoFar is false
// once consumption left sequential order or a mismatch occurred.
func (r *Reader) CRCStatus() (bool, uint64) { return r.codec.crcStatus() }

// Stats returns the chunk pipeline's activity counters.
func (r *Reader) Stats() Stats {
	return Stats{
		GuessTasks:       r.cnt.guessTasks.Load(),
		GuessNoBlock:     r.cnt.guessNoBlock.Load(),
		GuessFalseStarts: r.cnt.guessFalseStarts.Load(),
		FinderProbes:     r.cnt.finderProbes.Load(),
		FinderBytes:      r.cnt.finderBytes.Load(),
		OnDemandDecodes:  r.cnt.onDemand.Load(),
		IndexedDecodes:   r.cnt.indexed.Load(),
		ChunksConsumed:   r.cnt.consumed.Load(),
		CRCFailures:      r.cnt.crcFailures.Load(),
		MaxPastStop:      r.cnt.maxPastStop.Load(),
	}
}
