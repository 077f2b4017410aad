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
// offset as key") — the window index it builds or is given, the CRC
// chain and the speculation counters, and two constructors shaped like
// spanengine's own, which return the engine over a new codec: New, cold,
// and NewFromIndex. What gzip has beyond a span table is reached through
// the codec's optional interfaces (Engine.Codec): the seek-point index
// (SeekIndex), the CRC status (CRCStatus) and the counters, which
// Engine.Stats reports (spanengine.Counter).
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

// Config tunes the engines New and NewFromIndex build.
type Config struct {
	// Parallelism is the worker count (values < 1 are clamped to 1),
	// from which spanengine sizes the engine as it does every other.
	Parallelism int
	// ChunkSize has two meanings (paper default 4 MiB; Figure 12 sweeps
	// this parameter): the compressed bytes of one speculative cell
	// (chunkBits), the grid guesses and frontier units are laid on, and
	// the decompressed bytes a span is cut to, by splitPoints inside a
	// unit and by gzindex.AddMember grouping BGZF members.
	ChunkSize int
	// VerifyChecksums enables gzip CRC32 verification during sequential
	// consumption, combined across chunks with crc32x — the checksum
	// support the paper lists as future work (§6).
	VerifyChecksums bool
	// SkipMetadataScan suppresses the eager BGZF member-metadata scan
	// in New, for a Reader about to ImportIndex (which replaces the
	// table anyway); without an import the file is simply handled by the
	// generic, slower path. NewFromIndex never scans.
	SkipMetadataScan bool
	// Pool, when non-nil, places the chunk cache in a shared
	// cross-engine pool: cached decompressed bytes are bounded
	// pool-wide instead of a span count per reader.
	Pool *spanengine.CachePool
	// SourceFP, when non-nil, is the fingerprint of the source, already
	// taken by the caller; the constructors take it otherwise.
	SourceFP *gzindex.Fingerprint
	// RebuildWindows has an engine built from an index decode a window
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

// errNoBlock marks a grid cell that contains no usable block start.
var errNoBlock = errors.New("core: no deflate block found in chunk")

// counters holds the gzip activity counters, which Count reports. They
// are bumped from worker goroutines and the consumer alike, so every
// field is atomic.
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
	trailing         atomic.Uint64 // likewise
}

// newCodec is what both constructors start with: the fingerprint and the
// first gzip header, validated eagerly, and a codec over them with an
// empty index.
func newCodec(src filereader.FileReader, cfg Config) (*gzipCodec, error) {
	// Open-time setup reads the raw source before the counting wrapper
	// goes on: SourceReads then reports decode traffic only, so a reopen
	// from a persisted index performs zero counted reads before the
	// first access.
	fp := cfg.SourceFP
	if fp == nil {
		known, err := gzindex.ComputeFingerprint(src, src.Size())
		if err != nil {
			// Fingerprinting only reads bytes, so any failure here is a
			// source I/O problem (a directory opened as a file, a file
			// that shrank under us) — never a format verdict. Tagging it
			// ErrIO lets the public layer classify it as ErrSourceRead.
			return nil, fmt.Errorf("core: %w: %w", filereader.ErrIO, err)
		}
		fp = &known
	}
	hdr, err := gzformat.ParseHeader(bitio.NewBitReader(src, src.Size()))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	shared, ok := src.(*filereader.SharedFileReader)
	if !ok {
		shared = filereader.NewShared(src)
	}
	return newGzipCodec(cfg.withDefaults(), shared, hdr.BGZFBlockSize > 0, fp), nil
}

// New opens a gzip file cold and returns the engine over its codec.
// BGZF files take the metadata fast path of §3.4.4 (a complete-table
// engine); everything else runs the growing engine, whose span table
// extends one confirmed decode unit at a time. So does a BGZF file whose
// member chain breaks at a size field that does not lead to the next
// member; one that the chain shows cut short, or with a member header
// damaged, is refused (bgzfRefused).
func New(src filereader.FileReader, cfg Config) (*spanengine.Engine, error) {
	c, err := newCodec(src, cfg)
	if err != nil {
		return nil, err
	}
	ec := spanengine.Config{Threads: c.cfg.Parallelism, Pool: c.cfg.Pool}
	var eng *spanengine.Engine
	if c.bgzf && !cfg.SkipMetadataScan {
		eng, err = spanengine.New(c.src, c, ec)
		if err != nil && c.bgzfRefused(err) {
			return nil, err
		}
	}
	if eng == nil {
		if eng, err = spanengine.NewGrowing(c.src, c, 0, ec); err != nil {
			return nil, err
		}
	}
	c.chainEmpty()
	return eng, nil
}

// NewFromIndex opens a gzip file through a finalized index of it and
// returns the engine over its codec, skipping the initial decompression
// pass entirely (§1.3: "The seek point index can be exported and
// imported ... to avoid the decompression time for the initial
// decompression pass"): nothing is scanned, the block finder never runs,
// and every span decodes from its recorded offset and window. The codec
// keeps ix.
func NewFromIndex(src filereader.FileReader, ix *gzindex.Index, cfg Config) (*spanengine.Engine, error) {
	c, err := newCodec(src, cfg)
	if err != nil {
		return nil, err
	}
	if ix.Len() == 0 {
		return nil, errors.New("core: empty index")
	}
	if err := ix.CheckSource(c.src.Size(), *c.index.SourceFP, "gzip", "bgzf"); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Every writer records where each member ends, which is what member
	// verification after an import stands on.
	if !ix.MemberMarksComplete {
		return nil, fmt.Errorf("core: %w: gzip index without complete member marks; re-export it", gzindex.ErrUnsupportedVersion)
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
	eng, err := spanengine.NewFromCheckpoints(c.src, c, c.install(ix), 0, spanengine.Config{Threads: c.cfg.Parallelism, Pool: c.cfg.Pool})
	if err != nil {
		return nil, err
	}
	c.chainEmpty()
	return eng, nil
}

// Reader is a gzip engine behind the calls bench/ compiles against
// (coreMemPass in bench/layers.go): NewReader, ImportIndex, WriteTo and
// Close. Everything else reaches the engine New and NewFromIndex return.
// The benchmark change that moves coreMemPass to those deletes Reader,
// together with Config.SkipMetadataScan.
type Reader struct {
	src filereader.FileReader
	cfg Config
	eng *spanengine.Engine
}

// NewReader is New behind a Reader.
func NewReader(src filereader.FileReader, cfg Config) (*Reader, error) {
	eng, err := New(src, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{src: src, cfg: cfg, eng: eng}, nil
}

// ImportIndex replaces r's engine with one NewFromIndex builds from the
// index read from rd and closes the old one. It must not run
// concurrently with any other method. The deserializer consumes exactly
// the index bytes, a varint at a time: pass a buffered reader if rd
// holds nothing else.
func (r *Reader) ImportIndex(rd io.Reader) error {
	ix, err := gzindex.Read(rd)
	if err != nil {
		return err
	}
	eng, err := NewFromIndex(r.src, ix, r.cfg)
	if err != nil {
		return err
	}
	old := r.eng
	r.eng = eng
	return old.Close()
}

// WriteTo streams the whole decompressed file, from its first byte,
// into w.
func (r *Reader) WriteTo(w io.Writer) (int64, error) { return r.eng.WriteTo(w, 0) }

// Close shuts the engine's worker pool down.
func (r *Reader) Close() error { return r.eng.Close() }
