// Package core implements the paper's primary contribution: parallel
// decompression of, and constant-time seeking in, arbitrary gzip files
// via a cache-and-parallel-prefetch chunk architecture (paper §3,
// Figures 4 and 5).
//
// Since the span-engine port, the chunk table, the caches and the
// prefetch pipeline live in internal/spanengine — the same core that
// serves bzip2, LZ4 and zstd. This package contributes the gzip codec
// (codec.go): speculative block-finder decodes parked as tentative
// results, confirmed one decode unit at a time at the exact frontier
// offset — which makes the whole design robust against block-finder
// false positives: a misguided speculative result simply never matches
// a requested key and ages out of the pool (§3: "Robustness against
// false positives results from the cache acting as an intermediary with
// the offset as key").
//
// Buffer ownership. A chunk result's Marked and Raw are scratch from
// deflate's free lists, and a result has one owner at a time: the guess
// task that decodes it, then the tentative pool it is parked in, then
// the GrowNext call that takes it for the frontier. GrowNext reads it
// serially (window propagation and split-point windows, which are
// copies) and passes it to the unit's resolution tasks, one per span;
// each writes its span into a buffer of its own, and the task that
// finishes last calls Release — the only call there is. Whatever
// outlives that point (span contents, index windows, the frontier
// window) is therefore a copy, never a slice of the result. A result
// that is never confirmed — evicted from the tentative pool, started at
// a block the frontier never asks for, still parked at Close — is never
// released either and falls to the collector.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/filereader"
	"repro/internal/gzformat"
	"repro/internal/gzindex"
	"repro/internal/prefetch"
	"repro/internal/spanengine"
)

// Config tunes the parallel reader.
type Config struct {
	// Parallelism is the worker count (values < 1 are clamped to 1).
	Parallelism int
	// ChunkSize is the compressed bytes per work unit (paper default
	// 4 MiB; Figure 12 sweeps this parameter).
	ChunkSize int
	// MaxPrefetch bounds in-flight speculative chunks (paper §1.4: the
	// prefetch cache holds twice the parallelism).
	MaxPrefetch int
	// AccessCacheSize is the accessed-chunk cache capacity (paper §3.2:
	// a size of one suffices for sequential decompression).
	AccessCacheSize int
	// Strategy decides what to prefetch; nil = prefetch.NewAdaptive().
	Strategy prefetch.Strategy
	// VerifyChecksums enables gzip CRC32 verification during sequential
	// consumption, combined across chunks with crc32x — the checksum
	// support the paper lists as future work (§6).
	VerifyChecksums bool
	// GuessedRatioLimit aborts a speculative chunk decode whose output
	// exceeds this multiple of the chunk size; the on-demand exact
	// decode (unlimited) remains correct. This is the §1.4 mitigation
	// for worst-case memory usage.
	GuessedRatioLimit int
	// SkipMetadataScan suppresses the eager BGZF member-metadata scan
	// at construction. Set it when an index import will immediately
	// replace the chunk table anyway; without an import the file is
	// simply handled by the generic (slower) path.
	SkipMetadataScan bool
	// Pool, when non-nil, places the chunk cache in a shared
	// cross-engine pool: cached decompressed bytes are bounded
	// pool-wide instead of AccessCacheSize chunks per reader.
	Pool *spanengine.CachePool
}

func (c Config) withDefaults() Config {
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4 << 20
	}
	if c.MaxPrefetch <= 0 {
		// The paper holds 2x parallelism; this implementation defaults
		// to 4x because its consumer does more per-chunk work (window
		// copies into the index, CRC bookkeeping) and a deeper pipeline
		// hides the resulting bubbles. Memory stays bounded by
		// MaxPrefetch * chunk output.
		c.MaxPrefetch = 4 * c.Parallelism
	}
	if c.AccessCacheSize <= 0 {
		// Eagerly resolved chunks wait here until consumption; size it
		// like the prefetch window so none are evicted in flight.
		c.AccessCacheSize = 2*c.Parallelism + 4
	}
	if c.Strategy == nil {
		c.Strategy = prefetch.NewAdaptive()
	}
	if c.GuessedRatioLimit <= 0 {
		c.GuessedRatioLimit = 256
	}
	return c
}

// errNoBlock marks a grid cell that contains no usable block start.
var errNoBlock = errors.New("core: no deflate block found in chunk")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("core: reader is closed")

// counters holds the gzip activity counters. They are bumped from
// worker goroutines and the consumer alike, so every field is atomic;
// the struct is owned by the Fetcher and outlives engine swaps (an
// index import replaces the engine, not the statistics).
type counters struct {
	guessTasks       atomic.Uint64
	guessNoBlock     atomic.Uint64
	guessFalseStarts atomic.Uint64
	finderProbes     atomic.Uint64
	onDemand         atomic.Uint64
	indexed          atomic.Uint64
	consumed         atomic.Uint64
	crcFailures      atomic.Uint64
}

// FetcherStats counts fetcher activity for diagnostics and experiments.
type FetcherStats struct {
	GuessTasks       uint64
	GuessNoBlock     uint64
	GuessFalseStarts uint64 // speculative results that never matched
	// FinderProbes counts block-finder candidate probes across all
	// speculative tasks. It stays exactly zero when a complete index
	// was imported: known chunk offsets make the finder unnecessary.
	FinderProbes    uint64
	OnDemandDecodes uint64
	IndexedDecodes  uint64
	ChunksConsumed  uint64
	CRCFailures     uint64
}

// Fetcher is the GzipChunkFetcher: a span engine driven by the gzip
// codec. All methods are safe for concurrent use — the engine
// serialises its own state, the codec its own.
type Fetcher struct {
	cfg      Config
	engCfg   spanengine.Config
	file     *filereader.SharedFileReader
	fileBits uint64
	codec    *gzipCodec
	eng      *spanengine.Engine
	cnt      counters
	// sourceFP is the fingerprint of the open file, computed once at
	// construction; exported indexes carry it and imports are checked
	// against it.
	sourceFP gzindex.Fingerprint
	closed   bool
}

// NewFetcher opens a gzip file for parallel reading. It validates the
// first gzip header eagerly and routes BGZF files to the metadata fast
// path of §3.4.4 (a complete-table engine); everything else runs the
// growing engine, whose span table extends one confirmed decode unit
// at a time.
func NewFetcher(src filereader.FileReader, cfg Config) (*Fetcher, error) {
	cfg = cfg.withDefaults()
	size := src.Size()
	f := &Fetcher{
		cfg:      cfg,
		fileBits: uint64(size) * 8,
		engCfg: spanengine.Config{
			Threads:     cfg.Parallelism,
			CacheSize:   cfg.AccessCacheSize,
			MaxPrefetch: cfg.MaxPrefetch,
			Strategy:    cfg.Strategy,
			Pool:        cfg.Pool,
		},
	}
	// Open-time setup (fingerprint, first-header validation) reads the
	// raw source before the counting wrapper goes on: SourceReads then
	// reports decode traffic only, so a reopen from a persisted index
	// performs zero counted reads before the first access.
	fp, err := gzindex.ComputeFingerprint(src, size)
	if err != nil {
		// Fingerprinting only reads bytes, so any failure here is a
		// source I/O problem (a directory opened as a file, a file that
		// shrank under us) — never a format verdict. Tagging it ErrIO
		// lets the public layer classify it as ErrSourceRead.
		return nil, fmt.Errorf("core: %w: %w", filereader.ErrIO, err)
	}
	f.sourceFP = fp
	hdr, err := gzformat.ParseHeader(bitio.NewBitReader(src, size))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if shared, ok := src.(*filereader.SharedFileReader); ok {
		f.file = shared
	} else {
		f.file = filereader.NewShared(src)
	}
	f.codec = newGzipCodec(cfg, f.file, &f.cnt)
	f.codec.bgzf = hdr.BGZFBlockSize > 0
	f.codec.index.CompressedSize = uint64(size)
	f.codec.index.SourceFP = &f.sourceFP
	// First-pass confirmation observes every footer, so the index it
	// builds carries the complete set of member marks.
	f.codec.index.MemberMarksComplete = true

	if f.codec.bgzf && !cfg.SkipMetadataScan {
		f.eng, err = spanengine.New(f.file, f.codec, f.engCfg)
	} else {
		f.eng, err = spanengine.NewGrowing(f.file, f.codec, 0, f.engCfg)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Close shuts the worker pool down.
func (f *Fetcher) Close() {
	if !f.closed {
		f.closed = true
		f.eng.Close()
	}
}

// EnsureAll scans to EOF, completing the index.
func (f *Fetcher) EnsureAll() error { return f.eng.EnsureComplete() }

// TotalSize returns the decompressed size, scanning the rest of the
// file if necessary.
func (f *Fetcher) TotalSize() (uint64, error) {
	size, err := f.eng.TotalSize()
	return uint64(size), err
}

// CRCStatus reports (verifiedSoFar, failures). verifiedSoFar is false
// once consumption left sequential order or a mismatch occurred.
func (f *Fetcher) CRCStatus() (bool, uint64) { return f.codec.crcStatus() }

// StatsSnapshot returns the gzip activity counters.
func (f *Fetcher) StatsSnapshot() FetcherStats {
	return FetcherStats{
		GuessTasks:       f.cnt.guessTasks.Load(),
		GuessNoBlock:     f.cnt.guessNoBlock.Load(),
		GuessFalseStarts: f.cnt.guessFalseStarts.Load(),
		FinderProbes:     f.cnt.finderProbes.Load(),
		OnDemandDecodes:  f.cnt.onDemand.Load(),
		IndexedDecodes:   f.cnt.indexed.Load(),
		ChunksConsumed:   f.cnt.consumed.Load(),
		CRCFailures:      f.cnt.crcFailures.Load(),
	}
}

// EngineStats returns the span-engine counters (cache, prefetch and
// source-read activity).
func (f *Fetcher) EngineStats() spanengine.Stats { return f.eng.Stats() }

// --- index import/export -------------------------------------------------

// Index returns the seek-point index built so far.
func (f *Fetcher) Index() *gzindex.Index {
	f.codec.mu.Lock()
	defer f.codec.mu.Unlock()
	return f.codec.index
}

// checkpointTable maps the engine's span table into the index's
// persistable per-format section, tagged with the codec format.
func (f *Fetcher) checkpointTable() *gzindex.CheckpointTable {
	spans := f.eng.Checkpoints()
	t := &gzindex.CheckpointTable{Format: f.codec.FormatTag(), Flags: f.eng.Flags()}
	t.Spans = make([]gzindex.Checkpoint, len(spans))
	for i, s := range spans {
		t.Spans[i] = gzindex.Checkpoint{
			CompOff: s.CompOff, CompEnd: s.CompEnd,
			DecompOff: s.DecompOff, DecompSize: s.DecompSize,
		}
	}
	return t
}

// ImportIndex installs a finalized index, skipping the initial
// decompression pass entirely (§1.3: "The seek point index can be
// exported and imported ... to avoid the decompression time for the
// initial decompression pass"). The current engine — span table,
// caches, in-flight decodes — is replaced wholesale: everything it
// holds is keyed by the old geometry.
func (f *Fetcher) ImportIndex(ix *gzindex.Index) error {
	if !ix.Finalized {
		return errors.New("core: can only import finalized indexes")
	}
	if ix.Len() == 0 {
		return errors.New("core: empty index")
	}
	if ix.CompressedSize != f.fileBits/8 {
		return fmt.Errorf("core: index is for a %d-byte file, have %d bytes",
			ix.CompressedSize, f.fileBits/8)
	}
	if ix.SourceFP != nil && *ix.SourceFP != f.sourceFP {
		return fmt.Errorf("core: index fingerprint %08x/%08x does not match the open file's %08x/%08x (index built for a different file of the same size)",
			ix.SourceFP.Head, ix.SourceFP.Tail, f.sourceFP.Head, f.sourceFP.Tail)
	}
	if ix.Checkpoints != nil {
		if tag := ix.Checkpoints.Format; tag != "gzip" && tag != "bgzf" {
			return fmt.Errorf("core: index checkpoint table is for format %q, not gzip/BGZF", tag)
		}
	}
	// Adopt the file's own fingerprint so a re-export of an index
	// imported from the fingerprint-less v2 format gains one.
	ix.SourceFP = &f.sourceFP

	n := ix.Len()
	metas := make([]spanMeta, n)
	spans := make([]spanengine.Span, n)
	byOff := make(map[int64]int, n)
	for i := range metas {
		p := ix.Point(i)
		m := spanMeta{
			startBit:      p.CompressedBitOffset,
			startDecomp:   p.UncompressedOffset,
			atMemberStart: p.AtMemberStart,
		}
		if i+1 < n {
			next := ix.Point(i + 1)
			m.endBit = next.CompressedBitOffset
			m.size = next.UncompressedOffset - p.UncompressedOffset
		} else {
			m.endBit = ix.CompressedSize * 8
			m.size = ix.UncompressedSize - p.UncompressedOffset
			m.endIsEOF = true
		}
		for _, me := range ix.MemberEnds(p.CompressedBitOffset) {
			m.members = append(m.members,
				memberMark{absEnd: p.UncompressedOffset + me.RelEnd, crc: me.CRC32})
		}
		metas[i] = m
		s := spanengine.Span{
			CompOff:    int64(m.startBit / 8),
			CompEnd:    int64(m.endBit / 8),
			DecompOff:  int64(m.startDecomp),
			DecompSize: int64(m.size),
		}
		if m.endIsEOF {
			s.CompEnd = int64(ix.CompressedSize)
		}
		if _, dup := byOff[s.CompOff]; dup {
			return fmt.Errorf("core: index entries share start byte %d", s.CompOff)
		}
		byOff[s.CompOff] = i
		spans[i] = s
	}

	// Build the replacement engine first: a table the engine rejects
	// must leave the current state untouched.
	eng, err := spanengine.NewFromCheckpoints(f.file, f.codec, spans, 0, f.engCfg)
	if err != nil {
		return err
	}
	// Retire the old engine before rewiring the codec: Close waits for
	// its workers, so no decode observes the geometry mid-swap.
	f.eng.Close()

	c := f.codec
	c.mu.Lock()
	c.metas = metas
	c.byOff = byOff
	c.index = ix
	// Indexes exported by this implementation persist the member marks,
	// restoring full member verification; legacy (v1) indexes do not,
	// and verification then has to lean on the decode results instead.
	c.marksKnown = ix.MemberMarksComplete
	c.eof = true
	c.frontierBit = ix.CompressedSize * 8
	c.frontierDecomp = ix.UncompressedSize
	c.frontierWindow = nil
	c.guessIssued = map[uint64]bool{}
	c.noBlock = map[uint64]bool{}
	c.inflightGuess = map[uint64]*futureChunk{}
	c.mu.Unlock()

	c.crcMu.Lock()
	c.crcNext, c.crcAcc = 0, 0
	// Re-arm sequential verification under the new table — unless a
	// mismatch was already detected: an import must not launder a
	// stream that has failed verification.
	c.crcBroken = f.cnt.crcFailures.Load() > 0
	c.consumed = map[int]bool{}
	c.crcMu.Unlock()

	f.eng = eng
	return nil
}

// Chunks returns the number of confirmed table entries.
func (f *Fetcher) Chunks() int { return f.eng.NumSpans() }

// EOF reports whether the whole file has been scanned.
func (f *Fetcher) EOF() bool { return f.eng.Complete() }

// FrontierDecomp returns the decompressed bytes confirmed so far.
func (f *Fetcher) FrontierDecomp() uint64 { return uint64(f.eng.Size()) }

// BytesRead reports compressed bytes read from the underlying file.
func (f *Fetcher) BytesRead() int64 { return f.file.BytesRead() }
