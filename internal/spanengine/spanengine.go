// Package spanengine is the shared random-access core behind every
// backend, gzip included: one engine owning the checkpoint table
// ("spans"), the LRU span cache and the prefetcher, parameterised by a
// small per-format Codec that only knows how to split a file into spans
// (the sizing pass) and how to decode one span.
//
// This is the paper's cache-plus-prefetch chunk-fetcher architecture
// (§3.2, Figure 5), serving two kinds of codecs. Formats whose metadata
// declares every boundary and size (LZ4, Zstandard frames with content
// sizes, BGZF) hand the engine a complete span table up front — either
// from the codec's sizing pass, which decodes nothing, or from a persisted
// checkpoint table (an RGZIDX05 index), in which case the sizing pass is
// skipped entirely. The others run the engine in growing mode (see
// growing.go): the span table starts empty and extends one confirmed
// decode unit at a time. Speculation past that frontier has one owner,
// the engine: it issues the guesses a grower maps prefetch candidates to,
// parks what they make in its tentative store, evicts from it, and hands
// a result over only when the frontier asks for the exact offset it
// started at; until then it stays tentative. Growing mode has two kinds
// of user. gzip must discover even where its spans begin, at bit offsets,
// by decoding, and implements Grower itself. bzip2 and Zstandard frames
// that omit their content size know their compressed extents from a scan
// and defer only the sizes to the first decode; they share one Grower
// (deferred.go). Either way the first pass over a file is the pass that
// sizes it, and nothing is decoded before somebody reads.
//
// A cache entry is a span's content or, for a codec that can stop short
// of a span's end and continue (PrefixDecoder: gzip, and LZ4 and zstd
// frames without a content checksum), the front of it together with the
// decode's parked state. One rule holds for every request: the decode a
// reader starts runs from the seek point, or from where a cached prefix
// parked, to the reader's own last byte in the span, and caches that
// prefix; a request is a hit when the prefix covers it, and otherwise one
// joinable decode continues the parked one. So a seek costs the bytes
// between the seek point and what was asked for, not the span, and a
// first read waits for what it asked for. When the strategy calls the
// reader a stream, the rest of the span is what it asks for next: the
// decode that parked hands it to the pool as a prefetch, which the next
// request joins. Prefetches, whole-span requests and primed resolutions
// decode to the span's end. What holds throughout: bytes once handed to
// a reader never change; the stores charge the bytes an entry holds; a
// reader that joined a decode bound for less than it needs claims again;
// the codec's access observer hears of whole spans only; a continuing
// decode that fails takes its prefix with it; Close drops what is
// parked.
//
// The engine operates over a positional reader (filereader.FileReader),
// never a resident buffer: codecs size the file with bounded windowed
// reads and decode each span from its own compressed extent, so a
// file-backed archive serves random access without ever materializing
// the whole compressed file in memory. All source traffic flows through
// one SharedFileReader per engine — its pread and byte counters are the
// observable proof of that bound.
package spanengine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/pool"
	"repro/internal/prefetch"
)

// Span is one checkpoint: a compressed byte extent that decodes
// independently of every other span, and the decompressed extent it
// produces. Spans are ordered; decompressed extents are contiguous
// from offset 0 (the compressed side may have gaps — zstd skippable
// frames sit between data frames).
type Span struct {
	// CompOff and CompEnd delimit the compressed bytes of the span.
	CompOff, CompEnd int64
	// DecompOff and DecompSize delimit the decompressed output.
	DecompOff, DecompSize int64
}

// ScanResult is the outcome of a codec's sizing pass, which reads headers
// and magics and decodes nothing.
type ScanResult struct {
	// Spans is the checkpoint table, in stream order. A span whose format
	// does not declare its decompressed size carries a negative DecompSize:
	// its first decode supplies it, and with it the DecompOff of every span
	// after (which the scan leaves unset). One such span puts the engine in
	// growing mode over the scan's extents (deferred.go).
	Spans []Span
	// Candidates marks span starts that are likely, not certain (bzip2's
	// stream magics, which payload bytes can spell). The spans must then
	// be contiguous and unsized; one that fails to decode is extended over
	// its successor and tried again, so a false start is never asked for.
	Candidates bool
	// Flags carries codec-specific capability bits (checksummed, block
	// independence, metadata-sized, ...). They are persisted alongside
	// the span table so a reopen-from-index reader can report
	// capabilities without re-parsing headers.
	Flags uint8
}

// Codec is the per-format half of the engine: how to split a file into
// spans and how to decode one. Implementations must be safe for
// concurrent DecodeSpan calls — the prefetcher runs them on a worker
// pool — and must read src positionally with bounded windows: a span's
// compressed extent (via filereader.Extent) for decodes, a walker for
// sizing passes. src may be memory- or file-backed; Extent slices the
// former without copying, and a walker reads both the same way.
type Codec interface {
	// FormatTag is the 4-byte tag identifying this codec in persisted
	// checkpoint tables (e.g. "bz2 ", "lz4 ", "zstd").
	FormatTag() string
	// Scan runs the sizing pass over src, producing the span table.
	Scan(src filereader.FileReader) (ScanResult, error)
	// DecodeSpan decodes the compressed bytes of one span (reading only
	// [s.CompOff, s.CompEnd) of src), returning exactly s.DecompSize
	// bytes — or, for an extent of its scan whose size is still open
	// (s.DecompSize negative), all it holds.
	DecodeSpan(src filereader.FileReader, s Span) ([]byte, error)
}

// PrefixDecoder is implemented by codecs that can decode a span up to an
// offset and continue later. gzip's deflate loop pauses at any element;
// LZ4 and zstd pause at a block boundary, in frames without a content
// checksum (one with decodes whole, so that none of its bytes go out
// unchecked). The engine detects it like AccessObserver and then decodes
// through it alone: a read decodes as far as it reaches into the span;
// speculation, a stream's continuation and whole-span requests decode to
// the end.
type PrefixDecoder interface {
	// DecodeSpanPrefix decodes span s until at least upTo bytes of its
	// output exist (0 < upTo <= s.DecompSize): from the seek point when
	// parked is nil, else continuing the call that returned parked. It
	// returns the output so far — what earlier calls returned comes
	// first, unchanged, though maybe in a larger array — and, while that
	// is short of the span, the state to continue from; next is nil once
	// the span is complete. The engine hands a parked state to one call
	// at a time and never again after a call that failed.
	DecodeSpanPrefix(src filereader.FileReader, s Span, parked any, upTo int64) (data []byte, next any, err error)
}

// BitAddressed is implemented by a codec whose spans start at bit
// offsets, which its spans' byte extents round down: where two spans
// start in one compressed byte, the extent of the first is empty.
// NewFromCheckpoints accepts such an extent from such a codec alone.
type BitAddressed interface {
	BitAddressed()
}

// Config tunes an Engine. Every engine, whatever its format and however
// it was opened, is sized from Threads alone, by withDefaults: a prefetch
// depth of 2·Threads, the paper's bound (§3.2), and a span cache of that
// depth plus 4, which holds the span being read, the one handed over and
// every prefetch, so that none is evicted unread. A gzip depth of
// 4·Threads under that cache decoded spans twice in a Read loop through
// an index, and at one worker streamed an indexed file 20 % slower
// (gzip-seq-indexed on 2 vCPUs: 584 against 732 MB/s).
type Config struct {
	// Threads is the prefetch worker count (min 1).
	Threads int
	// Pool, when non-nil, replaces the engine's private span cache with
	// a view into a shared cross-engine CachePool: cached bytes are
	// bounded pool-wide (in bytes, not spans) and recency is global
	// across every member engine.
	Pool *CachePool

	// Set by withDefaults, or by the package's tests: the span cache
	// capacity in spans (unused with a Pool); the bound on speculative
	// decodes in flight and, separately, on a growing engine's guesses
	// past its table; and what proposes spans to prefetch.
	cacheSize, maxPrefetch int
	strategy               prefetch.Strategy
}

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.maxPrefetch <= 0 {
		c.maxPrefetch = 2 * c.Threads
	}
	if c.cacheSize <= 0 {
		c.cacheSize = c.maxPrefetch + 4
	}
	if c.strategy == nil {
		c.strategy = prefetch.NewAdaptive()
	}
	return c
}

// tentativeSize is the capacity of a growing engine's tentative store:
// twice the prefetch depth, so results parked ahead of the frontier are
// not evicted before it reaches them.
func (c Config) tentativeSize() int { return max(2*c.maxPrefetch, 4) }

// Stats counts the activity of an engine and its codec: the archives of
// every format report it as it is (rapidgzip.Stats). The sizing, span,
// prefetch and source-read counters are the engine's and live for every
// format; the chunk-pipeline counters on top are the gzip/BGZF codec's
// (the only format whose chunk boundaries must be guessed), which it
// adds through Counter. Zeros mean the machinery never ran: an index
// import shows as SizingPasses == 0 (every format) and FinderProbes == 0
// (gzip/BGZF).
type Stats struct {
	// --- gzip/BGZF chunk pipeline ------------------------------------
	GuessTasks       uint64
	GuessNoBlock     uint64
	GuessFalseStarts uint64
	// FinderProbes counts block-finder candidate probes across all
	// speculative tasks. It stays exactly zero when a complete index
	// was imported: known chunk offsets make the finder unnecessary.
	FinderProbes uint64
	// FinderBytes counts the compressed bytes the block finder scanned,
	// from the start of a guessed cell to the block start it found or to
	// as far into the cell as a guess looks. Over the file size it is
	// what speculation paid to find where chunks begin.
	FinderBytes uint64
	// OnDemandDecodes counts the frontier cells decoded without a guess:
	// the first, whose block is known, and every cell whose guess was
	// missing, failed or began elsewhere. The first cell counts once,
	// though its first entry is confirmed ahead of the rest of it.
	OnDemandDecodes uint64
	IndexedDecodes  uint64
	ChunksConsumed  uint64
	CRCFailures     uint64
	// MaxPastStop is the most compressed bytes a confirmed unit reached
	// past the end of the cell it began in: a block's worth on an
	// ordinary file, and a frontier decode pauses inside a block about
	// half a cell past it.
	MaxPastStop uint64
	// TrailingBytes counts the bytes behind the last gzip member that are
	// not one, which a read skips as gzip does: the file size minus the
	// end of the last footer, once a first pass has confirmed it.
	TrailingBytes uint64

	// --- span engine (all formats) -----------------------------------
	// SizingPasses counts the scans that established the span table (0
	// after an index import, 1 after a cold open): a codec's Scan, which
	// reads headers or magics and decodes nothing, or the discovery a
	// growing engine starts with. For gzip, bzip2 and unsized zstd the
	// span table then grows as the file is first read; for BGZF the scan
	// is the member-metadata walk.
	SizingPasses uint64
	// SpanDecodes counts span decodes started from a seek point after
	// construction, on-demand and prefetched alike, including the first
	// decode of a bzip2 stream or unsized zstd frame, which also sizes
	// it. Where the codec can stop short of a span's end (PrefixDecoder:
	// gzip and BGZF spans, LZ4 and zstd frames without a content
	// checksum), a read decodes as far into the span as it reaches and
	// parks the rest, which a stream's prefetch or a later read continues;
	// SpanResumes counts the decodes that continued a parked one.
	SpanDecodes, SpanResumes uint64
	// DecodedBytes counts the bytes those decodes, and the resolutions of
	// a growing codec's primed spans (a freshly confirmed gzip chunk),
	// wrote. Over the bytes delivered it is what a read costs in decoding.
	DecodedBytes uint64
	// PrefetchProposed counts the span candidates the strategy proposed
	// across all accesses, before filtering against the cache, the
	// in-flight set and the prefetch depth. Unlike PrefetchIssued it
	// is deterministic for a given access sequence, which makes it the
	// counter to compare strategies by.
	PrefetchProposed uint64
	// PrefetchIssued counts speculative span decodes dispatched to the
	// worker pool, the rest of a span a stream's own decode stopped short
	// of among them.
	PrefetchIssued uint64
	// PrefetchJoined counts accesses that found their span already in
	// flight and waited for the prefetch instead of decoding.
	PrefetchJoined uint64
	// PrefetchUnused counts spans a prefetch decoded that no reader ever
	// got: evicted, overwritten or still cached at Close without having
	// been returned once. PrefetchUnused over PrefetchIssued is the share
	// of speculation that was wasted.
	PrefetchUnused uint64
	// DemandJoined counts accesses that found another reader's on-demand
	// decode of their span in flight and waited for it instead of
	// decoding the span a second time.
	DemandJoined uint64
	// SpanCacheHits / SpanCacheMisses / SpanCacheEvictions mirror the
	// span cache.
	SpanCacheHits, SpanCacheMisses, SpanCacheEvictions uint64
	// SourceReads counts positional reads issued against the compressed
	// source: the sizing pass's header and magic reads, which are the
	// same reads whether the source is a file or a buffer, and span-
	// extent reads, of which a memory-backed source counts one logical
	// read per zero-copy extent.
	// SourceBytesRead is the bytes those reads returned. For a
	// file-backed archive they bound the compressed bytes ever made
	// resident: SourceBytesRead staying far below the file size on a
	// random-access workload is the larger-than-RAM property, measured.
	SourceReads, SourceBytesRead uint64
}

// Counter is implemented by a codec with activity counters of its own
// (gzip's chunk pipeline): Engine.Stats adds them to its snapshot.
type Counter interface {
	Count(s *Stats)
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("spanengine: engine is closed")

// entry is one cached span: its content, or while parked is set the
// front of it — what a reader's decode produced before it stopped at the
// end of its request — with the codec's state to continue from. Neither
// field changes once the entry is in a store; a longer prefix is a new
// entry, and bytes a reader was handed are never written again.
type entry struct {
	data   []byte
	parked any
	// unused marks a span a prefetch decoded that no reader has got yet.
	// The store owns the flag once the entry is in it: Get clears it,
	// and an entry that leaves the store with it set is counted.
	unused bool
}

// covers reports whether the entry holds the first need bytes of its
// span.
func (ent *entry) covers(need int64) bool {
	return ent.parked == nil || int64(len(ent.data)) >= need
}

// cost is what a byte-budgeted store charges for the entry: the bytes it
// holds, which for a prefix is the buffer the decode will continue in.
func (ent *entry) cost() int64 {
	if ent.parked != nil {
		return int64(cap(ent.data))
	}
	return int64(len(ent.data))
}

// dropped accounts for an entry that leaves its store, or is refused
// by it, in the store's count of unused ones.
func (ent *entry) dropped(unused *uint64) {
	if ent.unused {
		*unused++
	}
}

// flight is one span decode in progress, joinable by whoever wants the
// span meanwhile.
type flight struct {
	fut *pool.Future[[]byte]
	// demand marks a decode a reader asked for; the others (prefetches,
	// primed resolutions) count against maxPrefetch.
	demand bool
	// unused is entry.unused in the making: set for a prefetch until a
	// reader joins it.
	unused bool
}

// Engine serves concurrent random access over the decompressed stream
// of one compressed source: ReadAt locates the spans covering a
// request, serves them from the LRU cache when possible, and reports
// the request to the prefetch strategy, so the spans a sequential
// reader will want next decode on the worker pool while it consumes the
// current one and a reader that jumps decodes what it asked for. The
// source is positional — a file on disk works exactly like a resident
// buffer, each decode preading only its own compressed extent.
//
// All methods are safe for concurrent use. The engine does not own the
// source: closing the underlying file is the caller's job, after Close.
type Engine struct {
	src   *filereader.SharedFileReader
	codec Codec
	flags uint8
	cfg   Config

	mu sync.Mutex
	// spans and size are guarded by mu: a growing engine appends while
	// readers are active. Span values are never mutated after append.
	spans    []Span
	size     int64
	complete bool
	scanned  int // spans the scan or the checkpoint table listed; see ScanSpans
	cache    spanStore
	inflight map[int]flight
	demand   int // flights in inflight that a reader asked for
	strategy prefetch.Strategy
	cands    []uint64 // the strategy's proposals, reused across calls
	lastFed  int      // last span of the latest request fed to the strategy
	pool     *pool.Pool
	stats    Stats
	closed   bool

	observer AccessObserver
	prefix   PrefixDecoder // the codec, if it can stop short of a span's end

	// Growing-mode state (nil/unused for complete-table engines), guarded
	// by mu but for growMu: the slots guessed and not re-armed since, each
	// with its future while the guess runs; how many run; and what they
	// parked, by the offset each began at (growing.go).
	grower   Grower
	grown    int        // table length at the latest growth step
	growMu   sync.Mutex // serialises GrowNext calls
	guesses  map[uint64]*pool.Future[any]
	guessing int
	tent     *cache.Cache[uint64, tentative]
}

// share returns src as a SharedFileReader, wrapping it only if it is
// not one already — so a caller that pre-wraps the source (to observe
// the same read counters the engine reports) keeps counter continuity.
func share(src filereader.FileReader) *filereader.SharedFileReader {
	if s, ok := src.(*filereader.SharedFileReader); ok {
		return s
	}
	return filereader.NewShared(src)
}

// New runs the codec's sizing pass over src and returns an engine over
// the resulting span table: complete if the pass sized every span, and
// otherwise growing, each extent sized by its first decode. All source
// traffic — the sizing pass included — is routed through one
// SharedFileReader and shows up in Stats.
func New(src filereader.FileReader, codec Codec, cfg Config) (*Engine, error) {
	shared := share(src)
	scan, err := codec.Scan(shared)
	if err != nil {
		return nil, err
	}
	if slices.ContainsFunc(scan.Spans, func(s Span) bool { return s.DecompSize < 0 }) {
		return newDeferred(shared, codec, scan, cfg)
	}
	e, err := newEngine(shared, codec, scan.Spans, scan.Flags, cfg)
	if err != nil {
		return nil, err
	}
	e.stats.SizingPasses = 1
	return e, nil
}

// NewFromCheckpoints builds an engine from a persisted span table,
// skipping the sizing pass entirely — the reopen-with-index fast path
// (and, file-backed, the zero-read open: no byte of the source is
// touched until the first span access). The table is validated
// structurally (ordered, in-bounds, contiguous decompressed extents,
// and no empty compressed extent but a BitAddressed codec's);
// decode errors from a stale table surface on first access, exactly
// like data corruption would.
func NewFromCheckpoints(src filereader.FileReader, codec Codec, spans []Span, flags uint8, cfg Config) (*Engine, error) {
	if len(spans) == 0 {
		return nil, errors.New("spanengine: empty checkpoint table")
	}
	size := src.Size()
	_, bits := codec.(BitAddressed)
	var decomp int64
	for i, s := range spans {
		if s.CompOff < 0 || s.CompEnd < s.CompOff || s.CompEnd == s.CompOff && !bits || s.CompEnd > size {
			return nil, fmt.Errorf("spanengine: checkpoint %d compressed extent [%d,%d) out of bounds (%d-byte source)",
				i, s.CompOff, s.CompEnd, size)
		}
		if i > 0 && s.CompOff < spans[i-1].CompEnd {
			return nil, fmt.Errorf("spanengine: checkpoint %d overlaps its predecessor", i)
		}
		if s.DecompSize < 0 || s.DecompOff != decomp {
			return nil, fmt.Errorf("spanengine: checkpoint %d decompressed extent not contiguous", i)
		}
		decomp += s.DecompSize
	}
	return newEngine(share(src), codec, spans, flags, cfg)
}

func newEngine(src *filereader.SharedFileReader, codec Codec, spans []Span, flags uint8, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	var store spanStore
	if cfg.Pool != nil {
		store = cfg.Pool.register()
	} else {
		store = newLocalStore(cfg.cacheSize)
	}
	e := &Engine{
		src:      src,
		codec:    codec,
		spans:    spans,
		scanned:  len(spans),
		flags:    flags,
		cfg:      cfg,
		complete: true,
		cache:    store,
		inflight: map[int]flight{},
		strategy: cfg.strategy,
		lastFed:  -1,
		pool:     pool.New(cfg.Threads),
	}
	if o, ok := codec.(AccessObserver); ok {
		e.observer = o
	}
	if d, ok := codec.(PrefixDecoder); ok {
		e.prefix = d
	}
	for _, s := range spans {
		e.size += s.DecompSize
	}
	return e, nil
}

// Close shuts the prefetch worker pool down. Decodes that are running
// finish (their results are discarded), queued ones return without
// decoding; subsequent accesses fail with ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// Close outside the lock: it waits for workers, and workers take
	// the lock briefly to record their results.
	e.pool.Close()
	// With the workers drained and e.closed set, nothing touches the
	// store any more; this drops the parked decodes and, in pool mode,
	// releases the engine's cached bytes back to the shared budget.
	e.cache.Close()
	return nil
}

// Size returns the decompressed size confirmed so far: the total size
// for a complete-table engine, the confirmed frontier for a growing
// one (use TotalSize to force completion first).
func (e *Engine) Size() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.size
}

// NumSpans returns the number of checkpoints confirmed so far.
func (e *Engine) NumSpans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.spans)
}

// ScanSpans returns how many spans the codec's scan, or the checkpoint
// table the engine was built from, listed: the table's length when it is
// complete, and while it still grows from a scan's extents the length it
// reaches unless candidate starts merge. Zero for a codec that finds its
// spans by decoding (gzip).
func (e *Engine) ScanSpans() int { return e.scanned }

// Codec returns the codec the engine decodes with, for the optional
// interfaces it may implement beyond Codec.
func (e *Engine) Codec() Codec { return e.codec }

// Flags returns the codec capability bits recorded at scan (or import)
// time.
func (e *Engine) Flags() uint8 { return e.flags }

// CheckpointTable returns the span table as an index file persists it:
// under the codec's tag, with the capability flags. NewFromCheckpoints
// takes it back.
func (e *Engine) CheckpointTable() *gzindex.CheckpointTable {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &gzindex.CheckpointTable{Format: e.codec.FormatTag(), Flags: e.flags, Spans: make([]gzindex.Checkpoint, len(e.spans))}
	for i, s := range e.spans {
		t.Spans[i] = gzindex.Checkpoint(s)
	}
	return t
}

// Stats returns a snapshot of the engine's counters and its codec's.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	cs := e.cache.Stats()
	s.SpanCacheHits, s.SpanCacheMisses, s.SpanCacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	s.PrefetchUnused += cs.unused
	s.SourceReads = uint64(e.src.Reads())
	s.SourceBytesRead = uint64(e.src.BytesRead())
	if c, ok := e.codec.(Counter); ok {
		c.Count(&s)
	}
	return s
}

// want is one span of a request: its table entry, how far into it the
// request reaches, and where its content comes from.
type want struct {
	i    int
	s    Span
	need int64                // the request's last byte in the span, as a length from the span's start
	ent  *entry               // what the cache holds of the span, if anything
	hit  bool                 // ent covers need
	fut  *pool.Future[[]byte] // on a miss, the decode to join
	lazy bool                 // fut is the decode left to the claimer, which runs nowhere else
}

// content waits for the span's content: all of it, or a prefix. A prefix
// taken from the cache covers need; one from a decode joined in flight,
// started for somebody else's request, may not. A decode nobody has
// started runs here, whatever ctx says; waiting for one that runs
// elsewhere ends when ctx does.
func (w *want) content(ctx context.Context) ([]byte, error) {
	if w.hit {
		return w.ent.data, nil
	}
	return w.fut.JoinContext(ctx)
}

// claimLocked settles where each span of one request comes from: the
// cache, if it holds the span as far as the request reaches; a decode
// already in flight (joined, whoever started it and however far it
// goes); or a decode started here, from the seek point or from where a
// cached prefix parked, and registered in flight for others to join. The
// first decode started is left to the caller, who runs it by joining
// it; further ones go to the pool ahead of any speculation, so the
// spans of a read that crosses a boundary decode side by side. The
// request is reported to the strategy as one access and the prefetches
// that follow from it are issued — before the caller blocks on its spans
// (paper §3.2). A read inside the span the previous request ended in,
// served from the cache, tells the strategy nothing it has not seen and
// skips it.
//
// A decode started here stops at the request's last byte in the span,
// whoever asks: what a reader waits for is what it asked for. The
// strategy's call decides what follows. A reader it proposes nothing for
// has jumped, and the prefix stays parked until a request reaches past
// it. A reader it prefetches for is a stream, and the rest of the span is
// what it asks for next: once the prefix is cached, the rest is issued
// to the pool as a prefetch at resolution priority, ahead of the spans
// after it (decodeTask), and the next request joins it. Caller holds
// e.mu.
func (e *Engine) claimLocked(ws []want) {
	hit := true
	for k := range ws {
		w := &ws[k]
		if w.ent, w.hit = e.cache.Get(w.i, w.need); !w.hit {
			hit = false
		}
	}
	first, last := ws[0].i, ws[len(ws)-1].i
	fed := !hit || len(ws) > 1 || last != e.lastFed
	if fed {
		e.lastFed = last
		e.strategy.Access(uint64(first), uint64(last))
		e.proposePrefetches()
	}
	stream := fed && len(e.cands) > 0
	mine := false
	for k := range ws {
		w := &ws[k]
		if w.hit {
			continue
		}
		fl, ok := e.inflight[w.i]
		switch {
		case !ok:
			fl.demand = true
			if task := e.decodeTask(w.i, w.s, w.ent, w.need, stream); mine {
				fl.fut = pool.Go(e.pool, task)
			} else {
				fl.fut = pool.Lazy(task)
				w.lazy = true
			}
			mine = true
			e.demand++
			e.inflight[w.i] = fl
		case fl.demand:
			e.stats.DemandJoined++
		default:
			e.stats.PrefetchJoined++
			if fl.unused {
				fl.unused = false
				e.inflight[w.i] = fl
			}
		}
		w.fut = fl.fut
	}
	if fed {
		e.issuePrefetches()
	}
}

// decodeTask returns the task behind the flight registered for span i:
// decode until upTo bytes of the span exist, continuing from a cached
// prefix if there is one, move the result into the cache, retire the
// flight. Only a PrefixDecoder stops short of the span; every other
// codec decodes it whole whatever upTo says. A decode that parks with
// rest set, a stream's, then issues the decode of the rest of the span
// to the pool (see claimLocked). A task that finds the engine closed
// does not decode: nobody is left to read what Close found still queued.
// Caller holds e.mu.
func (e *Engine) decodeTask(i int, s Span, from *entry, upTo int64, rest bool) func() ([]byte, error) {
	var parked any
	have := 0
	if from != nil {
		parked, have = from.parked, len(from.data)
	}
	return func() ([]byte, error) {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		var data []byte
		err := ErrClosed
		if !closed {
			if e.prefix == nil {
				data, err = e.codec.DecodeSpan(e.src, s)
			} else {
				data, parked, err = e.prefix.DecodeSpanPrefix(e.src, s, parked, upTo)
			}
			if n := int64(len(data)); err == nil && (parked == nil && n != s.DecompSize || parked != nil && (n < upTo || n >= s.DecompSize)) {
				data, err = nil, fmt.Errorf("spanengine: span %d decoded %d bytes, table says %d", i, n, s.DecompSize)
			}
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		fl := e.inflight[i]
		delete(e.inflight, i)
		if fl.demand {
			e.demand--
		}
		if err != nil {
			if e.closed {
				// A decode that Close overtook, run by a reader that
				// joined it, reads from a source closed under it, which it
				// may report as anything: the reader is told the engine
				// closed.
				return nil, ErrClosed
			}
			if from != nil {
				// The parked state is spent; the next reader starts over.
				e.cache.Delete(i)
			}
			return nil, err
		}
		if from != nil {
			e.stats.SpanResumes++
		} else {
			e.stats.SpanDecodes++
		}
		e.stats.DecodedBytes += uint64(len(data) - have)
		if !e.closed {
			ent := &entry{data: data, parked: parked, unused: fl.unused}
			e.cache.Put(i, ent)
			if rest && parked != nil {
				// The stream reads the rest of the span next: a prefetch
				// of it, ahead of the spans after it and whatever
				// maxPrefetch says, which the stream's next request joins.
				e.stats.PrefetchIssued++
				e.inflight[i] = flight{fut: pool.Go(e.pool, e.decodeTask(i, s, ent, s.DecompSize, false)), unused: true}
			}
		} else if fl.unused {
			e.stats.PrefetchUnused++
		}
		return data, nil
	}
}

// noteAccess reports a span consumption to the codec's observer (if
// any). Called without e.mu held, after content is available.
func (e *Engine) noteAccess(i int, data []byte) {
	if e.observer != nil {
		e.observer.SpanAccessed(i, data)
	}
}

// proposePrefetches asks the strategy which spans the latest access
// makes worth decoding ahead; issuePrefetches dispatches them. Caller
// holds e.mu.
func (e *Engine) proposePrefetches() {
	e.cands = e.cands[:0]
	if !e.closed {
		e.cands = e.strategy.Prefetch(e.cands, e.cfg.maxPrefetch)
		e.stats.PrefetchProposed += uint64(len(e.cands))
	}
}

// issuePrefetches dispatches decodes for the proposed spans that are
// neither cached whole nor in flight, bounded by maxPrefetch (decodes a
// reader asked for do not count against it). A candidate cached as a
// prefix is continued to its end; one that covers no bytes is skipped.
// Caller holds e.mu.
func (e *Engine) issuePrefetches() {
	for _, cand := range e.cands {
		if len(e.inflight)-e.demand >= e.cfg.maxPrefetch {
			return
		}
		if cand >= uint64(len(e.spans)) {
			// Beyond the confirmed table: a guess past the frontier of a
			// growing one (growing.go); complete tables have nothing there.
			if e.grower != nil && !e.complete {
				e.speculate(cand)
			}
			continue
		}
		i := int(cand)
		ent := e.cache.Peek(i)
		if _, flying := e.inflight[i]; flying {
			continue
		}
		if ent != nil && ent.parked == nil {
			// Decoded ahead and proposed again: the stream still wants it.
			// Without this a prefetch that finished early is older than
			// the spans read since and is evicted, unread, before them.
			e.cache.Touch(i)
			continue
		}
		s := e.spans[i]
		if s.DecompSize == 0 {
			continue
		}
		e.stats.PrefetchIssued++
		e.inflight[i] = flight{fut: pool.GoLow(e.pool, e.decodeTask(i, s, ent, s.DecompSize, false)), unused: true}
	}
}

// findSpanLocked returns the index of the span covering decompressed
// offset off, skipping zero-size spans (which cover nothing). Caller
// holds e.mu.
func (e *Engine) findSpanLocked(off int64) int {
	i := sort.Search(len(e.spans), func(i int) bool {
		return e.spans[i].DecompOff > off
	}) - 1
	for i >= 0 && i < len(e.spans) && e.spans[i].DecompOff+e.spans[i].DecompSize <= off {
		i++
	}
	return i
}

// claimRange resolves the spans covering [off, off+length) of the
// decompressed stream, as far as the table reaches, and claims them as
// one request (see claimLocked). It takes at most one span per decoder —
// the caller and each worker — so a request of any length holds no more
// decoded spans than a prefetching reader does; ReadAt and WriteRangeTo
// ask again for the rest.
func (e *Engine) claimRange(ws []want, off, length int64) ([]want, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	i := e.findSpanLocked(off)
	if off >= e.size || i < 0 || i >= len(e.spans) {
		return nil, io.EOF
	}
	for end := off + length; i < len(e.spans) && e.spans[i].DecompOff < end && len(ws) <= e.cfg.Threads; i++ {
		if s := e.spans[i]; s.DecompSize > 0 {
			ws = append(ws, want{i: i, s: s, need: min(end-s.DecompOff, s.DecompSize)})
		}
	}
	e.claimLocked(ws)
	return ws, nil
}

// ReadAt implements io.ReaderAt over the decompressed stream: the span
// walk (see walk) into p, with no bound on its first round, so the
// decodes it starts stop at p's last byte. On a growing engine it extends
// the confirmed table as far as the request needs; io.EOF is only
// reported once the table is complete.
func (e *Engine) ReadAt(p []byte, off int64) (int, error) {
	q := p
	n, err := e.walk(context.Background(), off, int64(len(p)), math.MaxInt64, func(part []byte) (int, error) {
		c := copy(q, part)
		q = q[c:]
		return c, nil
	})
	if err == nil && n < int64(len(p)) {
		err = io.EOF
	}
	return int(n), err
}

// FirstRound bounds how far into a range the first round of a ranged
// write reaches, and so how far the decodes that round starts go. A cold
// span is then decoded only that far before the range's first bytes go
// out (by a PrefixDecoder; other codecs decode whole spans), and the
// next round continues the parked decode, or, for a stream, joins the
// continuation already on the pool; a cached span is written whole all
// the same. gzip sizes a cold file's first span by it too (its first
// entry), so that a cold stream's first round is one decode of that
// much.
const FirstRound = 32 << 10

// WriteRangeTo writes the decompressed bytes [off, off+n) to w, or those
// of them before the end of the stream, and returns how many it wrote:
// the span walk (see walk) with w in place of a buffer, its first round
// bounded by FirstRound, so that even a stream's first bytes wait only
// for the decode of what that round reaches. w gets the content of each
// span itself, not a copy, in one Write per span (two for a span not
// cached as far as the first round reaches). ctx is checked before every
// span and while waiting for a decode that another goroutine runs; once
// it is done the walk stops with its error.
func (e *Engine) WriteRangeTo(ctx context.Context, w io.Writer, off, n int64) (int64, error) {
	return e.walk(ctx, off, n, FirstRound, func(part []byte) (int, error) {
		nw, err := w.Write(part)
		if err == nil && nw < len(part) {
			err = io.ErrShortWrite
		}
		return nw, err
	})
}

// walk is the span walk behind ReadAt and WriteRangeTo: it hands put the
// decompressed bytes [off, off+n), or those of them before the end of the
// stream, in order, a part of a span at a time, and returns how many put
// took. Each round claims the spans the range reaches into, as far as it
// reaches into them (see claimRange), so a jump into a span decodes only
// its prefix, the strategy and the access observer hear of each request,
// and the missing spans of a round decode side by side. The first round
// reaches at most first bytes in, and the decodes it starts stop there
// (claimLocked); later rounds reach to the range's end. A growing table
// grows as the walk reaches its frontier.
//
// ctx is checked before every span and while waiting for a decode that
// another goroutine runs; a decode the walk runs itself finishes first.
// Once ctx is done, or a decode or put failed, the walk stops with that
// error, but runs the decode it was left all the same: nobody else
// would. A span that ends short of what the round needs of it (a decode
// joined in flight, bound for less) ends the round, and the next round
// claims again from where it got to.
func (e *Engine) walk(ctx context.Context, off, n, first int64, put func([]byte) (int, error)) (int64, error) {
	if off < 0 {
		return 0, fmt.Errorf("spanengine: negative offset %d", off)
	}
	end := off + min(max(n, 0), math.MaxInt64-off)
	limit := off + min(first, end-off)
	var buf [4]want // enough for most requests without allocating
	var done int64
	for off < end {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		if e.grower != nil {
			if err := e.ensureCovered(off); err != nil {
				return done, err
			}
		}
		ws, err := e.claimRange(buf[:0], off, limit-off)
		if err == io.EOF {
			return done, nil
		}
		if err != nil {
			return done, err
		}
		limit = end
		short := false
		for k := range ws {
			sp := &ws[k]
			if err == nil {
				err = ctx.Err()
			}
			if err != nil || short {
				if sp.lazy {
					sp.fut.Join() //nolint:errcheck // run for the others who join it
				}
				continue
			}
			var data []byte
			if data, err = sp.content(ctx); err != nil {
				continue
			}
			if int64(len(data)) == sp.s.DecompSize {
				e.noteAccess(sp.i, data)
			}
			if rel := off - sp.s.DecompOff; rel < int64(len(data)) {
				var np int
				np, err = put(data[rel:min(int64(len(data)), end-sp.s.DecompOff)])
				done += int64(np)
				off += int64(np)
			}
			short = int64(len(data)) < sp.need
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// WriteTo streams the decompressed bytes from offset off to the end into
// w: WriteRangeTo to the end of the stream, which io.Copy of a whole
// archive runs on. Each round is one request to the prefetch strategy, so
// the spans ahead decode on the worker pool while these are written.
func (e *Engine) WriteTo(w io.Writer, off int64) (int64, error) {
	return e.WriteRangeTo(context.Background(), w, off, math.MaxInt64)
}
