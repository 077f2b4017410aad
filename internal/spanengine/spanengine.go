// Package spanengine is the shared random-access core behind every
// backend, gzip included: one engine owning the checkpoint table
// ("spans"), the LRU span cache and the prefetcher, parameterised by a
// small per-format Codec that only knows how to split a file into spans
// (the sizing pass) and how to decode one span.
//
// This is the paper's cache-plus-prefetch chunk-fetcher architecture
// (§3.2, Figure 5), serving two kinds of codecs. Formats whose metadata
// declares boundaries (bzip2, LZ4, Zstandard, BGZF) hand the engine a
// complete span table up front — either from the codec's sizing pass or
// from a persisted checkpoint table (an RGZIDX04 index), in which case
// the sizing pass is skipped entirely. Formats that must discover
// boundaries by decoding (gzip) implement Grower on top of Codec and
// run the engine in growing mode (see growing.go): the span table
// starts empty and extends one confirmed decode unit at a time, while
// speculative results parked in the tentative pool stay exactly that —
// tentative — until a clean upstream decode confirms where the next
// span really starts.
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
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/filereader"
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

// ScanResult is the outcome of a codec's sizing pass.
type ScanResult struct {
	// Spans is the complete checkpoint table, in stream order.
	Spans []Span
	// SizingDecodes counts the full span decodes the pass needed to
	// establish decompressed extents. Formats whose metadata declares
	// sizes (LZ4, sized zstd) report zero; bzip2 decodes everything
	// once.
	SizingDecodes uint64
	// Flags carries codec-specific capability bits (checksummed, block
	// independence, metadata-sized, ...). They are persisted alongside
	// the span table so a reopen-from-index reader can report
	// capabilities without re-parsing headers.
	Flags uint8
	// Primed optionally carries decompressed span contents the sizing
	// pass produced anyway (keyed by span index); the engine seeds its
	// cache with them so small unsized files do not decode twice.
	Primed map[int][]byte
}

// Codec is the per-format half of the engine: how to split a file into
// spans and how to decode one. Implementations must be safe for
// concurrent DecodeSpan calls — the prefetcher runs them on a worker
// pool — and must read src positionally with bounded windows: a span's
// compressed extent (via filereader.Extent) for decodes, a walker for
// sizing passes. src may be memory- or file-backed; the helpers take
// the zero-copy path automatically for the former.
type Codec interface {
	// FormatTag is the 4-byte tag identifying this codec in persisted
	// checkpoint tables (e.g. "bz2 ", "lz4 ", "zstd").
	FormatTag() string
	// Scan runs the sizing pass over src, producing the span table.
	Scan(src filereader.FileReader) (ScanResult, error)
	// DecodeSpan decodes the compressed bytes of one span (reading only
	// [s.CompOff, s.CompEnd) of src), returning exactly s.DecompSize
	// bytes.
	DecodeSpan(src filereader.FileReader, s Span) ([]byte, error)
}

// Config tunes an Engine. The zero value selects defaults.
type Config struct {
	// Threads is the prefetch worker count (min 1).
	Threads int
	// CacheSize is the span cache capacity in spans; zero selects
	// max(2*Threads, 4). Prefetched and accessed spans share the cache,
	// so it should be at least as large as MaxPrefetch to avoid
	// prefetch results evicting each other before consumption.
	CacheSize int
	// MaxPrefetch bounds in-flight speculative span decodes; zero
	// selects 2*Threads (the paper's default prefetch-cache depth).
	MaxPrefetch int
	// Strategy proposes spans to prefetch; nil selects
	// prefetch.NewAdaptive().
	Strategy prefetch.Strategy
	// Pool, when non-nil, replaces the engine's private span cache with
	// a view into a shared cross-engine CachePool: cached bytes are
	// bounded pool-wide (in bytes, not spans) and recency is global
	// across every member engine. CacheSize is ignored in pool mode.
	Pool *CachePool
}

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.MaxPrefetch <= 0 {
		c.MaxPrefetch = 2 * c.Threads
	}
	if c.CacheSize <= 0 {
		c.CacheSize = max(2*c.Threads, 4)
	}
	if c.Strategy == nil {
		c.Strategy = prefetch.NewAdaptive()
	}
	return c
}

// Stats counts engine activity. The zero-sizing-pass property of an
// index import is observable here: SizingPasses and SizingDecodes stay
// exactly zero when the engine was built from checkpoints.
type Stats struct {
	// SizingPasses counts codec Scan invocations (0 or 1).
	SizingPasses uint64
	// SizingDecodes counts full span decodes the sizing pass needed.
	SizingDecodes uint64
	// SpanDecodes counts span decodes after construction (on-demand
	// and prefetch alike; sizing decodes are not included).
	SpanDecodes uint64
	// PrefetchProposed counts the span candidates the strategy proposed
	// across all accesses, before filtering against the cache, the
	// in-flight set and the MaxPrefetch bound. Unlike PrefetchIssued it
	// is deterministic for a given access sequence, which makes it the
	// counter to compare strategies by.
	PrefetchProposed uint64
	// PrefetchIssued counts speculative span decodes dispatched to the
	// worker pool.
	PrefetchIssued uint64
	// PrefetchJoined counts accesses that found their span already in
	// flight and waited for the prefetch instead of decoding.
	PrefetchJoined uint64
	// DemandJoined counts accesses that found another reader's on-demand
	// decode of their span in flight and waited for it instead of
	// decoding the span a second time.
	DemandJoined uint64
	// PrefetchUnused counts spans a prefetch decoded that no reader ever
	// got: evicted, overwritten or still cached at Close without having
	// been returned once. PrefetchUnused over PrefetchIssued is the share
	// of speculation that was wasted.
	PrefetchUnused uint64
	// CacheHits / CacheMisses / Evictions mirror the span cache.
	CacheHits, CacheMisses, Evictions uint64
	// SourceReads counts positional reads issued against the compressed
	// source (sizing-pass windows and span-extent reads alike; memory-
	// backed sources count one logical read per zero-copy extent).
	// SourceBytesRead is the bytes those reads returned. Together they
	// bound the compressed bytes the engine ever made resident: for a
	// file-backed archive, SourceBytesRead staying far below the file
	// size is the larger-than-RAM property, measured.
	SourceReads, SourceBytesRead uint64
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("spanengine: engine is closed")

// entry is one cached decompressed span.
type entry struct {
	data []byte
	// unused marks a span a prefetch decoded that no reader has got yet.
	// The store owns the flag once the entry is in it: Get clears it,
	// and an entry that leaves the store with it set is counted.
	unused bool
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
	// primed resolutions) count against MaxPrefetch.
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
	cache    spanStore
	inflight map[int]flight
	demand   int // flights in inflight that a reader asked for
	strategy prefetch.Strategy
	cands    []uint64 // the strategy's proposals, reused across calls
	lastFed  int      // last span of the latest request fed to the strategy
	pool     *pool.Pool
	stats    Stats
	closed   bool

	// Growing-mode state (nil/unused for complete-table engines).
	grower   Grower
	grown    int // table length at the latest growth step; guarded by mu
	observer AccessObserver
	growMu   sync.Mutex // serialises GrowNext calls
	tentMu   sync.Mutex
	tent     *cache.Cache[uint64, any]
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
// the resulting span table. All source traffic — the sizing pass
// included — is routed through one SharedFileReader and shows up in
// Stats.
func New(src filereader.FileReader, codec Codec, cfg Config) (*Engine, error) {
	shared := share(src)
	scan, err := codec.Scan(shared)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(shared, codec, scan.Spans, scan.Flags, cfg)
	if err != nil {
		return nil, err
	}
	e.stats.SizingPasses = 1
	e.stats.SizingDecodes = scan.SizingDecodes
	for i, content := range scan.Primed {
		if i >= 0 && i < len(e.spans) && int64(len(content)) == e.spans[i].DecompSize {
			e.cache.Put(i, &entry{data: content})
		}
	}
	return e, nil
}

// NewFromCheckpoints builds an engine from a persisted span table,
// skipping the sizing pass entirely — the reopen-with-index fast path
// (and, file-backed, the zero-read open: no byte of the source is
// touched until the first span access). The table is validated
// structurally (ordered, in-bounds, contiguous decompressed extents);
// decode errors from a stale table surface on first access, exactly
// like data corruption would.
func NewFromCheckpoints(src filereader.FileReader, codec Codec, spans []Span, flags uint8, cfg Config) (*Engine, error) {
	if len(spans) == 0 {
		return nil, errors.New("spanengine: empty checkpoint table")
	}
	size := src.Size()
	var decomp int64
	for i, s := range spans {
		if s.CompOff < 0 || s.CompEnd <= s.CompOff || s.CompEnd > size {
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
		store = newLocalStore(cfg.CacheSize)
	}
	e := &Engine{
		src:      src,
		codec:    codec,
		spans:    spans,
		flags:    flags,
		cfg:      cfg,
		complete: true,
		cache:    store,
		inflight: map[int]flight{},
		strategy: cfg.Strategy,
		lastFed:  -1,
		pool:     pool.New(cfg.Threads),
	}
	if o, ok := codec.(AccessObserver); ok {
		e.observer = o
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
	// store any more; in pool mode this releases the engine's cached
	// bytes back to the shared budget.
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

// Flags returns the codec capability bits recorded at scan (or import)
// time.
func (e *Engine) Flags() uint8 { return e.flags }

// Checkpoints returns a copy of the span table, for persisting.
func (e *Engine) Checkpoints() []Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Span, len(e.spans))
	copy(out, e.spans)
	return out
}

// SpanExtent returns the decompressed offset and size of span i.
func (e *Engine) SpanExtent(i int) (off, size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spans[i].DecompOff, e.spans[i].DecompSize
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	cs := e.cache.Stats()
	s.CacheHits, s.CacheMisses, s.Evictions = cs.Hits, cs.Misses, cs.Evictions
	s.PrefetchUnused += cs.unused
	s.SourceReads = uint64(e.src.Reads())
	s.SourceBytesRead = uint64(e.src.BytesRead())
	return s
}

// want is one span of a request: its table entry and where its content
// comes from.
type want struct {
	i    int
	s    Span
	data []byte               // set on a cache hit
	fut  *pool.Future[[]byte] // else the decode to join
}

// content waits for the span's content.
func (w *want) content() ([]byte, error) {
	if w.fut != nil {
		return w.fut.Join()
	}
	return w.data, nil
}

// SpanContent returns the decompressed content of span i. The call is
// one request to the prefetch strategy. The returned slice is shared
// with the cache and must not be modified.
func (e *Engine) SpanContent(i int) ([]byte, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if i < 0 || i >= len(e.spans) {
		n := len(e.spans)
		e.mu.Unlock()
		return nil, fmt.Errorf("spanengine: span %d out of range [0,%d)", i, n)
	}
	ws := [1]want{{i: i, s: e.spans[i]}}
	e.claimLocked(ws[:])
	e.mu.Unlock()
	data, err := ws[0].content()
	if err == nil {
		e.noteAccess(i, data)
	}
	return data, err
}

// claimLocked settles where each span of one request comes from: the
// cache, a decode already in flight (joined, whoever started it), or a
// decode started here and registered in flight for others to join. The
// first decode started is left to the caller, who runs it by joining
// it; further ones go to the pool ahead of any speculation, so the
// spans of a read that crosses a boundary decode side by side. The
// request is then reported to the strategy as one access and the
// prefetches that follow from it are issued — before the caller blocks
// on its spans (paper §3.2). A read inside the span the previous
// request ended in, served from the cache, tells the strategy nothing
// it has not seen and skips it. Caller holds e.mu.
func (e *Engine) claimLocked(ws []want) {
	hit, mine := true, false
	for k := range ws {
		w := &ws[k]
		if ent, ok := e.cache.Get(w.i); ok {
			w.data = ent.data
			continue
		}
		hit = false
		fl, ok := e.inflight[w.i]
		switch {
		case !ok:
			fl.demand = true
			if task := e.decodeTask(w.i, w.s); mine {
				fl.fut = pool.Go(e.pool, task)
			} else {
				fl.fut = pool.Lazy(task)
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
	first, last := ws[0].i, ws[len(ws)-1].i
	if hit && len(ws) == 1 && last == e.lastFed {
		return
	}
	e.lastFed = last
	e.strategy.Access(uint64(first), uint64(last))
	e.issuePrefetches()
}

// decodeTask returns the task behind the flight registered for span i:
// decode, move the result into the cache, retire the flight. A task
// that finds the engine closed does not decode: nobody is left to read
// what Close found still queued.
func (e *Engine) decodeTask(i int, s Span) func() ([]byte, error) {
	return func() ([]byte, error) {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		var data []byte
		err := ErrClosed
		if !closed {
			data, err = e.codec.DecodeSpan(e.src, s)
			if err == nil && int64(len(data)) != s.DecompSize {
				data, err = nil, fmt.Errorf("spanengine: span %d decoded %d bytes, table says %d", i, len(data), s.DecompSize)
			}
		}
		e.mu.Lock()
		fl := e.inflight[i]
		delete(e.inflight, i)
		if fl.demand {
			e.demand--
		}
		if err == nil {
			e.stats.SpanDecodes++
			if !e.closed {
				e.cache.Put(i, &entry{data: data, unused: fl.unused})
			} else if fl.unused {
				e.stats.PrefetchUnused++
			}
		}
		e.mu.Unlock()
		return data, err
	}
}

// noteAccess reports a span consumption to the codec's observer (if
// any). Called without e.mu held, after content is available.
func (e *Engine) noteAccess(i int, data []byte) {
	if e.observer != nil {
		e.observer.SpanAccessed(i, data)
	}
}

// issuePrefetches asks the strategy for span candidates and dispatches
// decodes for the ones neither cached nor in flight, bounded by
// MaxPrefetch (decodes a reader asked for do not count against it).
// Caller holds e.mu.
func (e *Engine) issuePrefetches() {
	if e.closed {
		return
	}
	e.cands = e.strategy.Prefetch(e.cands[:0], e.cfg.MaxPrefetch)
	e.stats.PrefetchProposed += uint64(len(e.cands))
	for _, cand := range e.cands {
		if len(e.inflight)-e.demand >= e.cfg.MaxPrefetch {
			return
		}
		if cand >= uint64(len(e.spans)) {
			// Beyond the confirmed table. A growing codec turns these
			// candidates into speculative decodes of grid cells past the
			// frontier; complete tables have nothing there.
			if e.grower != nil && !e.complete {
				e.grower.Speculate(e, cand)
			}
			continue
		}
		i := int(cand)
		if _, flying := e.inflight[i]; flying || e.cache.Contains(i) {
			continue
		}
		e.stats.PrefetchIssued++
		e.inflight[i] = flight{fut: pool.GoLow(e.pool, e.decodeTask(i, e.spans[i])), unused: true}
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
// one request. It takes at most one span per decoder — the caller and
// each worker — so a read of any length holds no more decoded spans
// than a prefetching reader does; ReadAt asks again for the rest.
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
			ws = append(ws, want{i: i, s: s})
		}
	}
	e.claimLocked(ws)
	return ws, nil
}

// ReadAt implements io.ReaderAt over the decompressed stream. The spans
// a request covers are resolved once and the missing ones decode
// concurrently (see claimLocked). On a growing engine it extends the
// confirmed table as far as the request needs; io.EOF is only reported
// once the table is complete.
func (e *Engine) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("spanengine: negative offset %d", off)
	}
	var buf [4]want // enough for most requests without allocating
	n := 0
	for n < len(p) {
		if e.grower != nil {
			if err := e.ensureCovered(off); err != nil {
				return n, err
			}
		}
		ws, err := e.claimRange(buf[:0], off, int64(len(p)-n))
		if err != nil {
			return n, err
		}
		// Every decode is joined, even past a failure: the one left to
		// this caller runs nowhere else.
		var failed error
		for k := range ws {
			data, err := ws[k].content()
			if failed == nil {
				failed = err
			}
			if failed != nil {
				continue
			}
			e.noteAccess(ws[k].i, data)
			c := copy(p[n:], data[off-ws[k].s.DecompOff:])
			n += c
			off += int64(c)
		}
		if failed != nil {
			return n, failed
		}
	}
	return n, nil
}
