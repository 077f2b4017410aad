// Growing mode: the engine extension for formats that cannot enumerate
// their span table from metadata and must find it by decoding. The table
// starts empty and grows one confirmed decode unit at a time, driven by
// the codec's Grower half; everything a speculative worker produces is
// parked in the engine's tentative pool, keyed by the exact offset
// where the decode actually began, and stays tentative until a clean
// upstream decode confirms the frontier reaches exactly that offset
// (the paper's §3 robustness argument: a block-finder false positive
// simply never matches a requested key and ages out of the pool).
//
// It has two kinds of user. Bit-offset discovery: gzip, whose deflate
// blocks start at arbitrary bit offsets, so that even where a span begins
// is a guess until the decode before it ends there (internal/core
// implements Grower). Deferred sizes: bzip2 and Zstandard frames without a
// content size, whose compressed extents a scan finds without decoding and
// whose decompressed sizes the first decode supplies (deferred.go, one
// Grower for both).

package spanengine

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/filereader"
	"repro/internal/pool"
)

// Grower is the growth half of a codec whose span table must be
// discovered by decoding. The engine serialises GrowNext calls; the
// other methods are called under the locks documented per method.
type Grower interface {
	// GrowNext confirms the next decode unit: obtain the decode result
	// for the exact frontier offset (tentative pool, in-flight
	// speculation, or an on-demand decode), append the resulting spans
	// via AppendSpans, and prime their contents via Prime. It returns
	// done=true once the frontier has reached end of file (possibly on
	// the same call that appended the final spans). Calls are
	// serialised by the engine; the implementation may block.
	GrowNext(e *Engine) (done bool, err error)
	// Speculate offers a prefetch candidate beyond the confirmed table
	// (in spans past the frontier). The codec maps it to a speculative
	// decode of its own geometry and schedules it on the engine's pool.
	// Called with the engine's internal mutex held: the implementation
	// must only do quick bookkeeping plus pool submission, and must not
	// call back into engine methods other than Pool.
	Speculate(e *Engine, cand uint64)
	// TentativeEvicted reports that the tentative pool dropped the
	// entry keyed by key, so the codec can re-arm whatever bookkeeping
	// (e.g. a guessed-cell bitmap) would otherwise suppress a retry.
	// Called while the pool's mutex is held; must not call back into
	// the tentative pool.
	TentativeEvicted(key uint64)
}

// GrowingCodec is the contract for growing-mode engines: a Codec whose
// Scan is never called (the table grows instead) plus the Grower half.
type GrowingCodec interface {
	Codec
	Grower
}

// AccessObserver is implemented by codecs that want to observe span
// consumption — every successful SpanContent, with the decoded bytes.
// gzip uses it to verify member CRC32s in consumption order. Called
// without engine locks held.
type AccessObserver interface {
	SpanAccessed(i int, data []byte)
}

// NewGrowing returns an engine in growing mode: the span table starts
// empty and extends on demand (ReadAt, WriteTo, EnsureComplete), one
// GrowNext unit at a time. The discovery counts as the engine's sizing
// pass; an engine rebuilt from checkpoints instead reports
// SizingPasses == 0, exactly like the complete-table formats.
func NewGrowing(src filereader.FileReader, codec GrowingCodec, flags uint8, cfg Config) (*Engine, error) {
	e, err := newEngine(share(src), codec, nil, flags, cfg)
	if err != nil {
		return nil, err
	}
	e.grower = codec
	e.complete = false
	e.stats.SizingPasses = 1
	e.tent = cache.NewLRUCache[uint64, any](e.cfg.tentativeSize())
	e.tent.OnEvict = func(key uint64, _ any) { codec.TentativeEvicted(key) }
	return e, nil
}

// Pool exposes the worker pool for codec-scheduled speculative work.
func (e *Engine) Pool() *pool.Pool { return e.pool }

// Complete reports whether the span table covers the whole file.
func (e *Engine) Complete() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.complete
}

// AppendSpans appends confirmed spans to the table (growing mode;
// called by GrowNext). It returns the table index of the first
// appended span.
func (e *Engine) AppendSpans(spans ...Span) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := len(e.spans)
	e.spans = append(e.spans, spans...)
	for _, s := range spans {
		e.size += s.DecompSize
	}
	return base
}

// Prime registers a pending content future for span i: decode runs on
// the worker pool (at resolution priority, ahead of speculation) and
// its result lands in the span cache. Accesses arriving before it
// finishes join the future exactly like a prefetch in flight. No-op if
// the span is already cached or in flight.
func (e *Engine) Prime(i int, decode func() ([]byte, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, flying := e.inflight[i]; flying || e.closed || e.cache.Peek(i) != nil {
		return
	}
	e.inflight[i] = flight{fut: pool.Go(e.pool, func() ([]byte, error) {
		data, err := decode()
		e.mu.Lock()
		delete(e.inflight, i)
		if err == nil {
			e.stats.DecodedBytes += uint64(len(data))
		}
		if err == nil && !e.closed {
			e.cache.Put(i, &entry{data: data})
		}
		e.mu.Unlock()
		return data, err
	})}
}

// PutTentative parks a speculative decode result under its exact start
// key. The pool is LRU-bounded; evicted entries are reported to the
// grower so the speculation can be retried later.
func (e *Engine) PutTentative(key uint64, v any) {
	e.tentMu.Lock()
	defer e.tentMu.Unlock()
	if e.tent != nil {
		e.tent.Put(key, v)
	}
}

// TakeTentative removes and returns the tentative entry keyed by key.
func (e *Engine) TakeTentative(key uint64) (any, bool) {
	e.tentMu.Lock()
	defer e.tentMu.Unlock()
	if e.tent == nil {
		return nil, false
	}
	v, ok := e.tent.Peek(key)
	if ok {
		e.tent.Delete(key)
	}
	return v, ok
}

// HasTentative reports whether a tentative entry for key is parked,
// without touching LRU order.
func (e *Engine) HasTentative(key uint64) bool {
	e.tentMu.Lock()
	defer e.tentMu.Unlock()
	return e.tent != nil && e.tent.Contains(key)
}

// growStep runs one serialised growth iteration: report to the strategy
// the request for the frontier span — an access that began where the
// previous step's did and crossed the spans it confirmed, which makes
// the frontier a stream however many spans a unit yields — and start
// speculation before the (possibly blocking) confirmation: paper §3.2,
// prefetching starts before the blocking fetch.
func (e *Engine) growStep() error {
	e.growMu.Lock()
	defer e.growMu.Unlock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.complete {
		e.mu.Unlock()
		return nil
	}
	e.strategy.Access(uint64(e.grown), uint64(len(e.spans)))
	e.grown = len(e.spans)
	e.proposePrefetches()
	e.issuePrefetches()
	e.mu.Unlock()
	done, err := e.grower.GrowNext(e)
	if err != nil {
		return err
	}
	if done {
		e.mu.Lock()
		e.complete = true
		e.mu.Unlock()
	}
	return nil
}

// ensureCovered grows the table until decompressed offset off is
// covered (or the table is complete). Afterwards it opportunistically
// confirms units whose speculative results are already parked, so the
// serial confirmation walk runs ahead of consumption and the primed
// resolutions overlap it (the paper's §2.2 Amdahl argument assumes
// exactly this overlap).
func (e *Engine) ensureCovered(off int64) error {
	for {
		e.mu.Lock()
		covered := e.complete || e.grower == nil || off < e.size
		e.mu.Unlock()
		if covered {
			break
		}
		if err := e.growStep(); err != nil {
			return err
		}
	}
	for e.growReady(off) {
		if err := e.growStep(); err != nil {
			return err
		}
	}
	return nil
}

// growReady reports whether the next growth step would complete
// without blocking (a tentative result is parked at the frontier key)
// and a reader at off is within a quarter of the cache of the frontier.
// Primed spans share the LRU with the spans the reader touches on its
// way to them, so confirming further ahead pushes out the very spans
// needed next; each then decodes a second time on the reader's
// goroutine while the workers run further ahead still.
func (e *Engine) growReady(off int64) bool {
	e.mu.Lock()
	pending := e.grower != nil && !e.complete && !e.closed &&
		len(e.spans)-e.findSpanLocked(off) <= e.cfg.CacheSize/4
	e.mu.Unlock()
	if !pending {
		return false
	}
	r, ok := e.grower.(interface{ GrowReady(e *Engine) bool })
	return ok && r.GrowReady(e)
}

// SpanAt returns the index of the span covering decompressed offset
// off, growing the table as far as needed. io.EOF reports offsets at or
// past the end of the (completed) stream.
func (e *Engine) SpanAt(off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("spanengine: negative offset %d", off)
	}
	if err := e.ensureCovered(off); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if off >= e.size {
		return 0, io.EOF
	}
	i := e.findSpanLocked(off)
	if i < 0 || i >= len(e.spans) {
		return 0, io.EOF
	}
	return i, nil
}

// EnsureComplete grows the span table to end of file.
func (e *Engine) EnsureComplete() error {
	for {
		e.mu.Lock()
		done := e.complete || e.grower == nil
		e.mu.Unlock()
		if done {
			return nil
		}
		if err := e.growStep(); err != nil {
			return err
		}
	}
}

// TotalSize returns the total decompressed size, growing the table to
// completion first if necessary.
func (e *Engine) TotalSize() (int64, error) {
	if err := e.EnsureComplete(); err != nil {
		return 0, err
	}
	return e.Size(), nil
}
