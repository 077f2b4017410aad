// Growing mode: the engine extension for formats that cannot enumerate
// their span table from metadata and must find it by decoding. The table
// starts empty and grows one confirmed decode unit at a time, driven by
// the codec's Grower half.
//
// Speculation past the frontier is the engine's, whichever grower asks
// for it. A prefetch candidate beyond the table becomes a guess at the
// slot the grower maps it to; the guess runs on the pool (unless the
// engine closed first), and what it makes is parked in the tentative
// store under the exact offset where its decode actually began. It
// stays tentative until the frontier asks for exactly that offset
// (TakeGuess) — the paper's §3 robustness argument: a block-finder false
// positive simply never matches a requested key and ages out of the
// store, which re-arms its slot. A slot is guessed once until then, and
// not at all while the frontier decodes it; at most maxPrefetch guesses
// run; and those still running when the table completes are waited for.
//
// It has two kinds of user. Bit-offset discovery: gzip, whose deflate
// blocks start at arbitrary bit offsets, so that even where a span begins
// is a guess until the decode before it ends there (internal/core
// implements Grower; its slots are grid cells). Deferred sizes: bzip2 and
// Zstandard frames without a content size, whose compressed extents a
// scan finds without decoding and whose decompressed sizes the first
// decode supplies (deferred.go, one Grower for both; its slots are
// extents).

package spanengine

import (
	"repro/internal/cache"
	"repro/internal/filereader"
	"repro/internal/pool"
)

// Grower is the growth half of a codec whose span table must be
// discovered by decoding: how a prefetch candidate maps to a slot, what a
// guess at a slot decodes, and how the next unit is confirmed. Slots
// number the units of speculation in file order, so a slot before the
// one the frontier takes is never mapped to again.
type Grower interface {
	// GrowNext confirms the next decode unit: obtain the decode result
	// for the exact frontier offset (TakeGuess, or an on-demand decode),
	// append the resulting spans via AppendSpans, and prime their
	// contents via Prime. It returns done=true once the frontier has
	// reached end of file (possibly on the same call that appended the
	// final spans). Calls are serialised by the engine; the
	// implementation may block.
	GrowNext(e *Engine) (done bool, err error)
	// Slot maps a prefetch candidate beyond the confirmed table (cand
	// counts spans from the table's start) to the slot a guess for it
	// decodes; ok is false where there is nothing to guess.
	Slot(e *Engine, cand uint64) (slot uint64, ok bool)
	// Guess is called as a guess at slot is issued and returns what the
	// guess runs on a worker: a decode that reports the exact offset it
	// began at and what it made, parked under that offset when err is
	// nil.
	//
	// Slot and Guess are called with the engine's mutex held: quick
	// bookkeeping only, and no calls back into the engine.
	Guess(e *Engine, slot uint64) func() (key uint64, v any, err error)
}

// GrowingCodec is the contract for growing-mode engines: a Codec whose
// Scan is never called (the table grows instead) plus the Grower half.
type GrowingCodec interface {
	Codec
	Grower
}

// AccessObserver is implemented by codecs that want to observe span
// consumption — every whole span a read is handed, with its bytes.
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
	e.guesses = map[uint64]*pool.Future[any]{}
	e.tent = cache.NewLRUCache[uint64, tentative](e.cfg.tentativeSize())
	e.tent.OnEvict = func(_ uint64, t tentative) { delete(e.guesses, t.slot) }
	return e, nil
}

// tentative is what a finished guess parked: what it made, and the slot
// its eviction re-arms.
type tentative struct {
	slot uint64
	v    any
}

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
// the span is already cached or in flight. A prime that finds the engine
// closed does not decode, as a queued decodeTask does not, and one that
// Close overtook counts nothing in Stats: nobody reads what it made.
func (e *Engine) Prime(i int, decode func() ([]byte, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, flying := e.inflight[i]; flying || e.closed || e.cache.Peek(i) != nil {
		return
	}
	e.inflight[i] = flight{fut: pool.Go(e.pool, func() ([]byte, error) {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		data, err := []byte(nil), error(ErrClosed)
		if !closed {
			data, err = decode()
		}
		e.mu.Lock()
		delete(e.inflight, i)
		if err == nil && !e.closed {
			e.stats.DecodedBytes += uint64(len(data))
			e.cache.Put(i, &entry{data: data})
		}
		e.mu.Unlock()
		return data, err
	})}
}

// speculate issues a guess for a prefetch candidate beyond the confirmed
// table, unless its slot is guessed already — parked, running, or the
// frontier's own — or maxPrefetch guesses are running. The guess parks
// what it made and leaves the running set in one step, so a frontier
// that finds it in neither place knows it made nothing. Caller holds
// e.mu.
func (e *Engine) speculate(cand uint64) {
	slot, ok := e.grower.Slot(e, cand)
	if _, guessed := e.guesses[slot]; !ok || guessed || e.guessing >= e.cfg.maxPrefetch {
		return
	}
	run := e.grower.Guess(e, slot)
	e.guessing++
	e.guesses[slot] = pool.GoLow(e.pool, func() (v any, err error) {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		key, err := uint64(0), error(ErrClosed)
		if !closed {
			key, v, err = run()
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.guessing--
		e.guesses[slot] = nil
		if err == nil && !e.closed {
			e.tent.Put(key, tentative{slot, v})
		}
		return v, err
	})
}

// TakeGuess hands the frontier, about to confirm the unit at the exact
// offset key, what was guessed for it: the result parked under key, or
// else the outcome of the guess running at slot — joined, so it runs
// here if no worker has started it — which may have begun elsewhere than
// key. ok is false when there is neither, and the caller decodes the
// unit itself; slot is not guessed meanwhile.
func (e *Engine) TakeGuess(key, slot uint64) (v any, ok bool, err error) {
	e.mu.Lock()
	for s, fut := range e.guesses {
		if s < slot && fut == nil {
			delete(e.guesses, s) // behind the frontier for good
		}
	}
	if t, parked := e.tent.Peek(key); parked {
		e.tent.Delete(key)
		e.mu.Unlock()
		return t.v, true, nil
	}
	fut, guessed := e.guesses[slot]
	if !guessed {
		e.guesses[slot] = nil
	}
	e.mu.Unlock()
	if fut == nil {
		return nil, false, nil
	}
	v, err = fut.Join()
	// A result that began at key was parked before the future resolved.
	e.mu.Lock()
	e.tent.Delete(key)
	e.mu.Unlock()
	return v, true, err
}

// helpGuess runs the guess at slot next on the calling goroutine, the
// frontier's, when the guess at slot runs on a worker and none has begun
// the one at next: the frontier would only wait for slot's, and decodes
// next beside it instead.
func (e *Engine) helpGuess(slot, next uint64) {
	e.mu.Lock()
	cur, ahead := e.guesses[slot], e.guesses[next]
	e.mu.Unlock()
	if cur != nil && ahead != nil && cur.Started() {
		ahead.Help()
	}
}

// settleGuesses waits for the guesses still running once the table is
// complete. Nobody will ask for them, but what they count (a cell with no
// block start in it, a decode nobody used) is settled by the time the
// step that completed the table returns.
func (e *Engine) settleGuesses() {
	for {
		var fut *pool.Future[any]
		e.mu.Lock()
		for _, f := range e.guesses {
			if f != nil {
				fut = f
				break
			}
		}
		e.mu.Unlock()
		if fut == nil {
			return
		}
		fut.Wait() //nolint:errcheck // the guess settles its own outcome
	}
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
		// A decode that Close overtook reads from a closed source, which
		// it may report as anything: the reader is told the engine closed.
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return err
	}
	if done {
		e.mu.Lock()
		e.complete = true
		e.mu.Unlock()
		e.settleGuesses()
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
// without blocking — the grower names its frontier offset (FrontierKey;
// gzip does) and a guess is parked under it — and a reader at off is
// within a quarter of the cache of the frontier. Primed spans share the
// LRU with the spans the reader touches on its way to them, so
// confirming further ahead pushes out the very spans needed next; each
// then decodes a second time on the reader's goroutine while the
// workers run further ahead still.
func (e *Engine) growReady(off int64) bool {
	f, ok := e.grower.(interface{ FrontierKey() (uint64, bool) })
	if !ok {
		return false
	}
	key, ok := f.FrontierKey()
	e.mu.Lock()
	defer e.mu.Unlock()
	return ok && !e.complete && !e.closed &&
		len(e.spans)-e.findSpanLocked(off) <= e.cfg.cacheSize/4 && e.tent.Contains(key)
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
