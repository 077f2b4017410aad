// Deferred sizes: the growing mode's second kind of user. A bzip2 file
// marks where its streams may start, a Zstandard frame may omit its
// content size: a scan that decodes nothing finds every compressed extent
// and leaves the decompressed sizes, and so the span table, to be found by
// decoding. The grower here makes the first decode of an extent also the
// one that sizes it — the frontier takes a speculative result parked under
// the extent's start offset, joins the decode in flight or decodes on
// demand, appends the span with the size that came out and hands the bytes
// to the cache — so a file is decoded once however large it is, and Open
// costs the scan. Both formats share it; what differs is whether an extent
// that fails to decode may have been cut short by a false start.

package spanengine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/filereader"
	"repro/internal/pool"
)

// ErrCorrupt reports compressed data a deferred-size engine could not
// decode at its frontier. The spans before it stay readable.
var ErrCorrupt = errors.New("spanengine: corrupt compressed data")

// newDeferred returns a growing engine over the extents of a scan that
// left sizes open (see ScanResult).
func newDeferred(src *filereader.SharedFileReader, codec Codec, scan ScanResult, cfg Config) (*Engine, error) {
	e, err := NewGrowing(src, &deferred{
		Codec:  codec,
		exts:   scan.Spans,
		merge:  scan.Candidates,
		issued: map[int64]bool{},
		flying: map[int64]*pool.Future[[]byte]{},
	}, scan.Flags, cfg)
	if err == nil {
		e.scanned = len(scan.Spans)
	}
	return e, err
}

// sized is a speculative decode of one extent, parked in the tentative
// store: its output or why there is none.
type sized struct {
	data []byte
	err  error
}

// deferred is the Grower of a codec whose scan found extents without
// sizes; the codec's own FormatTag and DecodeSpan make it a GrowingCodec.
type deferred struct {
	Codec
	exts  []Span // the scan's table: compressed extents, DecompSize where declared
	merge bool   // extent starts are candidates, see ScanResult.Candidates

	// mu guards the fields below. A holder of the engine's mutex may take
	// it (Speculate, GrowNext's append), and so may a holder of the
	// tentative store's (TentativeEvicted); nothing holding it takes
	// either.
	mu     sync.Mutex
	next   int                            // the frontier: first extent not in the table
	busy   bool                           // a GrowNext is obtaining extent next
	broken error                          // the frontier failed to decode, for good
	issued map[int64]bool                 // extents speculated on and not evicted since, by CompOff
	flying map[int64]*pool.Future[[]byte] // those of them still decoding
}

// decode decodes [off, end) of the source as one span of unknown size. A
// decode that finds the engine closed does not run: nobody is left to read
// what Close found queued.
func (d *deferred) decode(e *Engine, off, end int64) ([]byte, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	data, err := d.DecodeSpan(e.src, Span{CompOff: off, CompEnd: end, DecompSize: -1})
	if err == nil {
		e.mu.Lock()
		e.stats.SpanDecodes++
		e.stats.DecodedBytes += uint64(len(data))
		e.mu.Unlock()
	}
	return data, err
}

// Speculate implements Grower: candidate cand lies cand-len(table) extents
// past the frontier (exactly, unless a merge intervenes); decode that
// extent on the pool and park the outcome under its start offset. The
// caller holds e.mu.
func (d *deferred) Speculate(e *Engine, cand uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := d.next + int(cand) - len(e.spans)
	if k >= len(d.exts) || k == d.next && d.busy || d.broken != nil || len(d.flying) >= e.cfg.MaxPrefetch {
		return
	}
	x := d.exts[k]
	if d.issued[x.CompOff] {
		return
	}
	d.issued[x.CompOff] = true
	e.stats.PrefetchIssued++
	// The task parks its outcome before it leaves flying, so a frontier
	// that finds it in neither place knows it never ran.
	d.flying[x.CompOff] = pool.GoLow(e.pool, func() ([]byte, error) {
		data, err := d.decode(e, x.CompOff, x.CompEnd)
		e.PutTentative(uint64(x.CompOff), sized{data, err})
		d.mu.Lock()
		delete(d.flying, x.CompOff)
		d.mu.Unlock()
		return data, err
	})
}

// TentativeEvicted implements Grower: the extent may be speculated on
// again.
func (d *deferred) TentativeEvicted(key uint64) {
	d.mu.Lock()
	delete(d.issued, int64(key))
	d.mu.Unlock()
}

// transient reports a failure that says nothing about the data: the source
// could not be read, or the engine was closed under the decode.
func transient(err error) bool {
	return errors.Is(err, filereader.ErrIO) || errors.Is(err, ErrClosed)
}

// GrowNext implements Grower: one extent, or with merge as many as it takes
// to decode, becomes one span.
func (d *deferred) GrowNext(e *Engine) (bool, error) {
	d.mu.Lock()
	if d.next == len(d.exts) || d.broken != nil {
		err := d.broken
		d.mu.Unlock()
		return err == nil, err
	}
	k := d.next
	x := d.exts[k]
	d.busy = true
	fut := d.flying[x.CompOff]
	d.mu.Unlock()

	// The extent's own decode: in flight, parked, or made here — unless
	// nobody made one and its size is declared.
	var got sized
	decoded := true
	if fut != nil {
		got.data, got.err = fut.Join()
		e.TakeTentative(uint64(x.CompOff))
	} else if v, ok := e.TakeTentative(uint64(x.CompOff)); ok {
		got = v.(sized)
	} else if x.DecompSize < 0 {
		got.data, got.err = d.decode(e, x.CompOff, x.CompEnd)
	} else {
		decoded = false
	}
	for got.err != nil && d.merge && k+1 < len(d.exts) && !transient(got.err) {
		// Cut short by a candidate that starts nothing, if the data is
		// sound: decode on to the next one.
		k++
		got.data, got.err = d.decode(e, x.CompOff, d.exts[k].CompEnd)
	}
	if x.DecompSize >= 0 && (got.err != nil || int64(len(got.data)) != x.DecompSize) {
		// A declared size stands, as in a table that came from metadata
		// alone: what is wrong with the extent is for its readers to hear.
		got, decoded = sized{}, false
	}
	size := x.DecompSize
	if decoded {
		size = int64(len(got.data))
	}
	if err := got.err; err != nil {
		d.mu.Lock()
		d.busy = false
		if !transient(err) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
			d.broken = err
		}
		d.mu.Unlock()
		return false, err
	}

	// The table and the frontier move together under both locks, so
	// Speculate never maps a candidate through one without the other.
	e.mu.Lock()
	d.mu.Lock()
	i := len(e.spans)
	e.spans = append(e.spans, Span{CompOff: x.CompOff, CompEnd: d.exts[k].CompEnd, DecompOff: e.size, DecompSize: size})
	e.size += size
	if decoded && !e.closed {
		e.cache.Put(i, &entry{data: got.data})
	}
	delete(d.issued, x.CompOff)
	d.next, d.busy = k+1, false
	done := d.next == len(d.exts)
	d.mu.Unlock()
	e.mu.Unlock()
	return done, nil
}
