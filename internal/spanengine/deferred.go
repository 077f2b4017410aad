// Deferred sizes: the growing mode's second kind of user. A bzip2 file
// marks where its streams may start, a Zstandard frame may omit its
// content size: a scan that decodes nothing finds every compressed extent
// and leaves the decompressed sizes, and so the span table, to be found by
// decoding. The grower here makes the first decode of an extent also the
// one that sizes it — the frontier takes the engine's guess at the extent
// (TakeGuess, joining it if no worker has started it) or decodes on
// demand, appends the span with the size that came out and hands the
// bytes to the cache — so a file is decoded once however large it is, and
// Open costs the scan. Both formats share it; what differs is whether an
// extent that fails to decode may have been cut short by a false start.

package spanengine

import (
	"errors"
	"fmt"

	"repro/internal/filereader"
)

// ErrCorrupt reports compressed data a deferred-size engine could not
// decode at its frontier. The spans before it stay readable.
var ErrCorrupt = errors.New("spanengine: corrupt compressed data")

// ErrDamaged is what a codec's decode failure is, by errors.Is, when the
// data it failed on lies inside the extent it was given, before the
// extent's end: no candidate start cut the extent short, so the grower
// does not extend it over the next candidate, which would fail the same
// way again, having read more.
var ErrDamaged = errors.New("spanengine: damaged inside the extent")

// newDeferred returns a growing engine over the extents of a scan that
// left sizes open (see ScanResult).
func newDeferred(src *filereader.SharedFileReader, codec Codec, scan ScanResult, cfg Config) (*Engine, error) {
	e, err := NewGrowing(src, &deferred{Codec: codec, exts: scan.Spans, merge: scan.Candidates}, scan.Flags, cfg)
	if err != nil {
		return nil, err
	}
	e.scanned = len(scan.Spans)
	if c, ok := codec.(Chained); ok {
		e.chained, e.links = c, map[int]any{}
	}
	return e, nil
}

// sized is a guess at one extent, parked in the tentative store: its
// output, and a Chained codec's link, or why there is none.
type sized struct {
	data []byte
	link any
	err  error
}

// deferred is the Grower of a codec whose scan found extents without
// sizes; the codec's own FormatTag and DecodeSpan make it a GrowingCodec.
// Its slots are extents, by index in the scan's table.
type deferred struct {
	Codec
	exts  []Span // the scan's table: compressed extents, DecompSize where declared
	merge bool   // extent starts are candidates, see ScanResult.Candidates

	// Written by GrowNext under the engine's mutex, under which Slot reads
	// them; GrowNext calls are serialised.
	next   int   // the frontier: first extent not in the table
	broken error // the frontier failed to decode, for good
}

// decode decodes [off, end) of the source as one span of unknown size.
func (d *deferred) decode(e *Engine, off, end int64) sized {
	var got sized
	s := Span{CompOff: off, CompEnd: end, DecompSize: -1}
	if e.chained != nil {
		got.data, got.link, got.err = e.chained.DecodeLinked(e.src, s)
	} else {
		got.data, got.err = d.DecodeSpan(e.src, s)
	}
	if got.err == nil {
		e.mu.Lock()
		e.stats.SpanDecodes++
		e.stats.DecodedBytes += uint64(len(got.data))
		e.mu.Unlock()
	}
	return got
}

// Slot implements Grower: candidate cand lies cand-len(table) extents past
// the frontier (exactly, unless a merge intervenes).
func (d *deferred) Slot(e *Engine, cand uint64) (uint64, bool) {
	k := d.next + int(cand) - len(e.spans)
	return uint64(k), k < len(d.exts) && d.broken == nil
}

// Guess implements Grower: decode extent k, and park what came out of it,
// a failure included, under its start offset.
func (d *deferred) Guess(e *Engine, k uint64) func() (uint64, any, error) {
	e.stats.PrefetchIssued++
	x := d.exts[k]
	return func() (uint64, any, error) {
		return uint64(x.CompOff), d.decode(e, x.CompOff, x.CompEnd), nil
	}
}

// transient reports a failure that says nothing about the data: the source
// could not be read, or the engine was closed under the decode.
func transient(err error) bool {
	return errors.Is(err, filereader.ErrIO) || errors.Is(err, ErrClosed)
}

// GrowNext implements Grower: one extent, or with merge as many as it takes
// to decode, becomes one span.
func (d *deferred) GrowNext(e *Engine) (bool, error) {
	if d.next == len(d.exts) || d.broken != nil {
		return d.broken == nil, d.broken
	}
	k := d.next
	x := d.exts[k]

	// The extent's own decode: guessed, or made here — unless nobody made
	// one and its size is declared. While a worker makes it, the frontier
	// makes the next one's guess if no worker has begun that, so that with
	// one worker two extents decode at a time.
	e.helpGuess(uint64(k), uint64(k+1))
	v, guessed, err := e.TakeGuess(uint64(x.CompOff), uint64(k))
	got, decoded := sized{err: err}, true
	switch g, ok := v.(sized); {
	case ok:
		got = g
	case guessed: // the engine closed before the guess ran, says err
	case x.DecompSize < 0:
		got = d.decode(e, x.CompOff, x.CompEnd)
	default:
		decoded = false
	}
	for got.err != nil && d.merge && k+1 < len(d.exts) && !transient(got.err) && !errors.Is(got.err, ErrDamaged) {
		// Cut short by a candidate that starts nothing, if the data is
		// sound: decode on to the next one.
		k++
		got = d.decode(e, x.CompOff, d.exts[k].CompEnd)
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
		if !transient(err) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
			e.mu.Lock()
			d.broken = err
			e.mu.Unlock()
		}
		return false, err
	}

	// The table and the frontier move together, so Slot never maps a
	// candidate through one without the other.
	e.mu.Lock()
	defer e.mu.Unlock()
	i := len(e.spans)
	e.spans = append(e.spans, Span{CompOff: x.CompOff, CompEnd: d.exts[k].CompEnd, DecompOff: e.size, DecompSize: size})
	e.size += size
	if decoded && !e.closed {
		e.cache.Put(i, &entry{data: got.data})
		e.link(i, got.link)
	}
	d.next = k + 1
	return d.next == len(d.exts), nil
}
