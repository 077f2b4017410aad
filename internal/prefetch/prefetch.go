// Package prefetch decides which spans to decode ahead of need — the
// prefetcher of the paper's chunk fetcher (§3.2, Figure 5). Strategies
// work on span *indexes*, not byte offsets, and only propose: the engine
// drops candidates that are cached, in flight or past its bounds.
//
// One request — a ReadAt, a span fetch, a growth step — is one access,
// reported with the first and last span it touched. A stream is a run
// of accesses in which each begins in the span where the previous one
// ended, or in the one after it: a sequential reader, whatever the size
// of its reads. Adaptive remembers the heads of the most recent streams,
// so interleaved sequential readers on one engine (two downloads from a
// server, files extracted side by side from one TAR) each keep a ramp of
// their own, the FetchNextMultiStream behaviour.
//
// An access that continues no remembered stream is a jump. A jump
// proposes nothing: decoding a span nobody asked for costs as much as
// the one that was asked for, and after a random access the next access
// is as likely to be anywhere else. The new stream has to advance
// confirmAfter times before it proposes, and then ramps 1, 2, 4, 8, ...
// The one exception is the paper's: when the very first access a
// strategy sees is at span 0, whole-file decompression is the likely
// intent and the full degree is granted at once, so it starts fully
// parallel (and goes on with 4, 8, ... as it always has).
package prefetch

// Strategy proposes span indexes to prefetch based on recent accesses.
type Strategy interface {
	// Access records one request, which touched spans first..last.
	Access(first, last uint64)
	// Prefetch appends up to maxDegree candidate indexes to buf, best
	// first, for the stream of the latest access, and returns buf.
	Prefetch(buf []uint64, maxDegree int) []uint64
}

// Fixed always proposes the maxDegree spans after the last access — the
// FetchNextFixed strategy. No archive uses it: Adaptive is the engine's
// one strategy, and Fixed is what spanengine's tests put in its place
// when they need every access to propose the full depth.
type Fixed struct {
	last     uint64
	accessed bool
}

// NewFixed returns a Fixed strategy.
func NewFixed() *Fixed { return &Fixed{} }

// Access implements Strategy.
func (f *Fixed) Access(_, last uint64) { f.last, f.accessed = last, true }

// Prefetch implements Strategy.
func (f *Fixed) Prefetch(buf []uint64, maxDegree int) []uint64 {
	if !f.accessed {
		return buf
	}
	for i := 1; i <= maxDegree; i++ {
		buf = append(buf, f.last+uint64(i))
	}
	return buf
}

const (
	// maxStreams is how many stream heads Adaptive remembers; the least
	// recently used is forgotten. A stream also stops counting as
	// ramping once maxStreams accesses have passed without it. Every
	// head remembered is one more a random access can continue by chance
	// (over a file of 25 spans, one in five does with four heads), so the
	// memory is no larger than the readers one archive plausibly has.
	maxStreams = 4
	// confirmAfter is how often a stream that began with a jump has to
	// advance before it proposes, one span at first: of 200 uniform reads
	// over those 25 spans about ten get a span prefetched, over 40 spans
	// four.
	confirmAfter = 2
	// maxStreak keeps 1<<streak inside an int.
	maxStreak = 30
)

// stream is one remembered sequential reader.
type stream struct {
	head   uint64 // last span of its latest access
	streak int    // the stream proposes 1<<streak spans unless this is negative
	seen   uint64 // Adaptive.clock at its latest access
}

// continuedBy reports whether an access of spans first..last begins
// where s ended or in the span after, and does not end before it.
func (s stream) continuedBy(first, last uint64) bool {
	return (first == s.head || first == s.head+1) && last >= s.head
}

// Adaptive is the paper's default "exponentially incremented adaptive
// asynchronous" strategy (FetchNextAdaptive), kept per stream
// (FetchNextMultiStream): a stream's degree doubles with every advance
// and the maximum degree is shared among the streams that are ramping.
// See the package comment for what a stream is and why a jump proposes
// nothing.
type Adaptive struct {
	streams [maxStreams]stream // most recently accessed first
	n       int
	clock   uint64 // accesses so far
	grant   bool   // the next Prefetch proposes the full degree
}

// NewAdaptive returns an Adaptive strategy.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// Access implements Strategy.
func (a *Adaptive) Access(first, last uint64) {
	a.clock++
	pos := 0
	for pos < a.n && !a.streams[pos].continuedBy(first, last) {
		pos++
	}
	var s stream
	if pos < a.n {
		s = a.streams[pos]
		if last > s.head && s.streak < maxStreak {
			s.streak++
		}
	} else {
		// A jump: a new stream takes the place of the least recently used.
		a.n = min(a.n+1, maxStreams)
		pos = a.n - 1
		s.streak = -confirmAfter
		if a.clock == 1 && first == 0 {
			s.streak, a.grant = 1, true
		}
	}
	s.head, s.seen = last, a.clock
	copy(a.streams[1:pos+1], a.streams[:pos])
	a.streams[0] = s
}

// Prefetch implements Strategy.
func (a *Adaptive) Prefetch(buf []uint64, maxDegree int) []uint64 {
	if a.n == 0 || maxDegree <= 0 {
		return buf
	}
	s := a.streams[0]
	degree := maxDegree
	if a.grant {
		a.grant = false
	} else {
		if s.streak < 0 {
			return buf
		}
		ramping := 0
		for _, t := range a.streams[:a.n] {
			if t.streak >= 0 && a.clock-t.seen < maxStreams {
				ramping++
			}
		}
		degree = min(1<<s.streak, max(maxDegree/ramping, 1))
	}
	for i := 1; i <= degree; i++ {
		buf = append(buf, s.head+uint64(i))
	}
	return buf
}
