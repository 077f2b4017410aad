package deflate

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Chunk scratch. DecodeChunk writes its output into buffers taken from
// the free lists below, and ChunkResult.Release hands them back, so the
// speculative pipeline stops paying a fresh zero-filled multi-megabyte
// allocation per chunk. Buffers are filed by floor(log2(capacity)); the
// lists are sync.Pools, so an idle reader's scratch is dropped by the
// collector after two cycles. A result that is never released is
// ordinary garbage.
const (
	minScratchClass = 16 // 64 Ki elements: smaller buffers are not worth filing
	maxScratchClass = 30
)

type scratchPools[T any] [maxScratchClass - minScratchClass + 1]sync.Pool

var (
	scratch16 scratchPools[uint16]
	scratch8  scratchPools[byte]
)

// get returns an empty buffer of capacity >= n. A miss allocates
// exactly n elements, which file under floor(log2(n)) on release, so
// three classes can hold a fit: that one, the one above it, where every
// buffer is large enough, and one more. The largest is tried first — a
// buffer that had to grow for one chunk comes back for the next request
// of the original size, and the growth is not paid again.
func (p *scratchPools[T]) get(n int) []T {
	n = max(n, 1<<minScratchClass)
	for c := min(bits.Len(uint(n-1))+1, maxScratchClass); c >= bits.Len(uint(n))-1; c-- {
		if b, _ := p[c-minScratchClass].Get().(*[]T); b != nil {
			if cap(*b) >= n {
				return (*b)[:0]
			}
			p[c-minScratchClass].Put(b)
		}
	}
	return make([]T, 0, n)
}

// put files s for reuse. The caller must hold the only reference.
func (p *scratchPools[T]) put(s []T) {
	c := bits.Len(uint(cap(s))) - 1
	if c < minScratchClass || c > maxScratchClass {
		return
	}
	s = s[:0]
	p[c-minScratchClass].Put(&s)
}

// regrow trades a full output buffer for one of at least twice the
// size. DecodeChunk created the old one and nothing else refers to it
// yet, so it is filed at once.
func (p *scratchPools[T]) regrow(s []T, n int) []T {
	need := len(s) + n
	ns := p.get(max(2*cap(s), need))[:need]
	copy(ns, s)
	p.put(s)
	return ns
}

// poisonReleased makes Release overwrite the buffers before filing
// them, so a reader still holding released scratch sees garbage at once
// instead of only after the next decode reuses it.
var poisonReleased atomic.Bool

// PoisonReleasedScratch is a test hook for buffer-ownership tests:
// while on, Release fills Marked with out-of-range markers and Raw with
// 0xA5 before giving them back.
func PoisonReleasedScratch(on bool) { poisonReleased.Store(on) }

// Release gives the result's Marked and Raw buffers back to the scratch
// free lists and clears both fields. Exactly one owner may call it,
// once nothing reads the buffers any more — slices of Marked or Raw
// handed out earlier die with it. Not calling it is always safe.
func (cr *ChunkResult) Release() {
	if poisonReleased.Load() {
		m, r := cr.Marked[:cap(cr.Marked)], cr.Raw[:cap(cr.Raw)]
		for i := range m {
			m[i] = 0xFFFF
		}
		for i := range r {
			r[i] = 0xA5
		}
	}
	scratch16.put(cr.Marked)
	scratch8.put(cr.Raw)
	cr.Marked, cr.Raw = nil, nil
}
