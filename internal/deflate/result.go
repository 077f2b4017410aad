package deflate

import "errors"

// ErrBadMarker reports a marker that points outside the supplied window,
// which indicates corruption or a wrong window.
var ErrBadMarker = errors.New("deflate: marker outside window")

// ResolveMarkers replaces the 16-bit symbols of src with bytes: values
// below MarkerBase are literals, the rest index into window, which holds
// the (up to) 32 KiB of decompressed data preceding the chunk. This is
// the second stage of two-stage decompression (paper §2.2); Table 2
// benchmarks it as "Marker replacement".
//
// dst must have length len(src). A window shorter than 32 KiB (chunk
// near the start of the stream) is aligned to the *end* of the virtual
// 32 KiB window, matching how markers were assigned.
//
// The whole symbol space goes through one translation table — identity
// for literals, the window behind them — so the loop has no branch on
// whether a symbol is a marker and runs at the same rate at any marker
// density (pugz resolves its chunks the same way).
func ResolveMarkers(dst []byte, src []uint16, window []byte) error {
	if len(window) > WindowSize {
		window = window[len(window)-WindowSize:]
	}
	shift := WindowSize - len(window)
	if shift > 0 {
		// Slots before a short window translate to nothing; a marker
		// into them is an error, never a zero byte.
		for _, v := range src {
			if v-MarkerBase < uint16(shift) {
				return ErrBadMarker
			}
		}
	}
	var lut [MarkerBase + WindowSize]byte
	for i := 0; i < MarkerBase; i++ {
		lut[i] = byte(i)
	}
	copy(lut[MarkerBase+shift:], window)
	dst = dst[:len(src)]
	for i, v := range src {
		if int(v) >= len(lut) {
			return ErrBadMarker
		}
		dst[i] = lut[v]
	}
	return nil
}

// HasMarkers reports whether any symbol in src is a marker.
func HasMarkers(src []uint16) bool {
	// MarkerBase is a power of two, so OR-ing symbols preserves "one of
	// them is a marker"; eight at a time keeps the marker-free scan, the
	// one that runs to the end, at load speed.
	for ; len(src) >= 8; src = src[8:] {
		if src[0]|src[1]|src[2]|src[3]|src[4]|src[5]|src[6]|src[7] >= MarkerBase {
			return true
		}
	}
	for _, v := range src {
		if v >= MarkerBase {
			return true
		}
	}
	return false
}

// ResolveRange writes the chunk's output bytes [lo, lo+len(dst)) into
// dst: the marked part through ResolveMarkers against window (only
// needed when the range touches it), the raw part with one copy.
func (cr *ChunkResult) ResolveRange(dst []byte, lo uint64, window []byte) error {
	if m := uint64(len(cr.Marked)); lo < m {
		n := min(uint64(len(dst)), m-lo)
		if err := ResolveMarkers(dst[:n], cr.Marked[lo:lo+n], window); err != nil {
			return err
		}
		dst, lo = dst[n:], m
	}
	copy(dst, cr.Raw[lo-uint64(len(cr.Marked)):])
	return nil
}

// WindowAt computes the resolved 32 KiB window for the position end
// within this chunk, given the resolved window that preceded the chunk.
// It resolves at most 32 Ki symbols, so it is cheap enough to run
// serially while full marker replacement happens in parallel.
func (cr *ChunkResult) WindowAt(end uint64, prevWindow []byte) ([]byte, error) {
	end = min(end, cr.TotalOut())
	n := int(min(end, WindowSize))
	// A chunk that produced fewer than 32 KiB up to end keeps the tail of
	// the previous window in front.
	keep := min(WindowSize-n, len(prevWindow))
	win := make([]byte, keep+n)
	copy(win, prevWindow[len(prevWindow)-keep:])
	if err := cr.ResolveRange(win[keep:], end-uint64(n), prevWindow); err != nil {
		return nil, err
	}
	return win, nil
}
