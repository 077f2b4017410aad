package deflate

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/workloads"
)

// resolveMarkersRef is the per-symbol definition of marker replacement
// the table kernel is checked against.
func resolveMarkersRef(dst []byte, src []uint16, window []byte) error {
	shift := WindowSize - len(window)
	for i, v := range src {
		if v < MarkerBase {
			dst[i] = byte(v)
			continue
		}
		idx := int(v-MarkerBase) - shift
		if idx < 0 || idx >= len(window) {
			return ErrBadMarker
		}
		dst[i] = window[idx]
	}
	return nil
}

// checkResolve runs both kernels and requires the same verdict and, on
// success, the same bytes.
func checkResolve(t *testing.T, src []uint16, window []byte) {
	t.Helper()
	want := make([]byte, len(src))
	wantErr := resolveMarkersRef(want, src, window)
	got := bytes.Repeat([]byte{0xEE}, len(src))
	gotErr := ResolveMarkers(got, src, window)
	if gotErr != wantErr {
		t.Fatalf("window %d, %d symbols: table kernel returned %v, reference %v", len(window), len(src), gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("window %d, %d symbols: table kernel output differs from the reference", len(window), len(src))
	}
}

func TestResolveMarkersTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := make([]byte, WindowSize)
	rng.Read(full)
	lit := func(n int) []uint16 {
		s := make([]uint16, n)
		for i := range s {
			s[i] = uint16(rng.Intn(256))
		}
		return s
	}
	mixed := func(n, winLen, every int) []uint16 {
		s := lit(n)
		for i := 0; i < n; i += every {
			s[i] = MarkerBase + uint16(WindowSize-1-rng.Intn(winLen))
		}
		return s
	}
	cases := []struct {
		name   string
		src    []uint16
		window []byte
	}{
		{"empty input", nil, full},
		{"literals only, no window", lit(1000), nil},
		{"literals only, full window", lit(70_001), full},
		{"every symbol a marker", mixed(40_000, WindowSize, 1), full},
		{"one marker in three", mixed(40_003, WindowSize, 3), full},
		{"window ends", []uint16{MarkerBase, MarkerBase + WindowSize - 1}, full},
		{"short window, markers inside", mixed(5000, 100, 7), full[WindowSize-100:]},
		{"short window, first slot", []uint16{'x', MarkerBase + WindowSize - 100}, full[WindowSize-100:]},
		{"short window, marker one before it", []uint16{'x', MarkerBase + WindowSize - 101, 'y'}, full[WindowSize-100:]},
		{"short window, marker at slot 0", []uint16{MarkerBase}, full[1:]},
		{"empty window, any marker", []uint16{'a', MarkerBase + WindowSize - 1}, nil},
		{"value past the marker range", []uint16{'a', MarkerBase + WindowSize}, full},
		{"largest value", []uint16{0xFFFF}, full},
		{"invalid value behind a valid prefix", append(mixed(9000, WindowSize, 2), MarkerBase+WindowSize+5), full},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkResolve(t, tc.src, tc.window) })
	}

	// An out-of-window marker is an error, never a zero byte.
	dst := []byte{0xEE}
	if err := ResolveMarkers(dst, []uint16{MarkerBase + 5}, full[WindowSize-10:]); err != ErrBadMarker {
		t.Fatalf("marker before a short window: got %v", err)
	}
}

// FuzzResolveMarkers compares the table kernel with the per-symbol
// reference on arbitrary symbols over full, short and empty windows.
func FuzzResolveMarkers(f *testing.F) {
	le := func(s ...uint16) []byte {
		b := make([]byte, 2*len(s))
		for i, v := range s {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		return b
	}
	f.Add(le('a', MarkerBase, MarkerBase+WindowSize-1, 'z'), uint16(WindowSize), int64(1))
	f.Add(le(MarkerBase+WindowSize-101, 0), uint16(100), int64(2))
	f.Add(le(MarkerBase+WindowSize-1, MarkerBase+WindowSize-100), uint16(100), int64(3))
	f.Add(le('q', MarkerBase+7), uint16(0), int64(4))
	f.Add(le(MarkerBase+WindowSize, 0xFFFF), uint16(WindowSize), int64(5))
	f.Fuzz(func(t *testing.T, symbols []byte, winLen uint16, seed int64) {
		window := make([]byte, min(int(winLen), WindowSize))
		rand.New(rand.NewSource(seed)).Read(window)
		src := make([]uint16, len(symbols)/2)
		for i := range src {
			src[i] = binary.LittleEndian.Uint16(symbols[2*i:])
		}
		checkResolve(t, src, window)
	})
}

// emitMarkedMatchRef is the per-symbol definition of a marked-mode
// back-reference (bounds already checked).
func emitMarkedMatchRef(out []uint16, dist, length int) []uint16 {
	for k := 0; k < length; k++ {
		if p := len(out); dist <= p {
			out = append(out, out[p-dist])
		} else {
			out = append(out, uint16(MarkerBase+WindowSize-(dist-p)))
		}
	}
	return out
}

func TestMarkedMatchCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	prefix := func(n int) []uint16 {
		s := make([]uint16, n)
		for i := range s {
			if rng.Intn(3) == 0 {
				s[i] = MarkerBase + uint16(rng.Intn(WindowSize))
			} else {
				s[i] = uint16(rng.Intn(256))
			}
		}
		return s
	}
	check := func(p, dist, length int) {
		t.Helper()
		st := &chunkState{histStart: -WindowSize, maxOut: math.MaxInt}
		base := prefix(p)
		want := emitMarkedMatchRef(append([]uint16(nil), base...), dist, length)
		// No spare capacity, so the copy also crosses a buffer growth.
		got, err := emitMarkedMatch(st, append(make([]uint16, 0, p), base...), dist, length)
		if err != nil {
			t.Fatalf("p=%d dist=%d length=%d: %v", p, dist, length, err)
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d dist=%d length=%d: %d symbols, want %d", p, dist, length, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d dist=%d length=%d: symbol %d is %d, want %d", p, dist, length, i, got[i], want[i])
			}
		}
	}
	lengths := []int{3, 4, 7, 8, 9, 31, 64, 258}
	// Overlapping run-generating copies: later reads see earlier writes.
	for dist := 1; dist <= 8; dist++ {
		for _, length := range lengths {
			check(dist, dist, length)
			check(300, dist, length)
		}
	}
	// Plain copies, touching and not touching the end of the output.
	for _, length := range lengths {
		check(1000, 258, length)
		check(1000, 1000, length)
	}
	// Matches that begin in the virtual window: wholly inside it, ending
	// exactly at the chunk start, and straddling into real output (where
	// the markers just written are copied again for dist < length).
	for _, p := range []int{0, 1, 5, 100} {
		for _, dist := range []int{p + 1, p + 2, p + 8, p + 200, p + 258, p + 1000, WindowSize, p + WindowSize} {
			if dist > p+WindowSize || dist > WindowSize {
				continue
			}
			for _, length := range lengths {
				check(p, dist, length)
			}
		}
	}

	// The bounds the copy relies on are still enforced.
	st := &chunkState{histStart: -WindowSize, maxOut: 10}
	if _, err := emitMarkedMatch(st, nil, WindowSize+1, 3); err != ErrCorrupt {
		t.Fatalf("distance past the virtual window: got %v", err)
	}
	if _, err := emitMarkedMatch(st, make([]uint16, 8), 1, 3); err != ErrOutputLimit {
		t.Fatalf("output limit: got %v", err)
	}
	st = &chunkState{histStart: 4, maxOut: math.MaxInt} // history cut at a member start
	if _, err := emitMarkedMatch(st, make([]uint16, 8), 5, 3); err != ErrCorrupt {
		t.Fatalf("distance past a member start: got %v", err)
	}
}

// TestFallbackBlockMatchesReference pins the block at which two-stage
// decoding switches to raw output. The reference tracks the newest
// marker symbol by symbol, the way the decoder used to: a symbol is a
// marker exactly when decoding the same blocks against two windows that
// differ in every byte yields different bytes there, and the switch
// happens at the first block boundary more than WindowSize past the
// newest one.
func TestFallbackBlockMatchesReference(t *testing.T) {
	data := workloads.SilesiaLike(6<<20, 7)
	comp := gzipCompress(t, data, 6)
	want, full := decodeAll(t, comp)
	var fellBack, stayedMarked int
	for pick := 8; pick < len(full.BlockStarts); pick += 9 {
		bs := full.BlockStarts[pick]
		if bs.Final || bs.DecompOffset < WindowSize {
			continue
		}
		decode := func(cfg ChunkConfig) *ChunkResult {
			cfg.Start, cfg.Stop = bs.Bit, bs.Bit+4<<20 // a chunk of 512 KiB
			var d Decoder
			cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), cfg)
			if err != nil {
				t.Fatalf("block %d: %v", pick, err)
			}
			return cr
		}
		window := want[bs.DecompOffset-WindowSize : bs.DecompOffset]
		flipped := make([]byte, WindowSize)
		for i, b := range window {
			flipped[i] = ^b
		}
		a, b := decode(ChunkConfig{Window: window}), decode(ChunkConfig{Window: flipped})

		wantMarked := len(a.Raw) // never falls back
		lastMarker, pos := -1, 0
		for _, blk := range a.BlockStarts {
			for ; pos < int(blk.DecompOffset); pos++ {
				if a.Raw[pos] != b.Raw[pos] {
					lastMarker = pos
				}
			}
			if pos-lastMarker > WindowSize {
				wantMarked = pos
				break
			}
		}

		two := decode(ChunkConfig{TwoStage: true})
		if len(two.Marked) != wantMarked {
			t.Fatalf("block %d: fallback after %d marked symbols, per-symbol reference says %d", pick, len(two.Marked), wantMarked)
		}
		if len(two.Raw) > 0 {
			fellBack++
		} else {
			stayedMarked++
		}
	}
	if fellBack == 0 || stayedMarked == 0 {
		t.Fatalf("fixture must cover both outcomes: %d chunks fell back, %d stayed marked", fellBack, stayedMarked)
	}
}
