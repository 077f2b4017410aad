package deflate

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

// gzipCompress compresses data with the standard library at the given level.
func gzipCompress(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testPayloads builds inputs with different compression characteristics.
func testPayloads(seed int64, n int) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	random := make([]byte, n)
	rng.Read(random)

	text := make([]byte, 0, n)
	words := []string{"how", "much", "wood", "would", "a", "woodchuck", "chuck", "if", "could", "the", "quick", "brown", "fox"}
	for len(text) < n {
		text = append(text, words[rng.Intn(len(words))]...)
		text = append(text, ' ')
	}
	text = text[:n]

	runs := make([]byte, 0, n)
	for len(runs) < n {
		b := byte(rng.Intn(4))
		k := 1 + rng.Intn(300)
		for i := 0; i < k && len(runs) < n; i++ {
			runs = append(runs, b)
		}
	}

	// base64-style data: printable, almost no repeated substrings, so
	// Deflate compresses it with Huffman coding alone (paper §4.4).
	const b64alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	b64 := make([]byte, n)
	for i := range b64 {
		if i%77 == 76 {
			b64[i] = '\n'
			continue
		}
		b64[i] = b64alpha[rng.Intn(64)]
	}

	return map[string][]byte{"random": random, "text": text, "runs": runs, "base64": b64}
}

func TestDecompressGzipMatchesStdlib(t *testing.T) {
	for name, data := range testPayloads(1, 300_000) {
		for _, level := range []int{0, 1, 6, 9} {
			comp := gzipCompress(t, data, level)
			got, err := DecompressGzip(comp)
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s level %d: output mismatch (%d vs %d bytes)", name, level, len(got), len(data))
			}
		}
	}
}

func TestDecompressMultiMember(t *testing.T) {
	var comp bytes.Buffer
	var want []byte
	for i := 0; i < 5; i++ {
		part := testPayloads(int64(i), 50_000)["text"]
		comp.Write(gzipCompress(t, part, 6))
		want = append(want, part...)
	}
	got, err := DecompressGzip(comp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-member output mismatch")
	}
}

func TestDecompressEmpty(t *testing.T) {
	comp := gzipCompress(t, nil, 6)
	got, err := DecompressGzip(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestBlockStartsAreParseable(t *testing.T) {
	data := testPayloads(2, 400_000)["text"]
	comp := gzipCompress(t, data, 6)
	br := bitio.NewBitReaderBytes(comp)
	var d Decoder
	cr, err := d.DecodeChunk(br, ChunkConfig{Start: 0, Stop: StopAtEOF, StartsAtGzipHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.BlockStarts) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(cr.BlockStarts))
	}
	// Every recorded non-final block start must parse as a valid block
	// header at that exact offset.
	for _, bs := range cr.BlockStarts {
		if err := br.SeekBits(bs.Bit); err != nil {
			t.Fatal(err)
		}
		final, typ, err := ParseBlockHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		if final != bs.Final || typ != bs.Type {
			t.Fatalf("offset %d: got final=%v type=%v want final=%v type=%v",
				bs.Bit, final, typ, bs.Final, bs.Type)
		}
	}
}

// decodeAll decodes a gzip buffer and returns output plus block starts.
func decodeAll(t testing.TB, comp []byte) ([]byte, *ChunkResult) {
	t.Helper()
	br := bitio.NewBitReaderBytes(comp)
	var d Decoder
	cr, err := d.DecodeChunk(br, ChunkConfig{Start: 0, Stop: StopAtEOF, StartsAtGzipHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	return cr.Raw, cr
}

func TestTwoStageEquivalence(t *testing.T) {
	// Decode from a mid-stream block with an unknown window; after
	// marker replacement the output must equal the serial suffix.
	for name, data := range testPayloads(3, 400_000) {
		comp := gzipCompress(t, data, 6)
		want, cr := decodeAll(t, comp)
		if len(cr.BlockStarts) < 4 {
			continue // random data may end up in few stored blocks
		}
		for _, pick := range []int{1, len(cr.BlockStarts) / 2, len(cr.BlockStarts) - 1} {
			bs := cr.BlockStarts[pick]
			if bs.Final {
				continue
			}
			br := bitio.NewBitReaderBytes(comp)
			var d Decoder
			two, err := d.DecodeChunk(br, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, TwoStage: true})
			if err != nil {
				t.Fatalf("%s block %d: %v", name, pick, err)
			}
			// The window is the 32 KiB preceding the block.
			start := bs.DecompOffset
			wstart := uint64(0)
			if start > WindowSize {
				wstart = start - WindowSize
			}
			window := want[wstart:start]
			got := make([]byte, two.TotalOut())
			if err := two.ResolveRange(got, 0, window); err != nil {
				t.Fatalf("%s block %d: resolve: %v", name, pick, err)
			}
			if !bytes.Equal(got, want[start:]) {
				t.Fatalf("%s block %d: two-stage mismatch (%d vs %d bytes)",
					name, pick, len(got), len(want)-int(start))
			}
		}
	}
}

func TestStopConditionMatchesBlockStarts(t *testing.T) {
	data := testPayloads(4, 500_000)["text"]
	comp := gzipCompress(t, data, 6)
	want, full := decodeAll(t, comp)

	stop := uint64(len(comp)) * 8 / 2 // stop near the middle
	br := bitio.NewBitReaderBytes(comp)
	var d Decoder
	first, err := d.DecodeChunk(br, ChunkConfig{Start: 0, Stop: stop, StartsAtGzipHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.EndIsEOF {
		t.Fatal("expected mid-stream stop")
	}
	// EndBit must be a recorded non-final Dynamic/Stored block start.
	found := false
	var at BlockStart
	for _, bs := range full.BlockStarts {
		if bs.Bit == first.EndBit {
			found, at = true, bs
			break
		}
	}
	if !found {
		t.Fatalf("EndBit %d is not a known block start", first.EndBit)
	}
	if at.Final || at.Type == BlockFixed {
		t.Fatalf("stopped at non-qualifying block %+v", at)
	}
	if first.TotalOut() != at.DecompOffset {
		t.Fatalf("chunk output %d != block decomp offset %d", first.TotalOut(), at.DecompOffset)
	}

	// Continue from EndBit with the known window; total must match.
	wstart := uint64(0)
	if at.DecompOffset > WindowSize {
		wstart = at.DecompOffset - WindowSize
	}
	rest, err := d.DecodeChunk(br, ChunkConfig{
		Start: first.EndBit, Stop: StopAtEOF, Window: want[wstart:at.DecompOffset],
	})
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte(nil), first.Raw...), rest.Raw...)
	if !bytes.Equal(got, want) {
		t.Fatal("stitched output mismatch")
	}
}

func TestMarkerFallback(t *testing.T) {
	// Base64-style data compresses almost entirely via Huffman coding
	// with very few back-references, so markers stop propagating and the
	// decoder falls back to single-stage raw output (paper §4.4: "This
	// enables the decoder to replace the two-stage method with
	// single-stage decompression after a while").
	data := testPayloads(5, 400_000)["base64"]
	comp := gzipCompress(t, data, 6)
	_, full := decodeAll(t, comp)
	var bs BlockStart
	for _, b := range full.BlockStarts {
		if !b.Final && b.Type == BlockDynamic && b.DecompOffset > 0 {
			bs = b
			break
		}
	}
	if bs.Bit == 0 {
		t.Skip("no suitable mid-stream block")
	}
	br := bitio.NewBitReaderBytes(comp)
	var d Decoder
	cr, err := d.DecodeChunk(br, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Raw) == 0 {
		t.Fatal("expected fallback to single-stage decoding")
	}
	if len(cr.Marked) > 3*WindowSize {
		t.Fatalf("marked segment unexpectedly large: %d", len(cr.Marked))
	}
}

func TestResolveMarkers(t *testing.T) {
	window := make([]byte, WindowSize)
	for i := range window {
		window[i] = byte(i * 13)
	}
	src := []uint16{'a', MarkerBase + 0, MarkerBase + WindowSize - 1, 'z', MarkerBase + 100}
	dst := make([]byte, len(src))
	if err := ResolveMarkers(dst, src, window); err != nil {
		t.Fatal(err)
	}
	want := []byte{'a', window[0], window[WindowSize-1], 'z', window[100]}
	if !bytes.Equal(dst, want) {
		t.Fatalf("got %v want %v", dst, want)
	}

	// Short window: markers align to the end of the virtual window.
	short := window[WindowSize-100:]
	src = []uint16{MarkerBase + WindowSize - 1, MarkerBase + WindowSize - 100}
	dst = make([]byte, 2)
	if err := ResolveMarkers(dst, src, short); err != nil {
		t.Fatal(err)
	}
	if dst[0] != short[99] || dst[1] != short[0] {
		t.Fatalf("short window resolution wrong: %v", dst)
	}

	// Marker before the short window start is an error.
	if err := ResolveMarkers(dst, []uint16{MarkerBase + WindowSize - 101, 0}, short); err != ErrBadMarker {
		t.Fatalf("got %v", err)
	}
}

func TestWindowAt(t *testing.T) {
	cr := &ChunkResult{
		Marked: []uint16{10, 11, MarkerBase + 5, 13},
		Raw:    []byte{20, 21, 22},
	}
	window := make([]byte, WindowSize)
	window[WindowSize-1] = 99
	window[5] = 55
	// Every end: inside the marked part, on the seam, inside the raw part.
	resolved := []byte{10, 11, 55, 13, 20, 21, 22}
	for end := 0; end <= len(resolved); end++ {
		win, err := cr.WindowAt(uint64(end), window)
		if err != nil {
			t.Fatal(err)
		}
		if len(win) != WindowSize {
			t.Fatalf("end %d: window length %d", end, len(win))
		}
		// The tail is the resolved chunk output, what precedes it comes
		// from the previous window.
		if !bytes.Equal(win[WindowSize-end:], resolved[:end]) {
			t.Fatalf("end %d: window tail = %v want %v", end, win[WindowSize-end:], resolved[:end])
		}
		if win[WindowSize-end-1] != 99 {
			t.Fatalf("end %d: window prefix not taken from previous window", end)
		}
	}
	// A short previous window yields a short window, never padding.
	win, err := cr.WindowAt(2, window[WindowSize-3:])
	if err != nil || !bytes.Equal(win, []byte{0, 0, 99, 10, 11}) {
		t.Fatalf("short window = %v, %v", win, err)
	}
	// A marker the previous window does not cover fails the propagation.
	if _, err := cr.WindowAt(3, window[WindowSize-3:]); err != ErrBadMarker {
		t.Fatalf("marker before a short window: got %v", err)
	}
}

func TestGarbageNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		garbage := make([]byte, 4096)
		rng.Read(garbage)
		br := bitio.NewBitReaderBytes(garbage)
		var d Decoder
		for off := uint64(0); off < 64; off++ {
			_, err := d.DecodeChunk(br, ChunkConfig{
				Start: off, Stop: StopAtEOF, TwoStage: true, MaxDecompressed: 1 << 20,
			})
			_ = err // errors expected; panics are not
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOutputLimit(t *testing.T) {
	// Highly compressible data blows past a small output limit.
	data := bytes.Repeat([]byte{'x'}, 1<<20)
	comp := gzipCompress(t, data, 9)
	br := bitio.NewBitReaderBytes(comp)
	var d Decoder
	_, err := d.DecodeChunk(br, ChunkConfig{
		Start: 0, Stop: StopAtEOF, StartsAtGzipHeader: true, MaxDecompressed: 1000,
	})
	if err != ErrOutputLimit {
		t.Fatalf("got %v", err)
	}
}

func TestCorruptFooter(t *testing.T) {
	data := testPayloads(6, 10_000)["text"]
	comp := gzipCompress(t, data, 6)
	comp[len(comp)-2] ^= 0xFF // corrupt ISIZE
	if _, err := DecompressGzip(comp); err == nil {
		t.Fatal("expected ISIZE mismatch error")
	}
	comp = gzipCompress(t, data, 6)
	comp[len(comp)-6] ^= 0xFF // corrupt CRC
	if _, err := DecompressGzip(comp); err == nil {
		t.Fatal("expected CRC mismatch error")
	}
}

func TestLengthDistCodeHelpers(t *testing.T) {
	for length := MinMatchLen; length <= MaxMatchLen; length++ {
		sym, extra, val := LengthCode(length)
		if sym < 257 || sym > 285 {
			t.Fatalf("length %d: symbol %d", length, sym)
		}
		back := int(lengthBase[sym-257]) + int(val)
		if back != length {
			t.Fatalf("length %d: decodes to %d", length, back)
		}
		if uint8(extra) != lengthExtra[sym-257] {
			t.Fatalf("length %d: extra mismatch", length)
		}
	}
	for _, dist := range []int{1, 2, 3, 4, 5, 100, 257, 1024, 4096, 32768} {
		sym, _, val := DistCode(dist)
		if sym > 29 {
			t.Fatalf("dist %d: symbol %d", dist, sym)
		}
		back := int(distBase[sym]) + int(val)
		if back != dist {
			t.Fatalf("dist %d: decodes to %d", dist, back)
		}
	}
}

func TestRejectReasonStrings(t *testing.T) {
	for r := RejectReason(0); r < NumRejectReasons; r++ {
		if r.String() == "" {
			t.Fatalf("reason %d has no string", r)
		}
	}
}

func BenchmarkSerialDecode(b *testing.B) {
	// Part of Table 2/4 context: single-stage custom decoder bandwidth.
	data := testPayloads(7, 4<<20)["text"]
	comp := gzipCompress(b, data, 6)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressGzip(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoStageDecode(b *testing.B) {
	data := testPayloads(8, 4<<20)["text"]
	comp := gzipCompress(b, data, 6)
	_, full := decodeAll(b, comp)
	var bs BlockStart
	for _, c := range full.BlockStarts {
		if !c.Final && c.DecompOffset > 0 {
			bs = c
			break
		}
	}
	if bs.Bit == 0 {
		b.Skip("no mid-stream block")
	}
	br := bitio.NewBitReaderBytes(comp)
	var d Decoder
	b.SetBytes(int64(uint64(len(data)) - bs.DecompOffset))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeChunk(br, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, TwoStage: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkerReplacement(b *testing.B) {
	// Table 2 "Marker replacement" row.
	rng := rand.New(rand.NewSource(9))
	src := make([]uint16, 8<<20)
	for i := range src {
		if rng.Intn(10) == 0 {
			src[i] = MarkerBase + uint16(rng.Intn(WindowSize))
		} else {
			src[i] = uint16(rng.Intn(256))
		}
	}
	window := make([]byte, WindowSize)
	rng.Read(window)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ResolveMarkers(dst, src, window); err != nil {
			b.Fatal(err)
		}
	}
}
