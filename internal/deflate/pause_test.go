package deflate

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitio"
)

// decodePaused decodes cfg in as many pieces as limits says: each value
// is the StopAtOutput of the next piece, and once they run out (or stop
// increasing) the rest is decoded without one. Along the way it checks
// what a pause promises: at least the limit and less than a match beyond
// it, and bytes handed out earlier still there, unchanged.
func decodePaused(t testing.TB, comp []byte, cfg ChunkConfig, limits []uint64) (*ChunkResult, error) {
	t.Helper()
	var d Decoder
	next := func() uint64 {
		if len(limits) == 0 {
			return 0
		}
		l := limits[0]
		limits = limits[1:]
		return l
	}
	cfg.StopAtOutput = next()
	cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ownHeader(cfg))
	var handed, kept []byte // the previous piece's Raw, and a copy of it
	for err == nil && cr.Paused {
		limit := d.cfg.StopAtOutput
		if n := cr.TotalOut(); n < limit || n >= limit+MaxMatchLen {
			t.Fatalf("paused with %d bytes at limit %d", n, limit)
		}
		if !bytes.Equal(handed, kept) || !bytes.HasPrefix(cr.Raw, kept) {
			t.Fatalf("bytes handed out at an earlier pause changed (limit %d)", limit)
		}
		handed, kept = cr.Raw, bytes.Clone(cr.Raw)
		l := next()
		if l != 0 && l <= limit {
			l, limits = 0, nil
		}
		cr, err = d.Resume(l)
	}
	if err == nil && (!bytes.Equal(handed, kept) || !bytes.HasPrefix(cr.Raw, kept)) {
		t.Fatal("bytes handed out at the last pause changed")
	}
	return cr, err
}

// requireSameDecode fails unless the paused decode of cfg under limits
// yields what the unpaused one does: output, end position and events.
func requireSameDecode(t testing.TB, comp []byte, cfg ChunkConfig, limits []uint64) {
	t.Helper()
	var d Decoder
	want, wantErr := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ownHeader(cfg))
	got, err := decodePaused(t, comp, cfg, limits)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("limits %v: paused decode: %v, unpaused: %v", limits, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got.Raw, want.Raw) {
		t.Fatalf("limits %v: output differs (%d bytes, want %d)", limits, len(got.Raw), len(want.Raw))
	}
	if got.EndBit != want.EndBit || got.EndIsEOF != want.EndIsEOF || got.TrailingData != want.TrailingData {
		t.Fatalf("limits %v: ended at bit %d (eof %v, trailing %v), want %d (%v, %v)", limits,
			got.EndBit, got.EndIsEOF, got.TrailingData, want.EndBit, want.EndIsEOF, want.TrailingData)
	}
	if !reflect.DeepEqual(got.Members, want.Members) {
		t.Fatalf("limits %v: member events %+v, want %+v", limits, got.Members, want.Members)
	}
	if !reflect.DeepEqual(got.BlockStarts, want.BlockStarts) {
		t.Fatalf("limits %v: block starts differ", limits)
	}
}

// ownHeader gives a decode that starts inside a block a header reader
// of its own, so that one config serves several decodes. The readers in
// these tests are over memory: a copy shares nothing that reading
// changes.
func ownHeader(cfg ChunkConfig) ChunkConfig {
	if cfg.Header != nil {
		h := *cfg.Header
		cfg.Header = &h
	}
	return cfg
}

// around returns the limits that put a pause just before, on and just
// after each position.
func around(positions ...uint64) []uint64 {
	var out []uint64
	for _, p := range positions {
		for _, l := range []uint64{p - 1, p, p + 1} {
			if l > 0 && l < 1<<62 && (len(out) == 0 || l > out[len(out)-1]) {
				out = append(out, l)
			}
		}
	}
	return out
}

// every returns the limits from, from+step, ... below to.
func every(from, to, step uint64) []uint64 {
	var out []uint64
	for l := from; l < to; l += step {
		out = append(out, l)
	}
	return out
}

func gzipMembers(t testing.TB, level int, parts ...[]byte) []byte {
	var all []byte
	for _, p := range parts {
		all = append(all, gzipCompress(t, p, level)...)
	}
	return all
}

func TestPauseResume(t *testing.T) {
	payloads := testPayloads(11, 200_000)
	whole := ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true}

	text := gzipCompress(t, testPayloads(11, 1_000_000)["text"], 6)
	_, textRes := decodeAll(t, text)
	var blockEnds []uint64
	for _, bs := range textRes.BlockStarts[1:] {
		blockEnds = append(blockEnds, bs.DecompOffset)
	}
	if len(blockEnds) < 2 {
		t.Fatalf("text fixture has %d blocks", len(textRes.BlockStarts))
	}

	run := gzipCompress(t, bytes.Repeat([]byte{'a'}, 5000), 9) // matches of 258 at distance 1
	stored := gzipCompress(t, payloads["random"], gzip.NoCompression)
	members := gzipMembers(t, 6, payloads["text"][:70_000], nil, payloads["runs"][:50_000], payloads["base64"][:30_000])

	// A chunk that starts in the middle of a stream with its window: the
	// stream repeats 30000 random bytes, every sixteenth changed, so it is
	// short matches at a distance of 30000 and those right behind any
	// pause reach back past the chunk's start.
	rep := bytes.Clone(payloads["random"][:30_000])
	var farPlain []byte
	for i := 0; i < 10; i++ {
		for j := i; j < len(rep); j += 16 {
			rep[j]++
		}
		farPlain = append(farPlain, rep...)
	}
	far := gzipCompress(t, farPlain, 6)
	farOut, farRes := decodeAll(t, far)
	var mid ChunkConfig
	for _, bs := range farRes.BlockStarts {
		if bs.DecompOffset > 32_000 && !bs.Final {
			mid = ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, Window: farOut[:bs.DecompOffset]}
			break
		}
	}
	if mid.Start == 0 {
		t.Fatal("no block starts in the repeated half of the far-match fixture")
	}

	for _, tc := range []struct {
		name   string
		comp   []byte
		cfg    ChunkConfig
		limits []uint64
	}{
		{"one byte at a time", text, whole, every(1, 700, 1)},
		{"one limit, one byte", text, whole, []uint64{1}},
		{"mid literal run", gzipCompress(t, payloads["base64"], 6), whole, every(5, 3000, 37)},
		{"inside a 258-byte match", run, whole, []uint64{2, 100, 259, 260, 600, 1000, 4999}},
		{"match-sized steps", text, whole, every(257, 20_000, 258)},
		{"inside a stored block", stored, whole, []uint64{1, 1000, 65_534, 65_535, 65_536, 70_000, 199_999}},
		{"at each block's last element", text, whole, around(blockEnds...)},
		{"across final blocks and member boundaries", members, whole, around(69_999, 70_000, 120_000, 149_999)},
		{"at the end of the last member", members, whole, []uint64{150_000}},
		{"first match after resume reaches into the window", far, mid, every(1, 300, 1)},
		{"window, coarse", far, mid, every(1000, 25_000, 999)},
		{"limit beyond the end", text, whole, []uint64{100, 1 << 40}},
		{"block stop condition behind a pause", text, ChunkConfig{Stop: textRes.BlockStarts[2].Bit, StartsAtGzipHeader: true}, around(blockEnds[0], blockEnds[1])},
	} {
		t.Run(tc.name, func(t *testing.T) { requireSameDecode(t, tc.comp, tc.cfg, tc.limits) })
	}
}

// TestPauseStopsInsideBlock pins the point of the exercise: a limit far
// inside one large block stops there, not at the block's end.
func TestPauseStopsInsideBlock(t *testing.T) {
	data := testPayloads(12, 400_000)["text"]
	comp := gzipCompress(t, data, 6)
	var d Decoder
	cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, StopAtOutput: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Paused || len(cr.Raw) < 1000 || len(cr.Raw) >= 1000+MaxMatchLen || !bytes.Equal(cr.Raw, data[:len(cr.Raw)]) {
		t.Fatalf("paused=%v with %d bytes at limit 1000", cr.Paused, len(cr.Raw))
	}
	if cap(cr.Raw) > 4096 {
		t.Fatalf("a 1000-byte prefix holds a %d-byte buffer", cap(cr.Raw))
	}
	if _, err := d.Resume(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resume(0); err == nil {
		t.Fatal("Resume after the decode ended did not fail")
	}
}

// FuzzPauseResume decodes a stream in pieces, at a seeded sequence of
// pause limits, and requires what the unpaused decode gives: the same
// bytes, end position, member and block events, or an error where it
// errs. The stream is either the fuzzer's bytes as they are (mostly
// garbage, which must fail the same way paused or not), or those bytes
// compressed into one or two gzip members at a seeded level; a seeded
// share of the compressed cases start in the middle, with the window in
// front of them: at a block, or at a point inside one that a decode
// recording a point every seeded number of bytes gave.
func FuzzPauseResume(f *testing.F) {
	// Small seeds: the fuzzer minimises what it finds by the byte.
	for name, p := range testPayloads(13, 3000) {
		f.Add(p, uint64(len(name)), false)
		f.Add(p, uint64(7*len(name)), false)
	}
	f.Add(gzipCompress(f, []byte("raw stream input"), 6), uint64(3), true)
	f.Add([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff, 0x03, 0x00}, uint64(4), true)

	f.Fuzz(func(t *testing.T, data []byte, seed uint64, raw bool) {
		if len(data) > 1<<20 {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		comp := data
		cfg := ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, MaxDecompressed: 8 << 20}
		if !raw {
			level := []int{gzip.NoCompression, gzip.HuffmanOnly, 1, 6, 9}[rng.Intn(5)]
			cut := len(data)
			if rng.Intn(2) == 0 {
				cut = rng.Intn(len(data) + 1)
			}
			comp = gzipMembers(t, level, data[:cut], data[cut:])
			switch out, res := decodeAll(t, comp); rng.Intn(3) {
			case 0:
				bs := res.BlockStarts[rng.Intn(len(res.BlockStarts))]
				// The window may not reach across a member boundary.
				memberStart := uint64(0)
				for _, ev := range res.Members {
					if ev.DecompOffset <= bs.DecompOffset {
						memberStart = ev.DecompOffset
					}
				}
				lo := max(memberStart, bs.DecompOffset-min(bs.DecompOffset, WindowSize))
				cfg = ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, Window: out[lo:bs.DecompOffset]}
			case 1:
				out, res := pointsOf(t, comp, 1+uint64(rng.Intn(1000)))
				if len(res.InBlock) > 0 {
					cfg = inBlockConfig(comp, out, res, res.InBlock[rng.Intn(len(res.InBlock))])
				}
			}
		}
		var limits []uint64
		limit := uint64(0)
		for i := rng.Intn(40); i > 0; i-- {
			switch rng.Intn(4) {
			case 0:
				limit++
			case 1:
				limit += uint64(rng.Intn(2 * MaxMatchLen))
			default:
				limit += uint64(rng.Intn(len(data) + 2))
			}
			limits = append(limits, limit)
		}
		requireSameDecode(t, comp, cfg, limits)
	})
}

// TestPauseAtPointPast: a decode that may read only so far pauses at
// the first point it records past that bit, which is a point the
// unpaused decode records too, unless the point closes its block; and
// resumed, point by point, it gives what the unpaused decode gives,
// points included.
func TestPauseAtPointPast(t *testing.T) {
	payloads := testPayloads(14, 300_000)
	for _, tc := range []struct {
		name  string
		comp  []byte
		every uint64
	}{
		{"text", gzipCompress(t, payloads["text"], 6), 5000},
		{"huffman only", gzipCompress(t, payloads["base64"], gzip.HuffmanOnly), 3000},
		{"runs, points at every element", gzipCompress(t, payloads["runs"], 9), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, want := pointsOf(t, tc.comp, tc.every)
			if len(want.InBlock) < 4 {
				t.Fatalf("%d points", len(want.InBlock))
			}
			// blockEnd reports whether nothing but the end of its block
			// follows a point.
			blockEnd := map[uint64]bool{want.TotalOut(): true}
			for _, bs := range want.BlockStarts {
				blockEnd[bs.DecompOffset] = true
			}
			step := max(len(want.InBlock)/7, 1)
			for i := 0; i < len(want.InBlock); i += step {
				for _, past := range []uint64{want.InBlock[i].Bit - 1, want.InBlock[i].Bit, want.InBlock[i].Bit + 1} {
					var d Decoder
					got, err := d.DecodeChunk(bitio.NewBitReaderBytes(tc.comp), ChunkConfig{
						Stop: StopAtEOF, StartsAtGzipHeader: true, PointEvery: tc.every, PauseAtPointPast: past,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got.Paused {
						n := len(got.InBlock)
						if n == 0 || !reflect.DeepEqual(got.InBlock, want.InBlock[:n]) || got.EndBit != got.InBlock[n-1].Bit ||
							got.TotalOut() != got.InBlock[n-1].DecompOffset || got.EndBit < past {
							t.Fatalf("past %d: paused at bit %d, not at a point of the whole decode past it", past, got.EndBit)
						}
						for _, pt := range got.InBlock[:n-1] {
							if pt.Bit >= past && !blockEnd[pt.DecompOffset] {
								t.Fatalf("past %d: went on past the point at bit %d", past, pt.Bit)
							}
						}
						if inBlock, header, _ := d.PausedIn(); !inBlock || header != got.InBlock[n-1].HeaderBit {
							t.Fatalf("past %d: PausedIn = %v, %d at a point in the block at %d", past, inBlock, header, got.InBlock[n-1].HeaderBit)
						}
					}
					for err == nil && got.Paused {
						got, err = d.Resume(0)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Raw, want.Raw) || got.EndBit != want.EndBit || !reflect.DeepEqual(got.InBlock, want.InBlock) ||
						!reflect.DeepEqual(got.BlockStarts, want.BlockStarts) || !reflect.DeepEqual(got.Members, want.Members) {
						t.Fatalf("past %d: the decode resumed point by point differs from the whole", past)
					}
				}
			}
		})
	}
}
