package deflate

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitio"
)

// pointsOf decodes a whole gzip stream, recording an in-block point
// every `every` bytes of output.
func pointsOf(t testing.TB, comp []byte, every uint64) ([]byte, *ChunkResult) {
	t.Helper()
	var d Decoder
	cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, PointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return cr.Raw, cr
}

// inBlockConfig is the decode from pt of the stream whose whole decode
// gave out and res: the header read through a reader of its own, the
// window the 32 KiB of the member in front of the point.
func inBlockConfig(comp, out []byte, res *ChunkResult, pt InBlockPoint) ChunkConfig {
	hdr := bitio.NewBitReaderBytes(comp)
	if err := hdr.SeekBits(pt.HeaderBit); err != nil {
		panic(err)
	}
	memberStart := uint64(0)
	for _, ev := range res.Members {
		if !ev.AtEOF && ev.HeaderEndBit <= pt.Bit {
			memberStart = ev.DecompOffset
		}
	}
	off := pt.DecompOffset
	lo := max(memberStart, off-min(off, WindowSize))
	return ChunkConfig{Start: pt.Bit, Stop: StopAtEOF, Header: hdr, Window: out[lo:off]}
}

// suffixDiff describes how got, decoded from pt, differs from the part
// of the whole decode res (output out) behind pt: bytes, end and the
// member events after the point. It is "" when they agree.
func suffixDiff(got *ChunkResult, out []byte, res *ChunkResult, pt InBlockPoint) string {
	off := pt.DecompOffset
	if !bytes.Equal(got.Raw, out[off:]) {
		return "output differs"
	}
	if got.EndBit != res.EndBit || got.EndIsEOF != res.EndIsEOF || got.TrailingData != res.TrailingData {
		return "ends differ"
	}
	var want []MemberEvent
	for _, ev := range res.Members {
		// A footer lies after the point unless the point is in the member
		// behind it.
		if ev.AtEOF || ev.HeaderEndBit > pt.Bit {
			ev.DecompOffset -= off
			want = append(want, ev)
		}
	}
	if !reflect.DeepEqual(got.Members, want) {
		return "member events differ"
	}
	return ""
}

// fixedStream is a two-block Fixed-Huffman gzip member of literals and
// matches: rng decides which, the plaintext comes out of the decode.
func fixedStream(rng *rand.Rand) []byte {
	c := newCraft().raw(gzipHeader...)
	for _, final := range []bool{false, true} {
		c.fixed(final)
		n := 0
		for i := 0; i < 3000; i++ {
			if n < 300 || rng.Intn(3) > 0 {
				c.lits(byte('a' + rng.Intn(26)))
				n++
				continue
			}
			length := 3 + rng.Intn(MaxMatchLen-2)
			c.match(length, 1+rng.Intn(min(n, WindowSize)))
			n += length
		}
		c.eob()
	}
	return c.raw(gzipFooter...).bytes()
}

// TestInBlockStartsMatchFullDecode: from every point a whole decode
// records, a decode with the window in front of it gives the rest of the
// whole decode — bytes, end bit, member events — whole or paused and
// resumed at seeded limits. Points come every few elements, so they
// include some right in front of an end-of-block: in the final block of
// a member with another behind it, and (where the slow path decodes
// element by element at the end of input) in the last one.
func TestInBlockStartsMatchFullDecode(t *testing.T) {
	payloads := testPayloads(14, 120_000)
	rng := rand.New(rand.NewSource(14))
	streams := map[string][]byte{
		"level 1": gzipCompress(t, payloads["text"], 1),
		"level 6": gzipCompress(t, payloads["text"], 6),
		"level 9": gzipCompress(t, payloads["runs"], 9),
		"huffman": gzipCompress(t, payloads["base64"][:40_000], gzip.HuffmanOnly),
		"fixed":   fixedStream(rng),
		// compress/flate ends a member with an empty stored block; this
		// one's final block is Fixed.
		"two members": append(fixedStream(rng), gzipCompress(t, payloads["base64"][:20_000], 6)...),
	}
	for name, comp := range streams {
		t.Run(name, func(t *testing.T) {
			out, res := pointsOf(t, comp, 1)
			if len(res.InBlock) < 100 {
				t.Fatalf("%d points recorded", len(res.InBlock))
			}
			// Block ends: where each block after the first starts, and
			// where each member ends.
			var ends []uint64
			for _, bs := range res.BlockStarts[1:] {
				ends = append(ends, bs.DecompOffset)
			}
			for _, ev := range res.Members {
				ends = append(ends, ev.DecompOffset)
			}
			nearEnd := func(pt InBlockPoint) bool {
				for _, e := range ends {
					if e >= pt.DecompOffset && e-pt.DecompOffset < MaxMatchLen {
						return true
					}
				}
				return false
			}
			tried, nearEOB, inFirstFinal := 0, 0, false
			blk := 0
			for i, pt := range res.InBlock {
				for blk+1 < len(res.BlockStarts) && res.BlockStarts[blk+1].Bit < pt.Bit {
					blk++
				}
				if bs := res.BlockStarts[blk]; pt.HeaderBit != bs.Bit || bs.Type == BlockStored || pt.Bit <= pt.HeaderBit || pt.DecompOffset < bs.DecompOffset {
					t.Fatalf("point %+v is not inside block %+v", pt, bs)
				}
				if i > 0 && (pt.DecompOffset <= res.InBlock[i-1].DecompOffset || pt.Bit <= res.InBlock[i-1].Bit) {
					t.Fatalf("point %+v does not follow %+v", pt, res.InBlock[i-1])
				}
				near := nearEnd(pt)
				if i%53 != 0 && !near {
					continue
				}
				tried++
				if near {
					nearEOB++
				}
				if len(res.Members) > 1 && pt.Bit < res.Members[0].HeaderEndBit && res.BlockStarts[blk].Final {
					inFirstFinal = true
				}
				var d Decoder
				got, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), inBlockConfig(comp, out, res, pt))
				if err != nil {
					t.Fatalf("from point %+v: %v", pt, err)
				}
				if diff := suffixDiff(got, out, res, pt); diff != "" {
					t.Fatalf("from point %+v: %s", pt, diff)
				}
				if i%4 == 0 {
					limits := every(1+uint64(rng.Intn(300)), uint64(len(out))-pt.DecompOffset, 1+uint64(rng.Intn(9000)))
					got, err := decodePaused(t, comp, inBlockConfig(comp, out, res, pt), limits)
					if err != nil {
						t.Fatalf("from point %+v, paused: %v", pt, err)
					}
					if diff := suffixDiff(got, out, res, pt); diff != "" {
						t.Fatalf("from point %+v, paused at %v: %s", pt, limits, diff)
					}
				}
			}
			if nearEOB == 0 {
				t.Fatal("no point within a match of an end of block")
			}
			if len(res.Members) > 1 && !inFirstFinal {
				t.Fatal("no point in the first member's final block")
			}
			t.Logf("%d points, %d decoded from, %d within a match of a block's end", len(res.InBlock), tried, nearEOB)
		})
	}
}

// TestPointsAtTheirOffsets: a point lies at or behind the offset it was
// due at, by less than one fast stretch, and never inside a stored
// block; a decode that records none runs the same.
func TestPointsAtTheirOffsets(t *testing.T) {
	data := testPayloads(15, 400_000)["text"]
	data = append(data, testPayloads(15, 70_000)["random"]...)
	comp := gzipCompress(t, data, 6)
	const every = 16 << 10
	out, res := pointsOf(t, comp, every)
	plain, _ := decodeAll(t, comp)
	if !bytes.Equal(out, plain) {
		t.Fatal("a decode recording points decodes differently")
	}
	stored := 0
	for _, bs := range res.BlockStarts {
		if bs.Type == BlockStored {
			stored++
		}
	}
	if stored == 0 {
		t.Fatal("fixture holds no stored block")
	}
	prev, prevBit := uint64(0), uint64(0)
	for _, pt := range res.InBlock {
		late := pt.DecompOffset >= prev+every+fastRoom
		for _, bs := range res.BlockStarts {
			if bs.Type == BlockStored && bs.Bit > prevBit && bs.Bit < pt.Bit {
				late = false // no point is due inside a stored block
			}
		}
		if pt.DecompOffset < prev+every || late {
			t.Fatalf("point at %d after one at %d", pt.DecompOffset, prev)
		}
		if bs := res.BlockStarts; pt.Bit > bs[len(bs)-stored].Bit {
			t.Fatalf("point %+v among the stored blocks", pt)
		}
		prev, prevBit = pt.DecompOffset, pt.Bit
	}
	if n := len(res.InBlock); n < 400_000/every-2 {
		t.Fatalf("%d points in 400 KB of text", n)
	}
}

// TestStartInStoredBlockFails: a header that is no Huffman block's
// cannot open one.
func TestStartInStoredBlockFails(t *testing.T) {
	comp := gzipCompress(t, testPayloads(16, 10_000)["random"], gzip.NoCompression)
	_, res := decodeAll(t, comp)
	hdr := bitio.NewBitReaderBytes(comp)
	if err := hdr.SeekBits(res.BlockStarts[0].Bit); err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if _, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ChunkConfig{Start: res.BlockStarts[0].Bit + 40, Stop: StopAtEOF, Header: hdr}); err == nil {
		t.Fatal("a decode opened a stored block from its header")
	}
}

// TestTwoStagePointsAreStarts: the marked loop's points are starts as
// good as the raw loop's, with the window resolved behind them.
func TestTwoStagePointsAreStarts(t *testing.T) {
	comp := gzipCompress(t, testPayloads(17, 300_000)["text"], 6)
	plain, whole := decodeAll(t, comp)
	var d Decoder
	res, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, TwoStage: true, PointEvery: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InBlock) < 50 {
		t.Fatalf("%d points", len(res.InBlock))
	}
	for _, pt := range res.InBlock {
		win, err := res.WindowAt(pt.DecompOffset, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(win, plain[pt.DecompOffset-uint64(len(win)):pt.DecompOffset]) {
			t.Fatalf("window at %d differs", pt.DecompOffset)
		}
		cfg := inBlockConfig(comp, plain, whole, pt)
		got, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), cfg)
		if err != nil {
			t.Fatalf("from point %+v: %v", pt, err)
		}
		if diff := suffixDiff(got, plain, whole, pt); diff != "" {
			t.Fatalf("from point %+v: %s", pt, diff)
		}
	}
}

// TestPausedInRestarts: wherever a decode pauses, PausedIn says where it
// stands, and a decode started there gives the rest of the stream — with
// the header the open Huffman block was parsed from, from a block
// boundary as it stands — and records the points inside the block it
// starts in under that header. A pause inside a stored block, which
// offers no start, resumes to the block's end, a boundary.
func TestPausedInRestarts(t *testing.T) {
	p := testPayloads(16, 150_000)
	comp := gzipCompress(t, append(append(p["text"], p["random"][:70_000]...), p["base64"]...), 6)
	const pointEvery = 1 << 10
	out, res := pointsOf(t, comp, pointEvery)
	rng := rand.New(rand.NewSource(16))
	kinds := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		var d Decoder
		got, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ChunkConfig{
			Stop: StopAtEOF, StartsAtGzipHeader: true, StopAtOutput: 1 + uint64(rng.Intn(len(out)-1)),
		})
		if err != nil || !got.Paused {
			t.Fatalf("trial %d: paused %v, %v", trial, got != nil && got.Paused, err)
		}
		inBlock, header, stored := d.PausedIn()
		if stored > 0 {
			kinds["stored"]++
			if got, err = d.Resume(got.TotalOut() + uint64(stored)); err != nil {
				t.Fatal(err)
			}
			if inBlock, _, stored = d.PausedIn(); !got.Paused || inBlock || stored != 0 {
				t.Fatalf("trial %d: resumed to the end of a stored block, in block %v with %d bytes left", trial, inBlock, stored)
			}
		}
		off := got.TotalOut()
		pt := InBlockPoint{Bit: got.EndBit, DecompOffset: off}
		cfg := ChunkConfig{Start: got.EndBit, Stop: StopAtEOF, Window: out[off-min(off, WindowSize) : off], PointEvery: pointEvery}
		if inBlock {
			kinds["huffman"]++
			pt.HeaderBit = header
			cfg.Header = bitio.NewBitReaderBytes(comp)
			if err := cfg.Header.SeekBits(header); err != nil {
				t.Fatal(err)
			}
		} else {
			kinds["boundary"]++
		}
		var d2 Decoder
		rest, err := d2.DecodeChunk(bitio.NewBitReaderBytes(comp), cfg)
		if err != nil {
			t.Fatalf("trial %d: from %+v: %v", trial, pt, err)
		}
		if diff := suffixDiff(rest, out, res, pt); diff != "" {
			t.Fatalf("trial %d: from %+v: %s", trial, pt, diff)
		}
		firstBlockEnd := uint64(len(rest.Raw))
		if len(rest.BlockStarts) > 0 {
			firstBlockEnd = rest.BlockStarts[0].DecompOffset
		}
		for _, q := range rest.InBlock {
			if q.DecompOffset < firstBlockEnd && (!inBlock || q.HeaderBit != header) {
				t.Fatalf("trial %d: point %+v in the block started from %+v", trial, q, pt)
			}
			if inBlock && q.DecompOffset < firstBlockEnd {
				kinds["points in the first block"]++
			}
		}
	}
	for _, k := range []string{"stored", "huffman", "boundary", "points in the first block"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s case among %v", k, kinds)
		}
	}
	t.Logf("%v", kinds)
}
