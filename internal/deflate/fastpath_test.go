package deflate

// Tests that pin the fast stretches of the two block loops to the
// per-element path beside them: the same streams decoded with the fast
// path starved of input, pauses swept across every point where a fast
// stretch hands over, crafted streams whose errors and output lengths
// were recorded at the commit before the loops were rewritten, and every
// short distance against every length.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// craft writes Deflate streams symbol by symbol, including ones no
// compressor emits.
type craft struct {
	buf       bytes.Buffer
	bw        *bitio.BitWriter
	lit, dist *huffman.Encoder
}

func newCraft() *craft {
	c := &craft{}
	c.bw = bitio.NewBitWriter(&c.buf)
	return c
}

func mustEncoder(lengths []uint8) *huffman.Encoder {
	enc, err := huffman.NewEncoder(lengths)
	if err != nil {
		panic(err)
	}
	return enc
}

func blockHeader(final bool, typ BlockType) uint64 {
	if final {
		return uint64(typ)<<1 | 1
	}
	return uint64(typ) << 1
}

// fixed opens a Fixed block, whose alphabets have codes for the symbols
// that may not occur (286, 287; distances 30, 31).
func (c *craft) fixed(final bool) *craft {
	c.bw.WriteBits(blockHeader(final, BlockFixed), 3)
	c.lit, c.dist = mustEncoder(fixedLitLengths), mustEncoder(fixedDistLengths)
	return c
}

// dynamic opens a Dynamic block with the given code lengths, at least 257
// literal/length ones of at least two different values, written one by
// one without the run-length symbols.
func (c *craft) dynamic(final bool, litLens, distLens []uint8) *craft {
	c.bw.WriteBits(blockHeader(final, BlockDynamic), 3)
	all := append(append([]uint8{}, litLens...), distLens...)
	freq := make([]int, NumPrecodeSymbols)
	for _, l := range all {
		freq[l]++
	}
	preLens, err := huffman.BuildLengths(freq, MaxPrecodeLen)
	if err != nil {
		panic(err)
	}
	pre := mustEncoder(preLens)
	c.bw.WriteBits(uint64(len(litLens)-257), 5)
	c.bw.WriteBits(uint64(len(distLens)-1), 5)
	c.bw.WriteBits(NumPrecodeSymbols-4, 4)
	for _, s := range precodeOrder {
		c.bw.WriteBits(uint64(preLens[s]), 3)
	}
	for _, l := range all {
		c.bw.WriteBits(uint64(pre.Codes[l]), uint(preLens[l]))
	}
	c.lit, c.dist = mustEncoder(litLens), mustEncoder(distLens)
	return c
}

func (c *craft) sym(s int) *craft {
	c.bw.WriteBits(uint64(c.lit.Codes[s]), uint(c.lit.Lengths[s]))
	return c
}

func (c *craft) dsym(s int) *craft {
	c.bw.WriteBits(uint64(c.dist.Codes[s]), uint(c.dist.Lengths[s]))
	return c
}

func (c *craft) bits(v uint64, n uint) *craft {
	c.bw.WriteBits(v, n)
	return c
}

func (c *craft) lits(b ...byte) *craft {
	for _, x := range b {
		c.sym(int(x))
	}
	return c
}

func (c *craft) match(length, dist int) *craft {
	s, n, v := LengthCode(length)
	c.sym(int(s)).bits(uint64(v), uint(n))
	s, n, v = DistCode(dist)
	return c.dsym(int(s)).bits(uint64(v), uint(n))
}

func (c *craft) eob() *craft { return c.sym(EndOfBlock) }

// raw byte-aligns the stream and appends p: a gzip header or footer, or
// bytes behind the stream that keep its end away from the end of input.
func (c *craft) raw(p ...byte) *craft {
	c.bw.AlignToByte()
	c.bw.WriteBytes(p)
	return c
}

func (c *craft) bytes() []byte {
	if err := c.bw.Flush(); err != nil {
		panic(err)
	}
	return c.buf.Bytes()
}

var (
	gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	gzipFooter = make([]byte, 8)                // DecodeChunk parses it and checks nothing
	padding    = bytes.Repeat([]byte{0xff}, 40) // not a gzip header: trailing data
)

// matchStream is a final Fixed block of prefix, one match and suffix,
// with a footer and bytes behind it, so that all of it decodes on the
// fast path.
func matchStream(prefix []byte, length, dist int, suffix []byte) []byte {
	return newCraft().fixed(true).lits(prefix...).match(length, dist).lits(suffix...).eob().raw(gzipFooter...).raw(padding...).bytes()
}

// starvedReaders returns bit readers over comp whose buffered windows
// are too small for a fast stretch ever to start (it needs fastInput
// bytes), just large enough for one iteration, and small enough that
// stretches hand over to the per-element path every few symbols, at
// shifting alignments.
func starvedReaders(comp []byte) []*bitio.BitReader {
	var rs []*bitio.BitReader
	for _, window := range []int{8, fastInput - 1, fastInput, fastInput + 1, 40, 1000} {
		rs = append(rs, bitio.NewBitReaderSize(bytes.NewReader(comp), int64(len(comp)), window))
	}
	return rs
}

// resultDiff describes the first difference between two chunk results.
func resultDiff(got, want *ChunkResult) string {
	switch {
	case !bytes.Equal(got.Raw, want.Raw):
		return fmt.Sprintf("raw output differs (%d bytes, want %d)", len(got.Raw), len(want.Raw))
	case !reflect.DeepEqual(got.Marked, want.Marked):
		return fmt.Sprintf("marked output differs (%d symbols, want %d)", len(got.Marked), len(want.Marked))
	case got.EndBit != want.EndBit || got.EndIsEOF != want.EndIsEOF || got.TrailingData != want.TrailingData || got.Paused != want.Paused:
		return fmt.Sprintf("ended at bit %d (eof %v, trailing %v, paused %v), want %d (%v, %v, %v)",
			got.EndBit, got.EndIsEOF, got.TrailingData, got.Paused, want.EndBit, want.EndIsEOF, want.TrailingData, want.Paused)
	case !reflect.DeepEqual(got.BlockStarts, want.BlockStarts):
		return "block starts differ"
	case !reflect.DeepEqual(got.Members, want.Members):
		return fmt.Sprintf("member events %+v, want %+v", got.Members, want.Members)
	}
	return ""
}

// requireSameStarved decodes cfg over comp from memory, where the fast
// stretches do nearly all the work, and through each of the starved
// readers, and requires the same result or the same failure.
func requireSameStarved(t testing.TB, comp []byte, cfg ChunkConfig) {
	t.Helper()
	var d Decoder
	want, wantErr := d.DecodeChunk(bitio.NewBitReaderBytes(comp), cfg)
	for i, br := range starvedReaders(comp) {
		got, err := d.DecodeChunk(br, cfg)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("starved reader %d: %v, from memory: %v", i, err, wantErr)
		}
		if err != nil {
			continue
		}
		if diff := resultDiff(got, want); diff != "" {
			t.Fatalf("starved reader %d: %s", i, diff)
		}
	}
}

// TestStarvedFastPathSameDecode runs the fixtures of deflate_test.go and
// pause_test.go through requireSameStarved (those of edgecase_test.go go
// through it in their own helper).
func TestStarvedFastPathSameDecode(t *testing.T) {
	whole := ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true}
	size := 120_000
	if testing.Short() {
		size = 30_000
	}
	for name, data := range testPayloads(1, size) {
		for _, level := range []int{gzip.NoCompression, gzip.HuffmanOnly, 1, 6, 9} {
			t.Run(fmt.Sprintf("%s level %d", name, level), func(t *testing.T) {
				comp := gzipCompress(t, data, level)
				requireSameStarved(t, comp, whole)
				out, full := decodeAll(t, comp)
				// Two-stage from a block in the middle, and single-stage from
				// it with the window, up to a block stop and up to a pause.
				bs := full.BlockStarts[len(full.BlockStarts)/2]
				if bs.Final || bs.DecompOffset == 0 {
					return
				}
				requireSameStarved(t, comp, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, TwoStage: true})
				window := out[bs.DecompOffset-min(bs.DecompOffset, WindowSize) : bs.DecompOffset]
				rest := uint64(len(out)) - bs.DecompOffset
				requireSameStarved(t, comp, ChunkConfig{Start: bs.Bit, Stop: bs.Bit + 100_000, Window: window})
				requireSameStarved(t, comp, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, Window: window, StopAtOutput: rest / 2})
				requireSameStarved(t, comp, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, Window: window, MaxDecompressed: rest / 2})
				requireSameStarved(t, comp, ChunkConfig{Start: bs.Bit, Stop: StopAtEOF, Window: window[:len(window)/2]})
			})
		}
	}

	payloads := testPayloads(11, size)
	members := gzipMembers(t, 6, payloads["text"], nil, payloads["text"], payloads["runs"], payloads["text"][:200], payloads["base64"])
	run := gzipCompress(t, bytes.Repeat([]byte{'a'}, 5000), 9)
	garbage := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(garbage)
	for _, tc := range []struct {
		name string
		comp []byte
		cfg  ChunkConfig
	}{
		{"members, one header three times and a fixed block between", members, whole},
		{"members, stop before the third", members, ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, StopBeforeMember: uint64(len(members)) * 4}},
		{"empty", gzipCompress(t, nil, 6), whole},
		{"matches of 258 at distance 1", run, whole},
		{"output limit", gzipCompress(t, bytes.Repeat([]byte{'x'}, 1<<20), 9), ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, MaxDecompressed: 1000}},
		{"garbage", garbage, ChunkConfig{Start: 3, Stop: StopAtEOF, TwoStage: true, MaxDecompressed: 1 << 20}},
		{"cut short", run[:len(run)-11], whole},
	} {
		t.Run(tc.name, func(t *testing.T) { requireSameStarved(t, tc.comp, tc.cfg) })
	}
}

// TestPauseAroundHandover sweeps a pause across every offset within
// fastRoom (MaxMatchLen + 72) of points the decode passes on the fast
// path: the fast stretch stops fastRoom short of each limit and the
// per-element path walks up to it, so every alignment of the hand-over
// against the elements around the point is decoded, paused, resumed and
// compared with the decode in one piece. The same sweep moves
// MaxDecompressed, the other bound a stretch stops short of, across the
// end of the output; a last one pins where the pauses fall.
func TestPauseAroundHandover(t *testing.T) {
	data := testPayloads(21, 40_000)["text"]
	comp := gzipMembers(t, 6, data[:25_000], data[25_000:])
	whole := ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true}
	_, full := decodeAll(t, comp)
	points := []uint64{fastRoom, 12_345, 25_000, uint64(len(data))}
	if len(full.BlockStarts) > 2 {
		points = append(points, full.BlockStarts[1].DecompOffset)
	}
	step := uint64(1)
	if testing.Short() {
		points, step = points[:2], 7
	}
	for _, at := range points {
		for l := at - fastRoom; l <= at+fastRoom; l += step {
			if l > 0 {
				requireSameDecode(t, comp, whole, []uint64{l})
			}
		}
	}
	for m := uint64(len(data)) - fastRoom; m <= uint64(len(data))+fastRoom; m += step {
		cfg := whole
		cfg.MaxDecompressed = m
		requireSameDecode(t, comp, cfg, []uint64{m / 2})
		requireSameStarved(t, comp, cfg)
	}

	// Where a pause falls, and which element fails on MaxDecompressed with
	// how much output behind it, is the per-element path's to say. The
	// longest iterations of a fast stretch — a literal run, then a match
	// of 258 — must leave it both decisions at every bound.
	c := newCraft().fixed(true)
	for i := 0; i < 40; i++ {
		c.lits([]byte("twenty literal bytes")...).match(MaxMatchLen, 20)
	}
	long := c.eob().raw(gzipFooter...).bytes()
	for l := uint64(1000); l < 1000+2*(20+MaxMatchLen); l += step {
		requireSameStarved(t, long, ChunkConfig{Stop: StopAtEOF, StopAtOutput: l})
		for _, twoStage := range []bool{false, true} {
			cfg := ChunkConfig{Stop: StopAtEOF, MaxDecompressed: l, TwoStage: twoStage}
			wantOut, wantErr := decodeOutcome(starvedReaders(long)[0], cfg)
			if out, err := decodeOutcome(bitio.NewBitReaderBytes(long), cfg); out != wantOut || err != wantErr || err != ErrOutputLimit {
				t.Fatalf("MaxDecompressed %d, two-stage %v: %d symbols and %v, element by element %d and %v", l, twoStage, out, err, wantOut, wantErr)
			}
		}
	}
}

// decodeOutcome decodes cfg from br and returns the error with how much
// output there was. A failed DecodeChunk hands out nothing, so after an
// error the length is asked for the way a reader gets it: the largest
// StopAtOutput at which the decode still pauses, with exactly that much
// output, before it fails. Two-stage decodes do not pause: -1.
func decodeOutcome(br *bitio.BitReader, cfg ChunkConfig) (int, error) {
	var d Decoder
	cr, err := d.DecodeChunk(br, cfg)
	if err == nil {
		return int(cr.TotalOut()), nil
	}
	if cfg.TwoStage {
		return -1, err
	}
	lo, hi := 0, 1<<16 // pauses at lo (no limit at all fails), fails at hi
	for lo+1 < hi {
		cfg.StopAtOutput = uint64(lo+hi) / 2
		switch cr, perr := d.DecodeChunk(br, cfg); {
		case perr == nil && cr.Paused:
			lo = len(cr.Raw) // the limit, or where a match carried it past the limit
		case perr != nil && perr.Error() == err.Error():
			hi = int(cfg.StopAtOutput)
		default:
			return -1, fmt.Errorf("%v without an output limit, %v with one of %d", err, perr, cfg.StopAtOutput)
		}
	}
	return lo, err
}

// TestCraftedStreamOutcomes decodes streams no compressor writes and
// requires the error and the output length (decodeOutcome's: what a
// bounded decode hands out before it fails, a byte less than there was
// when the failure comes with the end of the block) the decoder gave
// before its block loops were rewritten, recorded by running this table
// at commit 10008b6 — from memory and through every starved reader, in
// both modes; of a two-stage decode that fails, the error alone.
// Literal/length codes are always complete, so the only unused prefix a
// decode can meet is the other half of a one-code distance alphabet, and
// never in a sub-table.
func TestCraftedStreamOutcomes(t *testing.T) {
	const (
		ok         = "<nil>"
		corrupt    = "deflate: corrupt compressed data"
		badSymbol  = "huffman: invalid symbol in stream"
		noDistance = "deflate: length symbol without distance code"
		nonOptimal = "deflate: non-optimal distance code"
		limit      = "deflate: decompressed output limit exceeded"
		eof        = "unexpected EOF"
		endOfCode  = "huffman: unexpected end of stream"
		unseen     = -1 // a failed two-stage decode shows no length: see decodeOutcome
	)
	abc := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	// The smallest dynamic block that can hold a match: four 2-bit
	// literal/length codes ('a', 'b', end of block, length 3) and one
	// distance code of one bit, whose other half is unused.
	litLens := make([]uint8, 258)
	litLens['a'], litLens['b'], litLens[EndOfBlock], litLens[257] = 2, 2, 2, 2
	oneDist := func() *craft { return newCraft().dynamic(true, litLens, []uint8{1}) }
	noDist := func() *craft { return newCraft().dynamic(true, litLens, []uint8{0}) }
	as := bytes.Repeat([]byte{'a'}, 1000)
	tail := func(c *craft) []byte { return c.eob().raw(gzipFooter...).raw(padding...).bytes() }
	member := func(c *craft) *craft { return c.raw(gzipHeader...).fixed(true).lits(abc...).eob().raw(gzipFooter...) }

	type outcome struct {
		err string
		out int
	}
	type row struct {
		name        string
		stream      []byte
		cfg         ChunkConfig
		raw, marked outcome
	}
	rows := []row{
		{"distance past the history at the chunk's start", tail(newCraft().fixed(true).lits(abc...).match(3, len(abc)+1).lits(abc...)),
			ChunkConfig{}, outcome{corrupt, 36}, outcome{ok, 75}},
		{"distance reaching the window's first byte", tail(newCraft().fixed(true).lits(abc...).match(3, len(abc)+5).lits(abc...)),
			ChunkConfig{Window: []byte("vwxyz")}, outcome{ok, 75}, outcome{ok, 75}},
		{"distance one past the window", tail(newCraft().fixed(true).lits(abc...).match(3, len(abc)+6).lits(abc...)),
			ChunkConfig{Window: []byte("vwxyz")}, outcome{corrupt, 36}, outcome{ok, 75}},
		{"distance past a member boundary", tail(member(newCraft()).raw(gzipHeader...).fixed(true).lits(abc...).match(3, len(abc)+1).lits(abc...)),
			ChunkConfig{StartsAtGzipHeader: true}, outcome{corrupt, 72}, outcome{corrupt, unseen}},
		{"distance up to a member boundary", tail(member(newCraft()).raw(gzipHeader...).fixed(true).lits(abc...).match(3, len(abc)).lits(abc...)),
			ChunkConfig{StartsAtGzipHeader: true}, outcome{ok, 111}, outcome{ok, 111}},
		{"length symbol 286", tail(newCraft().fixed(true).lits(abc...).sym(286).lits(abc...)), ChunkConfig{}, outcome{corrupt, 36}, outcome{corrupt, unseen}},
		{"length symbol 287", tail(newCraft().fixed(true).lits(abc...).sym(287).lits(abc...)), ChunkConfig{}, outcome{corrupt, 36}, outcome{corrupt, unseen}},
		{"distance symbol 30", tail(newCraft().fixed(true).lits(abc...).sym(257).dsym(30).lits(abc...)), ChunkConfig{}, outcome{corrupt, 36}, outcome{corrupt, unseen}},
		{"distance symbol 31", tail(newCraft().fixed(true).lits(abc...).sym(260).dsym(31).lits(abc...)), ChunkConfig{}, outcome{corrupt, 36}, outcome{corrupt, unseen}},
		{"one-code distance alphabet, its code", tail(oneDist().lits('a', 'b', 'a').sym(257).bits(0, 1).lits('b', 'b')), ChunkConfig{}, outcome{ok, 8}, outcome{ok, 8}},
		{"one-code distance alphabet, the unused prefix", tail(oneDist().lits('a', 'b', 'a').sym(257).bits(1, 1).lits('b', 'b')), ChunkConfig{}, outcome{badSymbol, 3}, outcome{badSymbol, unseen}},
		{"unused prefix at the end of input", oneDist().lits('a', 'b', 'a').sym(257).bits(1, 1).bytes(), ChunkConfig{}, outcome{badSymbol, 3}, outcome{badSymbol, unseen}},
		// Not the parent's answer: it decoded this header, which zlib and
		// compress/flate reject (FuzzDeflateVsStdlib found the difference).
		{"one-code distance alphabet, two bits", tail(newCraft().dynamic(true, litLens, []uint8{2}).lits('a', 'b', 'a').sym(257).bits(0, 2).lits('b', 'b')),
			ChunkConfig{}, outcome{nonOptimal, 0}, outcome{nonOptimal, unseen}},
		{"length symbol without a distance code", tail(noDist().lits('a', 'b', 'a').sym(257).lits('b', 'b')), ChunkConfig{}, outcome{noDistance, 3}, outcome{noDistance, unseen}},
		{"output limit crossed inside a literal run", tail(newCraft().fixed(true).lits(as...)), ChunkConfig{MaxDecompressed: 500}, outcome{limit, 999}, outcome{limit, unseen}},
		{"output limit crossed inside a match", tail(newCraft().fixed(true).lits(abc...).match(258, 5).lits(abc...)), ChunkConfig{MaxDecompressed: 100}, outcome{limit, 36}, outcome{limit, unseen}},
		{"output limit on a match's last byte", tail(newCraft().fixed(true).lits(abc...).match(64, 5).lits(abc...)), ChunkConfig{MaxDecompressed: 100}, outcome{limit, 135}, outcome{limit, unseen}},
		{"output limit crossed far into the output", tail(newCraft().fixed(true).lits(as...).match(258, 999).lits(as...)), ChunkConfig{MaxDecompressed: 1100}, outcome{limit, 1000}, outcome{limit, unseen}},
	}
	// Input that ends inside each of the last 16 bytes of a block, which
	// are literals of 8 bits here: one symbol less per byte. When nothing
	// is cut the footer is missed, which a decode bounded by the last byte
	// looks for with the end of the block: it pauses up to the byte before.
	whole := newCraft().fixed(true).lits(abc...).match(20, 30).lits(abc...).match(258, 1).lits(abc...).eob().bytes()
	for cut := 0; cut <= 16; cut++ {
		want := outcome{endOfCode, 386 - cut}
		if cut == 0 {
			want = outcome{eof, 385}
		}
		rows = append(rows, row{fmt.Sprintf("input %d bytes short", cut), whole[:len(whole)-cut], ChunkConfig{}, want, outcome{want.err, unseen}})
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, twoStage := range []bool{false, true} {
				cfg, want := row.cfg, row.raw
				cfg.Stop = StopAtEOF
				if cfg.TwoStage = twoStage; twoStage {
					cfg.Window, want = nil, row.marked
				}
				for i, br := range append([]*bitio.BitReader{bitio.NewBitReaderBytes(row.stream)}, starvedReaders(row.stream)...) {
					out, err := decodeOutcome(br, cfg)
					if got := (outcome{fmt.Sprint(err), out}); got != want {
						t.Errorf("two-stage %v, reader %d: %+v, want %+v", twoStage, i, got, want)
					}
				}
			}
		})
	}
}

// TestPausedSlackStaysPrivate fills the room behind the output with
// garbage at every pause, as a recycled buffer would hold: the copies of
// a fast stretch reach past a match's end into that room, and nothing
// there may ever be read as data or show in what a pause hands out.
func TestPausedSlackStaysPrivate(t *testing.T) {
	data := testPayloads(22, 300_000)["text"]
	comp := gzipCompress(t, data, 6)
	var d Decoder
	limit := uint64(1)
	cr, err := d.DecodeChunk(bitio.NewBitReaderBytes(comp), ChunkConfig{Stop: StopAtEOF, StartsAtGzipHeader: true, StopAtOutput: limit})
	for pauses := 0; err == nil && cr.Paused; pauses++ {
		if !bytes.Equal(cr.Raw, data[:len(cr.Raw)]) {
			t.Fatalf("pause %d: the %d bytes handed out differ from the plaintext", pauses, len(cr.Raw))
		}
		slack := cr.Raw[len(cr.Raw):cap(cr.Raw)]
		for i := range slack {
			slack[i] = 0xA5
		}
		limit += uint64(1 + pauses*37%5000)
		cr, err = d.Resume(limit)
	}
	if err != nil || !bytes.Equal(cr.Raw, data) {
		t.Fatalf("decode over poisoned slack: err %v, %d bytes", err, len(cr.Raw))
	}
}
