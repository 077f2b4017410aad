package bzip2x

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/huffman"
	"repro/internal/workloads"
)

// sameAsStdlib decodes comp with the package's decoder and with
// compress/bzip2 and fails unless both give the same bytes or both an
// error. It returns the package decoder's outcome.
func sameAsStdlib(t testing.TB, name string, comp []byte) ([]byte, error) {
	t.Helper()
	got, err := decode(comp)
	want, werr := stdlibDecode(comp)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: decode err %v, compress/bzip2 err %v", name, err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: decode gave %d bytes, compress/bzip2 %d, or the bytes differ", name, len(got), len(want))
	}
	return got, err
}

// blockSpec is one block as the crafted streams write it, field by
// field. specFor fills it in for raw bytes through the encoder's stages,
// with two flat tables; a crafted case then changes a field.
type blockSpec struct {
	crc        uint32
	randomized uint64
	origPtr    int
	used       []byte
	groups     int
	selectors  []int // as written: each group's table's place in the MTF list of tables
	lengths    [][]uint8
	syms       []uint16
}

func specFor(raw []byte) blockSpec {
	data := rle1Encode(raw)
	last, origPtr := bwt(data)
	used := usedBytes(data)
	syms := mtfRLE2(last, used)
	flat := flatLengths(len(used) + 2)
	return blockSpec{
		crc: blockCRC(raw), origPtr: origPtr, used: used, groups: 2,
		selectors: make([]int, (len(syms)+groupSize-1)/groupSize),
		lengths:   [][]uint8{flat, flat}, syms: syms,
	}
}

// multiTable is specFor with the block's groups split into runs of
// groups each coded by a table built for that run, as encoders that use
// more than one table do.
func multiTable(raw []byte, groups int) blockSpec {
	b := specFor(raw)
	n := len(b.selectors)
	tableOf := func(g int) int { return g * groups / n }
	b.groups, b.lengths = groups, make([][]uint8, groups)
	for t := range b.lengths {
		freqs := make([]int, len(b.used)+2)
		for i := range freqs {
			freqs[i] = 1
		}
		for i, s := range b.syms {
			if tableOf(i/groupSize) == t {
				freqs[s]++
			}
		}
		b.lengths[t], _ = huffman.BuildLengths(freqs, maxCodeLen)
	}
	order := []int{0, 1, 2, 3, 4, 5}
	for g := range b.selectors {
		c := slices.Index(order, tableOf(g))
		v := order[c]
		copy(order[1:c+1], order[:c])
		order[0] = v
		b.selectors[g] = c
	}
	return b
}

func (b blockSpec) write(w *msbWriter) {
	w.writeBits(blockMagic, 48)
	w.writeBits(uint64(b.crc), 32)
	w.writeBits(b.randomized, 1)
	w.writeBits(uint64(b.origPtr), 24)
	var ranges uint64
	var inRange [16]uint64
	for _, v := range b.used {
		ranges |= 0x8000 >> (v >> 4)
		inRange[v>>4] |= 0x8000 >> (v & 15)
	}
	w.writeBits(ranges, 16)
	for r, m := range inRange {
		if ranges&(0x8000>>r) != 0 {
			w.writeBits(m, 16)
		}
	}
	w.writeBits(uint64(b.groups), 3)
	w.writeBits(uint64(len(b.selectors)), 15)
	for _, s := range b.selectors {
		w.writeBits((1<<s-1)<<1, uint(s)+1) // s ones, then a zero
	}
	codes := make([][]uint32, len(b.lengths))
	for i, l := range b.lengths {
		writeDeltaLengths(w, l)
		codes[i] = canonicalCodes(l)
	}
	order := []int{0, 1, 2, 3, 4, 5}
	table := 0
	for i, s := range b.syms {
		if g := i / groupSize; i%groupSize == 0 && g < len(b.selectors) {
			c := min(b.selectors[g], len(order)-1)
			v := order[c]
			copy(order[1:c+1], order[:c])
			order[0] = v
			table = min(v, len(b.lengths)-1)
		}
		w.writeBits(uint64(codes[table][s]), uint(b.lengths[table][s]))
	}
}

// streamSpec is a crafted stream: a level digit, blocks, and the stream
// CRC of their CRC fields with crcXor flipped in it.
type streamSpec struct {
	level  byte
	blocks []blockSpec
	crcXor uint32
}

func (s streamSpec) bytes() []byte {
	w := &msbWriter{}
	w.writeBits('B'<<16|'Z'<<8|'h', 24)
	w.writeBits(uint64(s.level), 8)
	crc := uint32(0)
	for _, b := range s.blocks {
		b.write(w)
		crc = combineCRC(crc, b.crc)
	}
	w.writeBits(footerMagic, 48)
	w.writeBits(uint64(crc^s.crcXor), 32)
	w.align()
	return w.bytes()
}

// encodedStream is one stream of level holding one encoder block per
// part, with crc in its footer: a stream with several small blocks.
func encodedStream(t testing.TB, level int, crc uint32, parts ...[]byte) []byte {
	w := &msbWriter{}
	w.writeBits('B'<<16|'Z'<<8|'h', 24)
	w.writeBits(uint64('0'+level), 8)
	for _, p := range parts {
		if _, err := encodeBlock(w, p); err != nil {
			t.Fatal(err)
		}
	}
	w.writeBits(footerMagic, 48)
	w.writeBits(uint64(crc), 32)
	w.align()
	return w.bytes()
}

// streamCRC is the stream CRC of blocks holding parts.
func streamCRC(parts ...[]byte) uint32 {
	var crc uint32
	for _, p := range parts {
		crc = combineCRC(crc, blockCRC(p))
	}
	return crc
}

// TestStreamCRCKnownAnswer: two blocks of "123456789" (block CRC
// 0xfc891918, the catalogue's check value) fold to the stream CRC
// 0x059b2b29 — rotated left one bit, then XORed — which compress/bzip2
// accepts and the XOR alone, unrotated, does not.
func TestStreamCRCKnownAnswer(t *testing.T) {
	part := []byte("123456789")
	if got := streamCRC(part, part); got != 0x059B2B29 {
		t.Fatalf("combined CRC %#x, want 0x059b2b29", got)
	}
	if _, err := sameAsStdlib(t, "rotated", encodedStream(t, 1, 0x059B2B29, part, part)); err != nil {
		t.Fatalf("stream CRC 0x059b2b29 rejected: %v", err)
	}
	if _, err := sameAsStdlib(t, "unrotated", encodedStream(t, 1, 0xFC891918^0xFC891918, part, part)); !errors.Is(err, errStreamCRC) {
		t.Fatalf("stream CRC 0 = %v, want %v", err, errStreamCRC)
	}
}

// runSyms is the RUNA/RUNB digits of a run of n, least significant first.
func runSyms(n int) []uint16 {
	var s []uint16
	for ; n > 0; n = (n - 1) >> 1 {
		s = append(s, uint16((n-1)&1))
	}
	return s
}

// rawSpec is a block whose post-RLE1 bytes are data, the RLE1 stage of
// the encoder bypassed, and whose CRC is that of out, what the RLE1 walk
// makes of data.
func rawSpec(data []byte, out []byte) blockSpec {
	last, origPtr := bwt(data)
	return columnSpec(last, origPtr, out)
}

// columnSpec is a block whose BWT column is last, walked from origPtr,
// and whose CRC is that of out.
func columnSpec(last []byte, origPtr int, out []byte) blockSpec {
	b := specFor(nil)
	b.used = usedBytes(last)
	b.syms = mtfRLE2(last, b.used)
	b.origPtr = origPtr
	b.crc = blockCRC(out)
	flat := flatLengths(len(b.used) + 2)
	b.lengths = [][]uint8{flat, flat}
	b.selectors = make([]int, (len(b.syms)+groupSize-1)/groupSize)
	return b
}

// craftedOutcomes names every error path of the decoder with the bytes
// that take it, the error it returns and compress/bzip2's verdict on the
// same bytes; and the edges on the way that both decode. Every stream is
// level 1 unless it says otherwise.
var craftedOutcomes = []struct {
	name   string
	stream func() []byte
	want   error // nil: decodes
	stdlib bool  // compress/bzip2 decodes it
}{
	{"valid: one block", func() []byte { return base().bytes() }, nil, true},
	{"valid: two streams, the second at level 9", func() []byte {
		s := base()
		s.level = '9'
		return append(base().bytes(), s.bytes()...)
	}, nil, true},
	{"valid: empty stream", func() []byte { return streamSpec{level: '1'}.bytes() }, nil, true},

	{"stream header: empty input", func() []byte { return nil }, errTruncated, false},
	{"stream header: bad magic", func() []byte { return withByte(base().bytes(), 1, 'X') }, errStreamMagic, false},
	{"stream header: not Huffman ('h')", func() []byte { return withByte(base().bytes(), 2, '0') }, errStreamMagic, false},
	{"stream header: level digit 0", func() []byte { return withByte(base().bytes(), 3, '0') }, errLevel, false},
	{"block header: bad block magic", func() []byte { return withByte(base().bytes(), 4, 0x30) }, errBlockMagic, false},
	{"block header: randomized bit set", func() []byte {
		return withBlock(func(b *blockSpec) { b.randomized = 1 })
	}, errRandomized, false},
	{"block header: origPtr at the block's length", func() []byte {
		return withBlock(func(b *blockSpec) { b.origPtr = len(rle1Encode(craftedRaw)) })
	}, errOrigPtr, false},
	{"block header: no byte values used", func() []byte {
		return withBlock(func(b *blockSpec) { b.used = nil })
	}, errNoSymbols, false},
	{"block header: one table", func() []byte {
		return withBlock(func(b *blockSpec) { b.groups = 1 })
	}, errGroups, false},
	{"block header: seven tables", func() []byte {
		return withBlock(func(b *blockSpec) { b.groups = 7 })
	}, errGroups, false},
	{"block header: zero selectors", func() []byte {
		return withBlock(func(b *blockSpec) { b.selectors = nil })
	}, errNoSelectors, false},
	{"block header: a selector past the tables", func() []byte {
		return withBlock(func(b *blockSpec) { b.selectors[0] = 2 })
	}, errSelector, false},
	{"block body: fewer selectors than the symbols need", func() []byte {
		return withBlock(func(b *blockSpec) { b.selectors = b.selectors[:len(b.selectors)-1] })
	}, errSelectorsShort, false},

	{"Huffman: a code length of 0", func() []byte {
		return withBlock(func(b *blockSpec) { b.lengths[0] = append([]uint8{0}, b.lengths[0][1:]...) })
	}, errCodeLength, false},
	{"Huffman: a code length of 21", func() []byte {
		return withBlock(func(b *blockSpec) {
			b.lengths[1] = append(bytes.Clone(b.lengths[1][:len(b.lengths[1])-1]), 21)
		})
	}, errCodeLength, false},
	{"Huffman: an over-subscribed code whose numbers coincide", func() []byte {
		return withBlock(func(b *blockSpec) { b.lengths[1] = bytes.Repeat([]byte{1}, len(b.lengths[1])) })
	}, errEqualCodes, false},
	{"Huffman: an over-subscribed code apart, in a table no selector uses", func() []byte {
		return withBlock(func(b *blockSpec) {
			l := bytes.Repeat([]byte{20}, len(b.lengths[1]))
			l[0], l[1] = 1, 1
			b.lengths[1] = l
		})
	}, nil, true},
	{"Huffman: an incomplete code in use, which a canonical decoder would read", func() []byte {
		// The end-of-block symbol's code two bits longer: the symbols are
		// written with the canonical code of those lengths, but
		// compress/bzip2 numbers an incomplete code from its longest.
		return withBlock(func(b *blockSpec) {
			l := bytes.Clone(b.lengths[0])
			l[len(l)-1] += 2
			b.lengths[0] = l
		})
	}, errSelectorsShort, false},

	{"block body: a RUNA/RUNB run past the block size", func() []byte {
		b := rawSpec([]byte("a"), []byte("a"))
		b.syms = append(runSyms(100_001), 2)
		b.selectors = make([]int, 1)
		return streamSpec{level: '1', blocks: []blockSpec{b}}.bytes()
	}, errRunPastBlock, false},
	{"block body: a symbol past the block size", func() []byte {
		b := rawSpec([]byte("ab"), []byte("ab"))
		b.syms = append(runSyms(100_000), 2, 3)
		b.selectors = make([]int, 1)
		return streamSpec{level: '1', blocks: []blockSpec{b}}.bytes()
	}, errPastBlock, false},
	{"RLE1: counts of 255 back to back", func() []byte {
		b := rawSpec([]byte("aaaa\xffaaaa\xff"), bytes.Repeat([]byte("a"), 518))
		return streamSpec{level: '1', blocks: []blockSpec{b}}.bytes()
	}, nil, true},
	{"RLE1: a block that ends inside a run", func() []byte {
		b := rawSpec([]byte("aaaa"), []byte("aaaa"))
		return streamSpec{level: '1', blocks: []blockSpec{b}}.bytes()
	}, nil, true},
	{"RLE1: after a count of zero the run goes on", func() []byte {
		b := rawSpec([]byte("aaaa\x00aaa\x05"), bytes.Repeat([]byte("a"), 12))
		return streamSpec{level: '1', blocks: []blockSpec{b}}.bytes()
	}, nil, true},

	{"inverse BWT: origPtr on a cycle of rows that does not divide the block", func() []byte {
		// "aba" maps row 0 to itself and rows 1 and 2 to each other: three
		// rows forwards from row 1 read "aba", not the text of any BWT.
		b := columnSpec([]byte("aba"), 1, []byte("aba"))
		return streamSpec{level: '1', blocks: []blockSpec{b}}.bytes()
	}, nil, true},

	{"checksums: block CRC mismatch", func() []byte {
		return withBlock(func(b *blockSpec) { b.crc ^= 1 })
	}, errBlockCRC, false},
	{"checksums: stream CRC mismatch", func() []byte {
		s := base()
		s.crcXor = 1 << 31
		return s.bytes()
	}, errStreamCRC, false},

	{"stream end: cut mid-block", func() []byte { b := base().bytes(); return b[:len(b)/2] }, errTruncated, false},
	{"stream end: cut mid-footer", func() []byte { b := base().bytes(); return b[:len(b)-3] }, errTruncated, false},
	{"stream end: one byte of a next stream", func() []byte { return append(base().bytes(), 'B') }, errTruncated, false},
	{"stream end: non-stream bytes after a stream", func() []byte { return append(base().bytes(), "junk"...) }, errTrailing, false},
	{"stream end: zero bytes after a stream", func() []byte { return append(base().bytes(), 0, 0) }, errTrailing, false},
}

// craftedRaw is the crafted block's text: long enough for three
// selectors, with runs of four and more.
var craftedRaw = bytes.Repeat([]byte("crafted bytes, crafted runs: aaaaaaa, bbbb, cccccccccccccccccccc; "), 4)

func base() streamSpec { return streamSpec{level: '1', blocks: []blockSpec{specFor(craftedRaw)}} }

func withBlock(change func(*blockSpec)) []byte {
	s := base()
	change(&s.blocks[0])
	return s.bytes()
}

func withByte(b []byte, i int, v byte) []byte {
	b[i] = v
	return b
}

func TestCraftedBlockOutcomes(t *testing.T) {
	for _, c := range craftedOutcomes {
		stream := c.stream()
		_, err := decode(stream)
		if !errors.Is(err, c.want) || (err == nil) != (c.want == nil) {
			t.Errorf("%s: decode err %v, want %v", c.name, err, c.want)
		}
		if _, serr := stdlibDecode(stream); (serr == nil) != c.stdlib {
			t.Errorf("%s: compress/bzip2 err %v, want it to decode: %v", c.name, serr, c.stdlib)
		}
		if err == nil {
			sameAsStdlib(t, c.name, stream)
		}
	}
}

// TestForgedLevelAllocatesItsBound: a level-9 stream cut short in its
// first block's symbols allocates no more than the level's merged array,
// 900 000 four-byte rows, and a constant (tables and selectors; 64 KiB
// stated), on a decoder whose pool is empty. It costs the block's bytes
// alone, 900 000 of them: tt comes with a block whose symbols decode.
func TestForgedLevelAllocatesItsBound(t *testing.T) {
	s := base()
	s.level = '9'
	forged := s.bytes()
	forged = forged[:len(forged)-12]
	runtime.GC()
	runtime.GC() // the second collection empties the decoder pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decode(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTruncated) {
		t.Fatalf("forged stream: %v", err)
	}
	const bound = 900_000*4 + 64<<10
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Fatalf("allocated %d bytes for %d of input, want <= %d", alloc, len(forged), bound)
	} else {
		t.Logf("allocated %d bytes for %d of input (bound %d)", alloc, len(forged), bound)
	}
}

var (
	fixtureOnce sync.Once
	fixtures    [][]byte
)

// decodeFixtures are the differential's streams, built once: levels 1
// and 9, one stream of several blocks, several streams, runs across
// RLE1's 4 and 255 edges, blocks coded with three and six tables, and
// the empty stream.
func decodeFixtures(t testing.TB) [][]byte {
	fixtureOnce.Do(func() {
		compress := func(data []byte, opts WriterOptions) []byte {
			comp, err := Compress(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			return comp
		}
		var runs []byte
		for i, n := range []int{1, 3, 4, 5, 8, 254, 255, 256, 258, 259, 260, 263, 510, 1000} {
			runs = append(runs, bytes.Repeat([]byte{byte('a' + i%3)}, n)...)
			runs = append(runs, byte(i))
		}
		parts := [][]byte{workloads.SilesiaLike(3000, 1), workloads.Base64(2000, 2), workloads.SilesiaLike(2500, 3)}
		fixtures = [][]byte{
			compress(workloads.SilesiaLike(6000, 1), WriterOptions{Level: 1}),
			compress(workloads.FASTQ(5000, 2), WriterOptions{Level: 9}),
			encodedStream(t, 1, streamCRC(parts...), parts...),
			compress(workloads.SilesiaLike(9000, 4), WriterOptions{Level: 1, StreamSize: 3000}),
			compress(runs, WriterOptions{Level: 1}),
			streamSpec{level: '1', blocks: []blockSpec{multiTable(workloads.SilesiaLike(8000, 5), 3), multiTable(workloads.Base64(6000, 6), 6)}}.bytes(),
			compress(nil, WriterOptions{Level: 1}),
		}
		for i, fx := range fixtures {
			if _, err := stdlibDecode(fx); err != nil {
				t.Fatalf("fixture %d: compress/bzip2 rejects it: %v", i, err)
			}
		}
	})
	return fixtures
}

// damage returns comp cut short, with one bit flipped, or as it is, by
// how and where.
func damage(comp []byte, how uint8, where uint32) []byte {
	if len(comp) == 0 {
		return comp
	}
	at := int(where) % len(comp)
	switch how % 3 {
	case 1:
		return comp[:at]
	case 2:
		comp = bytes.Clone(comp)
		comp[at] ^= 1 << (where >> 24 & 7)
	}
	return comp
}

// FuzzDecodeVsStdlib holds the decoder to compress/bzip2 — the same
// bytes, or an error on both sides — over arbitrary bytes (raw set) and
// over the fixtures cut short or with a bit flipped.
func FuzzDecodeVsStdlib(f *testing.F) {
	for i, fx := range decodeFixtures(f) {
		for how := uint8(0); how < 3; how++ {
			f.Add(false, []byte(nil), uint8(i), how, uint32(len(fx)/2)|uint32(i)<<24)
		}
		f.Add(true, fx, uint8(0), uint8(0), uint32(0))
	}
	for _, c := range craftedOutcomes {
		f.Add(true, c.stream(), uint8(0), uint8(0), uint32(0))
	}
	f.Fuzz(func(t *testing.T, raw bool, data []byte, which, how uint8, where uint32) {
		if !raw {
			fx := decodeFixtures(t)
			data = damage(fx[int(which)%len(fx)], how, where)
		}
		sameAsStdlib(t, "input", data)
	})
}
