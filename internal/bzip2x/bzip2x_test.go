package bzip2x

import (
	"bytes"
	"compress/bzip2"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

// stdlibDecode is compress/bzip2 over the whole input: the independent
// decoder the encoder is checked against, and the reference the
// package's own decoder is held to.
func stdlibDecode(comp []byte) ([]byte, error) {
	return io.ReadAll(bzip2.NewReader(bytes.NewReader(comp)))
}

// stdlibRoundTrip compresses with this package and decompresses with
// the standard library — the ground-truth check for format fidelity.
func stdlibRoundTrip(t *testing.T, data []byte, opts WriterOptions) {
	t.Helper()
	comp, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stdlibDecode(comp)
	if err != nil {
		t.Fatalf("stdlib rejected our stream: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestCompressStdlibValidates(t *testing.T) {
	cases := map[string][]byte{
		"empty":   nil,
		"one":     []byte("q"),
		"ascii":   []byte("hello, bzip2 world! hello, bzip2 world!"),
		"zeros":   make([]byte, 100_000),
		"runs":    bytes.Repeat([]byte{'a', 'a', 'a', 'a', 'a', 'a', 'b'}, 5_000),
		"random":  workloads.Random(150_000, 1),
		"base64":  workloads.Base64(150_000, 2),
		"silesia": workloads.SilesiaLike(300_000, 3),
		"fastq":   workloads.FASTQ(150_000, 4),
		"allbytes": func() []byte {
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"periodic": bytes.Repeat([]byte("ab"), 30_000),
		"rle-edge": bytes.Repeat([]byte{'x'}, 259), // 255-run + 4-run boundary
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			stdlibRoundTrip(t, data, WriterOptions{Level: 1})
		})
	}
}

func TestCompressLevels(t *testing.T) {
	data := workloads.SilesiaLike(250_000, 5)
	for level := 1; level <= 9; level++ {
		stdlibRoundTrip(t, data, WriterOptions{Level: level})
	}
	if _, err := Compress(nil, WriterOptions{Level: 10}); err == nil {
		t.Fatal("level 10 accepted")
	}
}

func TestMultiBlockSingleStream(t *testing.T) {
	// Level 1 = 100 kB blocks; 350 kB forces 4+ blocks in one stream.
	data := workloads.Base64(350_000, 6)
	stdlibRoundTrip(t, data, WriterOptions{Level: 1})
}

func TestMultiStream(t *testing.T) {
	data := workloads.SilesiaLike(500_000, 7)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// The standard library must accept the concatenation serially.
	got, err := stdlibDecode(comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-stream serial decode failed: %v", err)
	}
	blocks, levels, err := scan(filereader.MemoryReader(comp), findWindow)
	if want := magicBits(comp, blockMagic); err != nil || len(blocks) != len(want) || levels != 1<<1 {
		t.Fatalf("scan found %d block magics and levels %b, %v; want %d and level 1", len(blocks), levels, err, len(want))
	}
}

func TestDecompressParallelMatchesSerial(t *testing.T) {
	data := workloads.SilesiaLike(600_000, 8)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 8} {
		got, err := decodeAll(openEngine(t, comp, threads))
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("threads=%d: mismatch", threads)
		}
	}
}

// openEngine opens comp the way the root package does: the codec's scan
// under a span engine.
func openEngine(t *testing.T, comp []byte, threads int) *spanengine.Engine {
	t.Helper()
	e, err := spanengine.New(filereader.MemoryReader(comp), Codec{}, spanengine.Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// decodeAll streams the whole file out of the engine, streams decoding
// in parallel.
func decodeAll(e *spanengine.Engine) ([]byte, error) {
	var out bytes.Buffer
	_, err := e.WriteTo(&out, 0)
	return out.Bytes(), err
}

func TestParallelFallbackOnFalsePositive(t *testing.T) {
	// Plant a fake stream magic inside a REAL stream's payload region
	// is hard to do deterministically, so emulate the effect: a file
	// with one real stream and candidate offsets injected by prefixing
	// stored magic bytes inside the data itself. The data contains the
	// literal stream prefix, which (if it survives compression
	// literally) could produce a false candidate; either way the
	// parallel path must return correct output.
	payload := append([]byte("BZh1"), []byte{0x31, 0x41, 0x59, 0x26, 0x53, 0x59}...)
	data := append(workloads.Base64(200_000, 9), bytes.Repeat(payload, 100)...)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(openEngine(t, comp, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("false-positive handling broke the output")
	}
}

// unstage takes data through the encoder's RLE1 and BWT and back through
// the decoder's inverse BWT and RLE1 walk.
func unstage(data []byte) []byte {
	last, origPtr := bwt(rle1Encode(data))
	if len(last) == 0 {
		return nil
	}
	blk := block{ll: last, origPtr: origPtr}
	for _, b := range last {
		blk.counts[b]++
	}
	return unBWT(nil, make([]uint32, len(last)), make([]uint32, len(last)), &blk)
}

func TestRLE1RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(unstage(data), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Run-length edge cases around the 4-byte trigger and 255 cap, alone
	// and between other bytes.
	for _, n := range []int{1, 2, 3, 4, 5, 254, 255, 256, 259, 510, 1000} {
		run := bytes.Repeat([]byte{'z'}, n)
		for _, data := range [][]byte{run, append(append([]byte("ab"), run...), 'z'-1, 'z')} {
			if got := unstage(data); !bytes.Equal(got, data) {
				t.Fatalf("run of %d: got %d bytes back", n, len(got))
			}
		}
	}
}

func TestRLE1SplitPoint(t *testing.T) {
	data := bytes.Repeat([]byte{'a', 'b', 'c'}, 1000)
	p := rle1SplitPoint(data, 100)
	if p == 0 || p > 100 {
		t.Fatalf("split point %d", p)
	}
	if got := len(rle1Encode(data[:p])); got > 100 {
		t.Fatalf("prefix encodes to %d > limit", got)
	}
	if p2 := rle1SplitPoint(data, 1<<20); p2 != len(data) {
		t.Fatalf("unbounded split %d, want %d", p2, len(data))
	}
}

func TestBWTRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(unstage(data), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"banana":   []byte("banana"),
		"periodic": bytes.Repeat([]byte("ab"), 500),
		"zeros":    make([]byte, 2000),
		"single":   {42},
	} {
		if got := unstage(data); !bytes.Equal(got, data) {
			t.Fatalf("%s: inverse mismatch", name)
		}
	}
}

// TestBWTSortsRotations holds bwt to a plain sort of the rotations:
// the same last column, and a row that holds the text itself. Rotations
// equal to one another (periodic text) may come in any order, and the row
// of the text with them.
func TestBWTSortsRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]byte{
		bytes.Repeat([]byte("ab"), 40), bytes.Repeat([]byte("abcabd"), 30), make([]byte, 50),
		append(bytes.Repeat([]byte("xy"), 200), 'x'), []byte("mississippi"), {7},
	}
	for range 300 {
		in := make([]byte, 1+rng.Intn(300))
		for i := range in {
			in[i] = byte('a' + rng.Intn(1+rng.Intn(4)))
		}
		inputs = append(inputs, in)
	}
	for _, in := range inputs {
		n := len(in)
		rot := func(i int) string { return string(in[i:]) + string(in[:i]) }
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(rot(a), rot(b)) })
		want := make([]byte, n)
		for i, r := range order {
			want[i] = in[(r+n-1)%n]
		}
		last, ptr := bwt(in)
		if !bytes.Equal(last, want) || ptr < 0 || ptr >= n || rot(order[ptr]) != string(in) {
			t.Fatalf("bwt(%q) = %q, %d; want %q and a row of the text", in, last, ptr, want)
		}
	}
}

// TestCompressPeriodicBlocks: text of one byte, of two and of a longer
// period, over several level-1 blocks, round-trips through compress/bzip2.
// Every rotation of such a block has equals, which no byte tells apart.
func TestCompressPeriodicBlocks(t *testing.T) {
	for name, data := range map[string][]byte{
		"one-byte": bytes.Repeat([]byte{'z'}, 6_000_000), // two blocks after RLE1
		"abab":     bytes.Repeat([]byte("ab"), 160_000),
		"period-7": bytes.Repeat([]byte("abcdefg"), 50_000),
	} {
		t.Run(name, func(t *testing.T) {
			stdlibRoundTrip(t, data, WriterOptions{Level: 1})
		})
	}
}

func TestBWTKnownVector(t *testing.T) {
	// The classic example: BWT("banana") = "nnbaaa", row 3 (rotations
	// sorted: abanan, anaban, ananab, banana, nabana, nanaba).
	last, ptr := bwt([]byte("banana"))
	if string(last) != "nnbaaa" || ptr != 3 {
		t.Fatalf("bwt(banana) = %q, %d", last, ptr)
	}
}

func TestMSBWriter(t *testing.T) {
	w := &msbWriter{}
	w.writeBits(0b1, 1)
	w.writeBits(0b0110, 4)
	w.writeBits(0b101, 3)
	// 1 0110 101 -> 0xB5
	w.writeBits(0xABCD, 16)
	w.writeBits(0x3, 2)
	w.align()
	want := []byte{0xB5, 0xAB, 0xCD, 0xC0}
	if !bytes.Equal(w.bytes(), want) {
		t.Fatalf("got %x want %x", w.bytes(), want)
	}
}

// TestBlockCRCAgainstReference: the catalogue's check value of
// CRC-32/BZIP2, and the slicing-by-8 loop against the CRC's definition,
// a bit at a time, at every length from 0 to 100 bytes.
func TestBlockCRCAgainstReference(t *testing.T) {
	if got := blockCRC([]byte("123456789")); got != 0xFC891918 {
		t.Fatalf(`blockCRC("123456789") = %#x, want 0xfc891918`, got)
	}
	bitwise := func(p []byte) uint32 {
		crc := ^uint32(0)
		for _, b := range p {
			crc ^= uint32(b) << 24
			for i := 0; i < 8; i++ {
				if crc&0x80000000 != 0 {
					crc = crc<<1 ^ crcPoly
				} else {
					crc <<= 1
				}
			}
		}
		return ^crc
	}
	data := workloads.Random(100, 11)
	for n := 0; n <= len(data); n++ {
		if got, want := blockCRC(data[:n]), bitwise(data[:n]); got != want {
			t.Fatalf("blockCRC of %d bytes = %#x, bit at a time %#x", n, got, want)
		}
	}
}

func TestCompressionRatioReasonable(t *testing.T) {
	data := workloads.SilesiaLike(400_000, 10)
	comp, err := Compress(data, WriterOptions{Level: 9})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(data)) / float64(len(comp))
	// Paper Table 4: bzip2 ratio 3.88 on Silesia. Our single-table
	// Huffman coding loses some density; accept >= 2.
	if ratio < 2 {
		t.Fatalf("bzip2 ratio %.2f too weak", ratio)
	}
	t.Logf("bzip2x ratio on silesia-like: %.2f", ratio)
}

func TestCompressedPayloadProperty(t *testing.T) {
	// Arbitrary bytes must survive compress -> stdlib decompress.
	f := func(data []byte) bool {
		comp, err := Compress(data, WriterOptions{Level: 1})
		if err != nil {
			return false
		}
		got, err := stdlibDecode(comp)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderReadAt(t *testing.T) {
	data := workloads.SilesiaLike(500_000, 21)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	r := openEngine(t, comp, 4)
	// Nothing is decoded to open a file: the scan counts candidates, one a
	// block — six, as RLE1 leaves one of the five 100,000-byte streams
	// longer than a level-1 block holds — and the table is there once
	// something has asked for the size.
	if st := r.Stats(); st.DecodedBytes != 0 || r.NumSpans() != 0 || r.ScanSpans() != 6 {
		t.Fatalf("after open: %d spans, %d candidates, %+v", r.NumSpans(), r.ScanSpans(), st)
	}
	size, err := r.TotalSize()
	if err != nil || size != int64(len(data)) {
		t.Fatalf("TotalSize = %d, %v, want %d", size, err, len(data))
	}
	if r.NumSpans() != 6 {
		t.Fatalf("NumSpans = %d, want 6", r.NumSpans())
	}
	offs := []int64{0, 1, 99_999, 100_000, 100_001, 333_333, int64(len(data)) - 1}
	for _, off := range offs {
		buf := make([]byte, 4096)
		n, err := r.ReadAt(buf, off)
		want := len(data) - int(off)
		if want > len(buf) {
			want = len(buf)
		}
		if n != want || (err != nil && err != io.EOF) {
			t.Fatalf("ReadAt(%d): n=%d err=%v, want n=%d", off, n, err, want)
		}
		if !bytes.Equal(buf[:n], data[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d): content mismatch", off)
		}
	}
	if _, err := r.ReadAt(make([]byte, 1), size); err != io.EOF {
		t.Fatalf("ReadAt(EOF) err = %v, want io.EOF", err)
	}
}

func TestReaderSingleStream(t *testing.T) {
	data := workloads.Base64(200_000, 22)
	comp, err := Compress(data, WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := openEngine(t, comp, 4)
	if r.ScanSpans() != 3 { // a span a block
		t.Fatalf("ScanSpans = %d, want 3", r.ScanSpans())
	}
	buf := make([]byte, 1000)
	if _, err := r.ReadAt(buf, 150_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[150_000:151_000]) {
		t.Fatal("single-stream ReadAt mismatch")
	}
}

func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.FASTQ(400_000, 23)
	comp, err := Compress(data, WriterOptions{Level: 1, StreamSize: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	r := openEngine(t, comp, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, 2048)
			for i := 0; i < 30; i++ {
				off := rnd.Int63n(int64(len(data)))
				n, err := r.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					t.Errorf("ReadAt(%d): %v", off, err)
					return
				}
				if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
					t.Errorf("ReadAt(%d): mismatch", off)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestReaderRejectsCorrupt(t *testing.T) {
	data := workloads.Base64(100_000, 24)
	comp, err := Compress(data, WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	comp[len(comp)/2] ^= 0xFF
	// Opening decodes nothing, so the damage is the first reader's to find.
	r := openEngine(t, comp, 2)
	if _, err := r.ReadAt(make([]byte, 100), 0); !errors.Is(err, spanengine.ErrCorrupt) {
		t.Fatalf("ReadAt of a corrupt file = %v, want ErrCorrupt", err)
	}
	if _, err := r.TotalSize(); !errors.Is(err, spanengine.ErrCorrupt) {
		t.Fatalf("TotalSize of a corrupt file = %v, want ErrCorrupt", err)
	}
}

// TestDamagedBlockIsNotExtended: a block damaged before the next block
// magic fails as it is, without being decoded again over every candidate
// after it — which would read the rest of the file once a candidate, five
// and a half times the file for ten blocks. A read of a file of ten
// blocks, the first damaged, reads less than the file twice: once for the
// scan, then the first block's extent and those speculation reads ahead.
func TestDamagedBlockIsNotExtended(t *testing.T) {
	comp, err := Compress(workloads.Base64(1_000_000, 25), WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	comp[2000] ^= 0x10
	r := openEngine(t, comp, 1)
	if r.ScanSpans() != 11 {
		t.Fatalf("ScanSpans = %d, want 11", r.ScanSpans())
	}
	if _, err := r.ReadAt(make([]byte, 100), 0); !errors.Is(err, spanengine.ErrCorrupt) {
		t.Fatalf("ReadAt of a damaged first block = %v, want ErrCorrupt", err)
	}
	if st := r.Stats(); st.SourceBytesRead >= 2*uint64(len(comp)) {
		t.Fatalf("%d reads of %d bytes of a %d-byte file; want less than twice the file", st.SourceReads, st.SourceBytesRead, len(comp))
	}
}

// TestScanWindows: the windowed scan finds every block magic, at every
// bit of its first byte, and only those, and the level of every stream
// header, whatever the window size, and so wherever a window boundary
// falls inside a magic; a read that fails is an ErrIO.
func TestScanWindows(t *testing.T) {
	header := func(level byte) []byte {
		return append([]byte("BZh"), level, 0x31, 0x41, 0x59, 0x26, 0x53, 0x59)
	}
	var w msbWriter
	for i, gap := range []int{0, 3, 17, 1, 40, 9, 10, 11, 25, 7, 8, 6} {
		for range gap { // near misses: the magic's first 40 bits
			w.writeBits(blockMagic>>8, 40)
		}
		w.writeBits(blockMagic, 48)
		w.writeBits(uint64(i), uint(i%8)) // the next magic at another bit
	}
	data := append(header('9'), w.bytes()...)
	data = append(data, "BZh0BZhxBZ"...)
	data = append(data, header('3')...)
	data = append(data, header('3')[:9]...) // cut short by the end of the file
	var want []int64
	for _, bit := range magicBits(data, blockMagic) {
		want = append(want, int64(bit/8))
	}
	if len(want) != 12+2 { // the magics written, and the two whole headers'
		t.Fatalf("fixture holds %d block magics", len(want))
	}
	for window := int64(streamMagicLen); window <= int64(len(data))+1; window++ {
		blocks, levels, err := scan(filereader.MemoryReader(data), window)
		if err != nil || !slices.Equal(blocks, want) || levels != 1<<9|1<<3 {
			t.Fatalf("window %d: %v, levels %b, %v; want %v, levels 9 and 3", window, blocks, levels, err, want)
		}
	}
	if _, _, err := scan(shortReader{data}, 64); !errors.Is(err, filereader.ErrIO) {
		t.Fatalf("scan over a failing source = %v, want ErrIO", err)
	}
}

// magicBits returns every bit of data at which the 48-bit magic begins,
// found a bit at a time, apart from the scan.
func magicBits(data []byte, magic uint64) (bits []int) {
	var v uint64
	for i := range len(data) * 8 {
		v = (v<<1 | uint64(data[i/8]>>(7-i%8)&1)) & (1<<48 - 1)
		if i >= 47 && v == magic {
			bits = append(bits, i-47)
		}
	}
	return bits
}

// shortReader fails every read past the first 100 bytes.
type shortReader struct{ filereader.MemoryReader }

func (r shortReader) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > 100 {
		return 0, errors.New("disk on fire")
	}
	return r.MemoryReader.ReadAt(p, off)
}
