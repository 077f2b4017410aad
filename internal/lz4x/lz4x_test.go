package lz4x

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
	"repro/internal/xxhash"
)

func roundTripBlock(t *testing.T, data []byte) {
	t.Helper()
	comp := CompressBlock(data, nil)
	if len(comp) > CompressBlockBound(len(data)) {
		t.Fatalf("compressed %d exceeds bound %d", len(comp), CompressBlockBound(len(data)))
	}
	out := make([]byte, len(data))
	n, err := DecompressBlock(comp, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(out, data) {
		t.Fatalf("round trip mismatch (%d bytes)", n)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"empty":   nil,
		"one":     []byte("x"),
		"tiny":    []byte("hello"),
		"twelve":  []byte("123456789012"),
		"repeat":  bytes.Repeat([]byte("ab"), 10_000),
		"zeros":   make([]byte, 100_000),
		"random":  workloads.Random(100_000, 1),
		"base64":  workloads.Base64(100_000, 2),
		"silesia": workloads.SilesiaLike(200_000, 3),
		"fastq":   workloads.FASTQ(100_000, 4),
		"overlap": append(bytes.Repeat([]byte("a"), 20), []byte("bcdefgh")...),
		"period3": bytes.Repeat([]byte("abc"), 5000),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { roundTripBlock(t, data) })
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		comp := CompressBlock(data, nil)
		out := make([]byte, len(data))
		n, err := DecompressBlock(comp, out)
		return err == nil && n == len(data) && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCompressesRepetitiveData(t *testing.T) {
	data := bytes.Repeat([]byte("the quick brown fox "), 5000)
	comp := CompressBlock(data, nil)
	if len(comp) > len(data)/10 {
		t.Fatalf("repetitive data compressed only to %d/%d", len(comp), len(data))
	}
}

func TestHandCraftedBlock(t *testing.T) {
	// token 0x54: 5 literals, match len 4+4=8 at offset 5 -> "abcdeabcdeabc"
	src := []byte{0x54, 'a', 'b', 'c', 'd', 'e', 5, 0, 0x30, 'x', 'y', 'z'}
	want := []byte("abcdeabcdeabcxyz")
	dst := make([]byte, len(want))
	n, err := DecompressBlock(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || !bytes.Equal(dst, want) {
		t.Fatalf("got %q", dst[:n])
	}
}

func TestDecompressBlockRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x10},                  // literal length 1 but no literal byte
		{0x04, 'a', 9, 0},       // offset 9 > produced 1
		{0x04, 'a', 0, 0},       // offset 0 invalid
		{0xF0, 255},             // unterminated length extension
		{0x04, 'a', 1, 0, 0xFF}, // match overruns destination
	}
	for i, src := range cases {
		dst := make([]byte, 4)
		if _, err := DecompressBlock(src, dst); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	data := workloads.SilesiaLike(1_000_000, 5)
	for _, opts := range []FrameOptions{
		{},
		{BlockSize: 16 << 10},
		{BlockSize: 300 << 10},
		{BlockChecksums: true},
		{ContentChecksum: true},
		{BlockChecksums: true, ContentChecksum: true},
		{FrameSize: 200 << 10},
		{FrameSize: 100 << 10, BlockSize: 32 << 10, BlockChecksums: true, ContentChecksum: true},
	} {
		comp := CompressFrames(data, opts)
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%+v: mismatch", opts)
		}
	}
}

func TestFrameEmptyInput(t *testing.T) {
	comp := CompressFrames(nil, FrameOptions{})
	got, err := Decompress(comp)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d bytes, %v", len(got), err)
	}
}

func TestScanWalksFrames(t *testing.T) {
	data := workloads.Base64(500_000, 6)
	comp := CompressFrames(data, FrameOptions{FrameSize: 100_000})
	scan, err := Codec{}.Scan(filereader.MemoryReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Spans) != 5 {
		t.Fatalf("got %d frames, want 5", len(scan.Spans))
	}
	var contentPos, prevEnd int64
	for i, f := range scan.Spans {
		if f.CompOff != prevEnd {
			t.Fatalf("frame %d starts at %d, previous ended at %d", i, f.CompOff, prevEnd)
		}
		if f.DecompOff != contentPos {
			t.Fatalf("frame %d content start %d, want %d", i, f.DecompOff, contentPos)
		}
		contentPos += f.DecompSize
		prevEnd = f.CompEnd
	}
	if prevEnd != int64(len(comp)) || contentPos != int64(len(data)) {
		t.Fatalf("scan covered %d/%d compressed, %d/%d content", prevEnd, len(comp), contentPos, len(data))
	}
}

func TestDecompressParallelMatchesSerial(t *testing.T) {
	data := workloads.SilesiaLike(2_000_000, 7)
	comp := CompressFrames(data, FrameOptions{FrameSize: 128 << 10, BlockSize: 32 << 10, ContentChecksum: true})
	for _, threads := range []int{1, 2, 8} {
		var got bytes.Buffer
		if _, err := openEngine(t, comp, threads).WriteTo(&got, 0); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !bytes.Equal(got.Bytes(), data) {
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

func TestChecksumsCatchCorruption(t *testing.T) {
	data := workloads.Base64(300_000, 8)
	comp := CompressFrames(data, FrameOptions{BlockChecksums: true, ContentChecksum: true, FrameSize: 64 << 10})
	for _, flip := range []int{len(comp) / 3, len(comp) / 2, len(comp) - 10} {
		bad := bytes.Clone(comp)
		bad[flip] ^= 0x40
		if _, err := Decompress(bad); err == nil {
			t.Fatalf("corruption at %d not detected", flip)
		}
	}
}

func TestNotLZ4(t *testing.T) {
	if _, err := Decompress([]byte("certainly not lz4")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := (Codec{}).Scan(filereader.MemoryReader{0x04, 0x22, 0x4D, 0x18}); err == nil {
		t.Fatal("bare magic accepted")
	}
}

// TestScanRefusesForgedContentSize: a frame header that declares more
// content than the frame's bytes can hold fails the scan as corrupt, so
// neither an open nor the serial Decompress allocates what it names.
func TestScanRefusesForgedContentSize(t *testing.T) {
	comp := CompressFrames(nil, FrameOptions{})
	binary.LittleEndian.PutUint64(comp[6:], 1<<40)
	comp[14] = byte(xxhash.Sum32(comp[4:14], 0) >> 8)
	if _, err := (Codec{}).Scan(filereader.MemoryReader(comp)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan of an empty frame declaring 1 TiB = %v, want ErrCorrupt", err)
	}
	if _, err := Decompress(comp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress of an empty frame declaring 1 TiB = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	data := workloads.Base64(100_000, 9)
	comp := CompressFrames(data, FrameOptions{})
	for _, cut := range []int{5, 20, len(comp) / 2, len(comp) - 1} {
		if _, err := Decompress(comp[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReaderReadAt(t *testing.T) {
	data := workloads.Base64(600_000, 11)
	comp := CompressFrames(data, FrameOptions{FrameSize: 100_000, BlockSize: 16 << 10})
	r := openEngine(t, comp, 4)
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(data))
	}
	if r.NumSpans() != 6 {
		t.Fatalf("NumSpans = %d, want 6", r.NumSpans())
	}
	if r.Flags()&FlagBlockIndep == 0 {
		t.Fatal("CompressFrames output should be block-independent")
	}
	// Arbitrary offsets, including frame-straddling and tail reads.
	offs := []int64{0, 1, 99_999, 100_000, 100_001, 250_000, 599_000, int64(len(data)) - 1}
	for _, off := range offs {
		buf := make([]byte, 5000)
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
	if _, err := r.ReadAt(make([]byte, 1), r.Size()); err != io.EOF {
		t.Fatalf("ReadAt(EOF) err = %v, want io.EOF", err)
	}
}

// TestReaderConcurrentReadAt: eight readers at once, over checksummed
// frames, which decode whole, and over unchecked ones, whose decodes stop
// between blocks and are continued by whichever reader gets there next.
func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.FASTQ(300_000, 3)
	r := openEngine(t, CompressFrames(data, FrameOptions{FrameSize: 50_000, ContentChecksum: true}), 4)
	if r.Flags()&FlagChecksummed == 0 {
		t.Fatal("expected FlagChecksummed")
	}
	concurrentReadAt(t, r, data)
	concurrentReadAt(t, openEngine(t, CompressFrames(data, FrameOptions{FrameSize: 100_000, BlockSize: 8 << 10}), 4), data)
}

func concurrentReadAt(t *testing.T, r *spanengine.Engine, data []byte) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3000)
			for i := 0; i < 40; i++ {
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

// linkedFrame hand-crafts a frame in linked-block (dependent) mode: a
// stored first block and a compressed second block whose match reaches
// back into the first block — illegal for an independent-block decoder.
func linkedFrame(t *testing.T) (comp, content []byte) {
	t.Helper()
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, FrameMagic)
	flg := byte(flgVersion | flgContentSize) // no flgBlockIndep
	bd := byte(4 << 4)
	descStart := len(out)
	out = append(out, flg, bd)
	out = binary.LittleEndian.AppendUint64(out, 12)
	out = append(out, byte(xxhash.Sum32(out[descStart:], 0)>>8))
	// Block 1: stored "ABCDEFGH".
	out = binary.LittleEndian.AppendUint32(out, 8|1<<31)
	out = append(out, "ABCDEFGH"...)
	// Block 2: one sequence, zero literals, 4-byte match at offset 8.
	out = binary.LittleEndian.AppendUint32(out, 3)
	out = append(out, 0x00, 0x08, 0x00)
	out = binary.LittleEndian.AppendUint32(out, 0) // EndMark
	return out, []byte("ABCDEFGHABCD")
}

func TestLinkedBlockFrameDecodes(t *testing.T) {
	comp, want := linkedFrame(t)
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	r := openEngine(t, comp, 2)
	if r.Flags()&FlagBlockIndep != 0 {
		t.Fatal("linked frame reported as block-independent")
	}
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 8); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "ABCD" {
		t.Fatalf("ReadAt tail = %q", buf)
	}
}

// TestForgedTableSizeIsNotAllocated: a checkpoint table is outside input
// (an index file whose CRC an attacker can compute). One that names 1 TiB
// for a 4 KiB frame must fail the read as corrupt, without the decoder
// allocating what it names — whether the engine asks for the whole frame
// or, as a read that stops short does, for a prefix of it.
func TestForgedTableSizeIsNotAllocated(t *testing.T) {
	data := workloads.Base64(4<<10, 5)
	comp := CompressFrames(data, FrameOptions{})
	src := filereader.MemoryReader(comp)
	for _, size := range []int64{1 << 40, maxExpansion*int64(len(comp)) + 1} {
		forged := []spanengine.Span{{CompOff: 0, CompEnd: int64(len(comp)), DecompSize: size}}
		r, err := spanengine.NewFromCheckpoints(src, Codec{}, forged, 0, spanengine.Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = r.ReadAt(make([]byte, 100), 0)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("table naming %d bytes for a %d-byte frame: ReadAt = %v, want ErrCorrupt", size, len(comp), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing the forged size allocated %d bytes", grew)
		}
		r.Close()
		runtime.ReadMemStats(&before)
		_, parked, err := Codec{}.DecodeSpanPrefix(src, forged[0], nil, 100)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) || parked != nil {
			t.Fatalf("a prefix through a table naming %d bytes: %v, parked %v; want ErrCorrupt", size, err, parked)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing the forged size for a prefix allocated %d bytes", grew)
		}
	}
	// A true table still reads.
	honest := []spanengine.Span{{CompOff: 0, CompEnd: int64(len(comp)), DecompSize: int64(len(data))}}
	r, err := spanengine.NewFromCheckpoints(src, Codec{}, honest, 0, spanengine.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 1000); err != nil || !bytes.Equal(buf, data[1000:1100]) {
		t.Fatalf("ReadAt through an honest table: %v", err)
	}
}

// blockFields returns where the size fields of the blocks of the frame at
// comp[off:] are, in order, up to its EndMark.
func blockFields(t *testing.T, comp []byte, off int64) []int {
	t.Helper()
	h, err := parseFrameHeader(comp[off:])
	if err != nil {
		t.Fatal(err)
	}
	var fields []int
	for p := int(off) + h.headerLen; ; {
		n := int(binary.LittleEndian.Uint32(comp[p:]) &^ (1 << 31))
		if n == 0 {
			return fields
		}
		fields = append(fields, p)
		p += 4 + n
		if h.flg&flgBlockCheck != 0 {
			p += 4
		}
	}
}

// TestChecksummedFrameGoesOutChecked: a frame with a content checksum is
// decoded whole before any byte of it is served, even by the bounded first
// round of a WriteTo. With a byte of the first frame's last block flipped,
// a cold WriteTo writes nothing and fails on the checksum — or as
// corrupt, where the block itself no longer decodes.
func TestChecksummedFrameGoesOutChecked(t *testing.T) {
	const frameSize = 256 << 10
	data := workloads.SilesiaLike(2*frameSize, 12)
	comp := CompressFrames(data, FrameOptions{FrameSize: frameSize, ContentChecksum: true})
	scan, err := Codec{}.Scan(filereader.MemoryReader(comp))
	if err != nil || len(scan.Spans) != 2 {
		t.Fatalf("%d frames, %v", len(scan.Spans), err)
	}
	fields := blockFields(t, comp, 0)
	bad := bytes.Clone(comp)
	bad[fields[len(fields)-1]+4+10] ^= 0x20
	for _, threads := range []int{1, 2} {
		var out bytes.Buffer
		_, err := openEngine(t, bad, threads).WriteTo(&out, 0)
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("threads=%d: WriteTo = %v, want a checksum mismatch or corrupt data", threads, err)
		}
		if out.Len() != 0 {
			t.Fatalf("threads=%d: wrote %d bytes of the corrupt frame", threads, out.Len())
		}
	}
}

// TestBlockChecksumCheckedBeforeServed: in a frame without a content
// checksum but with block checksums, each block is checked before its
// bytes go out. With the second block corrupt a cold WriteTo serves at
// most the first, then fails on the checksum.
func TestBlockChecksumCheckedBeforeServed(t *testing.T) {
	data := workloads.SilesiaLike(256<<10, 13)
	comp := CompressFrames(data, FrameOptions{BlockChecksums: true})
	bad := bytes.Clone(comp)
	bad[blockFields(t, comp, 0)[1]+4+10] ^= 0x20
	var out bytes.Buffer
	_, err := openEngine(t, bad, 1).WriteTo(&out, 0)
	if !errors.Is(err, ErrChecksum) || out.Len() > 64<<10 || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
		t.Fatalf("WriteTo = %v after %d bytes; want ErrChecksum after at most the first block's 64 KiB, unchanged", err, out.Len())
	}
}

// TestFailedResumeDropsPrefix: a frame without checksums, corrupt in its
// third block, serves its first block and then fails. The engine drops the
// parked prefix with the decode that failed to continue it, so the next
// read starts the frame over and fails the same way.
func TestFailedResumeDropsPrefix(t *testing.T) {
	data := workloads.SilesiaLike(256<<10, 14)
	comp := CompressFrames(data, FrameOptions{})
	bad := bytes.Clone(comp)
	third := blockFields(t, comp, 0)[2]
	clear(bad[third+4 : third+4+int(binary.LittleEndian.Uint32(comp[third:])&^(1<<31))]) // offset 0 at its first match
	e := openEngine(t, bad, 1)
	var out bytes.Buffer
	_, err := e.WriteTo(&out, 0)
	if !errors.Is(err, ErrCorrupt) || out.Len() != 64<<10 || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
		t.Fatalf("WriteTo = %v after %d bytes; want ErrCorrupt after the first block's 64 KiB", err, out.Len())
	}
	if s := e.Stats(); s.SpanDecodes != 1 || s.SpanResumes != 0 {
		t.Fatalf("%+v: want one decode, and no resume that succeeded", s)
	}
	if _, again := e.WriteTo(io.Discard, 0); again == nil || again.Error() != err.Error() {
		t.Fatalf("again: %v, want %v", again, err)
	}
	if s := e.Stats(); s.SpanDecodes != 2 {
		t.Fatalf("%d decodes: the next read did not start the frame over", s.SpanDecodes)
	}
}

// TestJumpDecodesToItsBlock: a read that jumps into a frame without a
// content checksum decodes the frame only to the end of the block its
// last byte lies in, and a read on into the next block continues that
// decode rather than starting the frame over.
func TestJumpDecodesToItsBlock(t *testing.T) {
	const frameSize, blockSize = 512 << 10, 64 << 10
	data := workloads.SilesiaLike(2*frameSize, 15)
	e := openEngine(t, CompressFrames(data, FrameOptions{FrameSize: frameSize, BlockSize: blockSize}), 1)
	buf := make([]byte, 4<<10)
	for k, off := range []int64{frameSize + blockSize + 100, frameSize + 2*blockSize + 100} {
		if _, err := e.ReadAt(buf, off); err != nil || !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if s := e.Stats(); s.DecodedBytes != uint64(k+2)*blockSize || s.SpanDecodes != 1 || s.SpanResumes != uint64(k) {
			t.Fatalf("after read %d: %+v; want %d blocks decoded by one decode and %d resumes", k, s, k+2, k)
		}
	}
}
