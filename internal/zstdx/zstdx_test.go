package zstdx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

func TestDecodeRealMultiFrame(t *testing.T) {
	comp, err := os.ReadFile("testdata/real-multiframe.zst")
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.Base64(262144, 77)
	scan, err := Codec{}.Scan(filereader.MemoryReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Spans) != 4 || scan.Flags&FlagMetadataSized == 0 {
		t.Fatalf("scan: %d frames, flags %#x; want 4 sized frames", len(scan.Spans), scan.Flags)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("serial decode mismatch")
	}
	got, err = decodeAll(openEngine(t, comp, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parallel decode mismatch")
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

// decodeAll streams the whole file out of the engine, frames decoding in
// parallel.
func decodeAll(e *spanengine.Engine) ([]byte, error) {
	var out bytes.Buffer
	_, err := e.WriteTo(&out, 0)
	return out.Bytes(), err
}

func TestDecodeRealNoContentSize(t *testing.T) {
	comp, err := os.ReadFile("testdata/real-nosize.zst")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Codec{}.Scan(filereader.MemoryReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	if scan.Flags&FlagMetadataSized != 0 {
		t.Fatal("streamed fixture unexpectedly declares content sizes")
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.FASTQ(131072, 33); !bytes.Equal(got, want) {
		t.Fatal("decode mismatch")
	}
}

func TestDecodeRealRepetitive(t *testing.T) {
	comp, err := os.ReadFile("testdata/real-repetitive.zst")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte("zstd "), 40000); !bytes.Equal(got, want) {
		t.Fatal("decode mismatch")
	}
}

// encoderInputs are the shapes the encoder must handle; all are
// deterministic.
func encoderInputs() map[string][]byte {
	return map[string][]byte{
		"empty":   {},
		"one":     {42},
		"two":     {1, 2},
		"rle":     bytes.Repeat([]byte{7}, 100000),
		"text":    bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 5000),
		"base64":  workloads.Base64(1<<20, 5),
		"fastq":   workloads.FASTQ(1<<20, 6),
		"random":  workloads.Random(300000, 4),
		"hibytes": workloads.Random(65536, 9), // symbols ≥ 128: raw-literals path
		// Text, noise, text: at 10000-byte blocks the middle one goes raw
		// between two compressed ones.
		"raw-between": slices.Concat(workloads.SilesiaLike(10000, 3), workloads.Random(10000, 5), workloads.SilesiaLike(10000, 4)),
		"silesia":     workloads.SilesiaLike(256<<10, 1),
	}
}

func encoderOptions() []FrameOptions {
	return []FrameOptions{
		{},
		{Level: 1},
		{Level: 1, ContentChecksum: true},
		{Level: 1, FrameSize: 256 << 10, ContentChecksum: true},
		{Level: 1, FrameSize: 100000, BlockSize: 10000},
		{Level: 1, BlockSize: 4 << 10, ContentChecksum: true},
		{Level: 1, OmitContentSize: true},
		{FrameSize: 1 << 18, OmitContentSize: true, ContentChecksum: true},
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	for name, data := range encoderInputs() {
		for _, opt := range encoderOptions() {
			comp := CompressFrames(data, opt)
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("%s/%+v: %v", name, opt, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%+v: mismatch (%d vs %d bytes)", name, opt, len(got), len(data))
			}
		}
	}
}

// TestEncoderShapes holds the inputs and options TestEncodeRoundTrip
// and TestEncodeInterop run to the shapes they are there to cover: each
// sequence-table mode, repeat offsets coded with no literals before
// them, a raw block between two compressed ones, and incompressible
// input.
func TestEncoderShapes(t *testing.T) {
	inputs := encoderInputs()
	small := FrameOptions{Level: 1, BlockSize: 4 << 10, ContentChecksum: true}
	if !slices.Contains(encoderOptions(), small) {
		t.Fatalf("encoderOptions lacks %+v", small)
	}
	count := func(name string, opts FrameOptions) (types [3]int, modes [4]int, repNoLit int) {
		return countShapes(inputs[name], opts)
	}
	for _, c := range []struct {
		input string
		mode  byte
	}{{"text", modeRLE}, {"fastq", modeFSE}, {"fastq", modeRepeat}, {"text", modeRepeat}} {
		if _, modes, _ := count(c.input, small); modes[c.mode] == 0 {
			t.Errorf("%s at 4 KiB blocks: no table in mode %d (modes used %v)", c.input, c.mode, modes)
		}
	}
	for _, name := range []string{"fastq", "text", "silesia"} {
		if _, _, rep := count(name, small); rep == 0 {
			t.Errorf("%s at 4 KiB blocks: no repeat offset coded without literals", name)
		}
	}
	shapes := encodeShapes(inputs["raw-between"], FrameOptions{Level: 1, BlockSize: 10000})
	if len(shapes) != 3 || shapes[0].btype != 2 || shapes[1].btype != 0 || shapes[2].btype != 2 || shapes[2].nbSeq == 0 {
		t.Errorf("raw-between at 10000-byte blocks: %+v, want compressed, raw, compressed with sequences", shapes)
	}
	for _, opts := range []FrameOptions{small, {Level: 1}} {
		if types, _, _ := count("random", opts); types[1] != 0 || types[2] != 0 {
			t.Errorf("random at %d-byte blocks: block types %v, want raw alone", opts.BlockSize, types)
		}
	}
}

// TestEncodeRatio is the zstd writer's size gate: level 1 on the bench
// corpus, in 1 MiB frames with checksums, as the repository benchmark
// and Create write it. The reference zstd at -1 stores the same frames
// in 0.3134 of the input; predefined tables and a single 4-byte match
// table stored 0.4343.
func TestEncodeRatio(t *testing.T) {
	data := workloads.SilesiaLike(16<<20, 1)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 1 << 20, ContentChecksum: true})
	ratio := float64(len(comp)) / float64(len(data))
	t.Logf("%d B of %d: ratio %.4f", len(comp), len(data), ratio)
	if ratio > 0.345 {
		t.Errorf("ratio %.4f, want at most 0.345", ratio)
	}
	if got, err := Decompress(comp); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

// TestDecodeAllocationsPerFrame holds a frame's decode to allocations
// made once per frame: the tables every block describes are built in
// storage the frame's decoder reuses, so a frame of 32 blocks allocates
// no more than one of 4.
func TestDecodeAllocationsPerFrame(t *testing.T) {
	opts := FrameOptions{Level: 1, BlockSize: 4 << 10, ContentChecksum: true}
	allocs := func(blocks int) float64 {
		data := workloads.SilesiaLike(blocks*opts.BlockSize, 7)
		comp := CompressFrames(data, opts)
		if types, modes, _ := countShapes(data, opts); types[2] < blocks-1 || modes[modeFSE] == 0 {
			t.Fatalf("%d blocks: types %v, table modes %v; want compressed blocks with FSE tables", blocks, types, modes)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Decompress(comp); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(4), allocs(32)
	t.Logf("allocations per decode: %.0f for 4 blocks, %.0f for 32", few, many)
	if many > few {
		t.Errorf("a frame of 32 blocks allocates %.0f times, one of 4 %.0f: a block allocates", many, few)
	}
}

// TestEncodeInterop pipes our encoder's output through the reference
// zstd CLI. It skips where the CLI is missing, except under CI, which
// installs it.
func TestEncodeInterop(t *testing.T) {
	if _, err := exec.LookPath("zstd"); err != nil {
		if os.Getenv("CI") != "" {
			t.Fatal("zstd binary not installed; CI must run the interop check")
		}
		t.Skip("zstd binary not installed")
	}
	dir := t.TempDir()
	for name, data := range encoderInputs() {
		for i, opt := range encoderOptions() {
			comp := CompressFrames(data, opt)
			zf := filepath.Join(dir, fmt.Sprintf("%s-%d.zst", name, i))
			of := zf + ".out"
			if err := os.WriteFile(zf, comp, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("zstd", "-d", "-f", "-o", of, zf)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s/%+v: zstd -d rejected our frames: %v: %s", name, opt, err, out)
			}
			ref, err := os.ReadFile(of)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, data) {
				t.Fatalf("%s/%+v: zstd -d output mismatch", name, opt)
			}
		}
	}
}

func TestSkippableFrames(t *testing.T) {
	data := workloads.Base64(100000, 11)
	comp := AppendSkippable(nil, []byte("index payload"))
	head := int64(len(comp))
	comp = append(comp, CompressFrames(data, FrameOptions{Level: 1, FrameSize: 30000})...)
	tail := int64(len(comp))
	comp = AppendSkippable(comp, nil)
	scan, err := Codec{}.Scan(filereader.MemoryReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	// The skippable frames are the gaps before span 0 and after span 3.
	if len(scan.Spans) != 4 || scan.Spans[0].CompOff != head || scan.Spans[3].CompEnd != tail {
		t.Fatalf("scan: %+v; want 4 spans over [%d,%d)", scan.Spans, head, tail)
	}
	for i := 1; i < len(scan.Spans); i++ {
		if scan.Spans[i].CompOff != scan.Spans[i-1].CompEnd {
			t.Fatalf("gap between spans %d and %d: %+v", i-1, i, scan.Spans)
		}
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode mismatch around skippable frames")
	}
	if got, err = decodeAll(openEngine(t, comp, 2)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("engine decode around skippable frames: %v", err)
	}
}

func TestReaderRandomAccess(t *testing.T) {
	data := workloads.FASTQ(1<<20, 21)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 64 << 10, ContentChecksum: true})
	r := openEngine(t, comp, 4)
	if f := r.Flags(); f&FlagMetadataSized == 0 || f&FlagChecksummed == 0 {
		t.Fatalf("flags %#x; want metadata-sized and checksummed", f)
	}
	size, err := r.TotalSize()
	if err != nil || size != int64(len(data)) {
		t.Fatalf("TotalSize = %d, %v, want %d", size, err, len(data))
	}
	if st := r.Stats(); st.DecodedBytes != 0 {
		t.Fatalf("the size of a sized file cost %d decoded bytes", st.DecodedBytes)
	}
	if r.NumSpans() != 16 {
		t.Fatalf("NumSpans = %d, want 16", r.NumSpans())
	}
	offsets := []int64{0, 1, 65535, 65536, 65537, 500000, int64(len(data)) - 100}
	for _, off := range offsets {
		buf := make([]byte, 1000)
		n, err := r.ReadAt(buf, off)
		want := min(len(buf), len(data)-int(off))
		if n != want || (err != nil && !errors.Is(err, io.EOF)) {
			t.Fatalf("ReadAt(%d): n=%d err=%v, want n=%d", off, n, err, want)
		}
		if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d): content mismatch", off)
		}
	}
	// chunk table covers the stream contiguously
	var pos int64
	for i, s := range r.CheckpointTable().Spans {
		if s.DecompOff != pos {
			t.Fatalf("chunk %d starts at %d, want %d", i, s.DecompOff, pos)
		}
		content := make([]byte, s.DecompSize)
		if n, err := r.ReadAt(content, s.DecompOff); err != nil || !bytes.Equal(content[:n], data[pos:pos+s.DecompSize]) {
			t.Fatalf("chunk %d: %d bytes, %v", i, n, err)
		}
		pos += s.DecompSize
	}
	if pos != size {
		t.Fatalf("chunks cover %d bytes, size is %d", pos, size)
	}
}

// TestReaderConcurrentReadAt: eight readers at once, over frames of one
// block and over frames of many, whose decodes stop between blocks and
// are continued by whichever reader gets there next.
func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.Base64(512<<10, 13)
	for _, opts := range []FrameOptions{{Level: 1, FrameSize: 32 << 10}, {Level: 1, FrameSize: 128 << 10, BlockSize: 8 << 10}} {
		concurrentReadAt(t, openEngine(t, CompressFrames(data, opts), 4), data)
	}
}

func concurrentReadAt(t *testing.T, r *spanengine.Engine, data []byte) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 5000)
			for i := 0; i < 40; i++ {
				off := int64((g*97 + i*31337) % (len(data) - len(buf)))
				n, err := r.ReadAt(buf, off)
				if err != nil || n != len(buf) {
					t.Errorf("ReadAt(%d): n=%d err=%v", off, n, err)
					return
				}
				if !bytes.Equal(buf, data[off:off+int64(n)]) {
					t.Errorf("ReadAt(%d): mismatch", off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestReaderUnsizedFrames(t *testing.T) {
	data := workloads.Base64(300<<10, 19)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 100 << 10, OmitContentSize: true})
	r := openEngine(t, comp, 2)
	if r.Flags()&FlagMetadataSized != 0 {
		t.Fatal("OmitContentSize frames reported as sized")
	}
	// The scan finds the frames and decodes none; a read ahead of the
	// table decodes up to where it lands, each frame once.
	if st := r.Stats(); st.DecodedBytes != 0 || r.ScanSpans() != 3 || r.NumSpans() != 0 {
		t.Fatalf("after open: %d frames, %d spans, %+v", r.ScanSpans(), r.NumSpans(), st)
	}
	buf := make([]byte, 4096)
	off := int64(250 << 10)
	if _, err := r.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+4096]) {
		t.Fatal("ReadAt mismatch on unsized file")
	}
	size, err := r.TotalSize()
	if err != nil || size != int64(len(data)) {
		t.Fatalf("TotalSize = %d, %v, want %d", size, err, len(data))
	}
	if st := r.Stats(); st.DecodedBytes != uint64(len(data)) || st.SpanDecodes != 3 {
		t.Fatalf("sizing and reading three frames: %+v", st)
	}
}

func TestDecompressParallelMatchesSerial(t *testing.T) {
	data := workloads.FASTQ(2<<20, 3)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 128 << 10, ContentChecksum: true})
	for _, threads := range []int{1, 2, 4, 8} {
		got, err := decodeAll(openEngine(t, comp, threads))
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("threads=%d: mismatch", threads)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	data := workloads.Base64(50000, 2)
	comp := CompressFrames(data, FrameOptions{Level: 1, ContentChecksum: true})
	// Flip a byte inside the payload (past the 6-byte header).
	bad := append([]byte{}, comp...)
	bad[len(bad)/2] ^= 0x40
	if _, err := Decompress(bad); err == nil {
		t.Fatal("corrupted frame decoded without error")
	}
}

func TestTruncationsAndGarbageDoNotPanic(t *testing.T) {
	data := workloads.Base64(100000, 8)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 30000, ContentChecksum: true})
	for cut := 0; cut < len(comp); cut += 917 {
		if _, err := Decompress(comp[:cut]); err == nil && cut < len(comp) {
			// Truncation at a frame boundary legitimately decodes a
			// prefix; anything else must error.
			if _, serr := (Codec{}).Scan(filereader.MemoryReader(comp[:cut])); serr == nil {
				continue
			}
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < 64; i++ {
		garbage := workloads.Random(300, uint64(i))
		_, _ = Decompress(garbage) // must not panic
	}
	if _, err := Decompress([]byte{0x28, 0xB5, 0x2F, 0xFD}); err == nil {
		t.Fatal("bare magic decoded")
	}
	if _, err := Decompress(nil); err != nil {
		t.Fatalf("empty input is zero frames, got %v", err)
	}
}

func TestDictionaryFramesRejected(t *testing.T) {
	// Frame header with Dictionary_ID_flag = 1 and a one-byte dict ID.
	frame := []byte{0x28, 0xB5, 0x2F, 0xFD, 0x01, 0x00, 0x07, 0x01, 0x00, 0x00}
	if _, err := Decompress(frame); err == nil {
		t.Fatal("dictionary frame decoded without error")
	}
}

func TestErrNotZstd(t *testing.T) {
	if _, err := (Codec{}).Scan(filereader.MemoryReader("not a zstd file at all")); !errors.Is(err, ErrNotZstd) {
		t.Fatalf("got %v, want ErrNotZstd", err)
	}
}

func BenchmarkDecompressParallelBase64(b *testing.B) {
	data := workloads.Base64(8<<20, 42)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 1 << 20, ContentChecksum: true})
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("P%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				e, err := spanengine.New(filereader.MemoryReader(comp), Codec{}, spanengine.Config{Threads: threads})
				if err != nil {
					b.Fatal(err)
				}
				_, err = e.WriteTo(io.Discard, 0)
				e.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockHeaders returns where the block headers of the frame at comp[off:]
// are, in order.
func blockHeaders(t *testing.T, comp []byte, off int64) []int {
	t.Helper()
	h, err := parseFrameHeader(comp[off:])
	if err != nil {
		t.Fatal(err)
	}
	var heads []int
	for p := int(off) + h.headerLen; ; {
		heads = append(heads, p)
		bh := uint32(comp[p]) | uint32(comp[p+1])<<8 | uint32(comp[p+2])<<16
		n := int(bh >> 3)
		if bh>>1&3 == 1 {
			n = 1 // RLE: one byte regenerates the block
		}
		p += 3 + n
		if bh&1 != 0 {
			return heads
		}
	}
}

// corruptCompressedBlock zeroes the payload of the compressed block whose
// header is at p: a literals-only block with bytes after it, which no
// decode accepts.
func corruptCompressedBlock(t *testing.T, comp []byte, p int) {
	t.Helper()
	bh := uint32(comp[p]) | uint32(comp[p+1])<<8 | uint32(comp[p+2])<<16
	if bh>>1&3 != 2 || bh>>3 < 3 {
		t.Fatalf("block at %d is not a compressed block of 3 bytes or more", p)
	}
	clear(comp[p+3 : p+3+int(bh>>3)])
}

// TestChecksummedFrameGoesOutChecked: a frame with a content checksum is
// decoded whole before any byte of it is served, even by the bounded first
// round of a WriteTo. With a byte of the first frame's last block flipped,
// a cold WriteTo writes nothing and fails on the checksum — or as
// corrupt, where the block itself no longer decodes.
func TestChecksummedFrameGoesOutChecked(t *testing.T) {
	const frameSize = 512 << 10
	data := workloads.SilesiaLike(2*frameSize, 12)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: frameSize, ContentChecksum: true})
	scan, err := Codec{}.Scan(filereader.MemoryReader(comp))
	if err != nil || len(scan.Spans) != 2 {
		t.Fatalf("%d frames, %v", len(scan.Spans), err)
	}
	heads := blockHeaders(t, comp, 0)
	bad := bytes.Clone(comp)
	bad[heads[len(heads)-1]+3+10] ^= 0x20
	for _, threads := range []int{1, 2} {
		out, err := decodeAll(openEngine(t, bad, threads))
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("threads=%d: WriteTo = %v, want a checksum mismatch or corrupt data", threads, err)
		}
		if len(out) != 0 {
			t.Fatalf("threads=%d: wrote %d bytes of the corrupt frame", threads, len(out))
		}
	}
}

// TestFailedResumeDropsPrefix: a frame without a content checksum,
// corrupt in its third block, serves its first block and then fails. The
// engine drops the parked prefix with the decode that failed to continue
// it, so the next read starts the frame over and fails the same way.
func TestFailedResumeDropsPrefix(t *testing.T) {
	data := workloads.SilesiaLike(512<<10, 14)
	comp := CompressFrames(data, FrameOptions{Level: 1})
	bad := bytes.Clone(comp)
	corruptCompressedBlock(t, bad, blockHeaders(t, comp, 0)[2])
	e := openEngine(t, bad, 1)
	out, err := decodeAll(e)
	if !errors.Is(err, ErrCorrupt) || len(out) != maxBlockSize || !bytes.Equal(out, data[:len(out)]) {
		t.Fatalf("WriteTo = %v after %d bytes; want ErrCorrupt after the first block's 128 KiB", err, len(out))
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

// TestForgedTableSizeIsNotAllocated: a checkpoint table is outside input
// (an index file whose CRC an attacker can compute). A size for a frame
// that its header contradicts, or that its blocks cannot hold where the
// header states none, fails the read as corrupt before the decoder
// allocates what it names.
func TestForgedTableSizeIsNotAllocated(t *testing.T) {
	data := workloads.Base64(4<<10, 5)
	for _, omit := range []bool{false, true} {
		comp := CompressFrames(data, FrameOptions{Level: 1, OmitContentSize: omit})
		src := filereader.MemoryReader(comp)
		forged := []spanengine.Span{{CompOff: 0, CompEnd: int64(len(comp)), DecompSize: 1 << 40}}
		r, err := spanengine.NewFromCheckpoints(src, Codec{}, forged, 0, spanengine.Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = r.ReadAt(make([]byte, 100), 0)
		runtime.ReadMemStats(&after)
		r.Close()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("omit size %v: ReadAt through a table naming 1 TiB = %v, want ErrCorrupt", omit, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("omit size %v: refusing the forged size allocated %d bytes", omit, grew)
		}
		// The true size reads, from the table alone where the header has none.
		honest := []spanengine.Span{{CompOff: 0, CompEnd: int64(len(comp)), DecompSize: int64(len(data))}}
		if r, err = spanengine.NewFromCheckpoints(src, Codec{}, honest, 0, spanengine.Config{Threads: 1}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		_, err = r.ReadAt(buf, 1000)
		r.Close()
		if err != nil || !bytes.Equal(buf, data[1000:1100]) {
			t.Fatalf("omit size %v: ReadAt through an honest table: %v", omit, err)
		}
	}
}

// TestJumpDecodesToItsBlock: a read that jumps into a frame without a
// content checksum decodes the frame only to the end of the block its
// last byte lies in, and a read on into the next block continues that
// decode rather than starting the frame over.
func TestJumpDecodesToItsBlock(t *testing.T) {
	const frameSize, blockSize = 512 << 10, 64 << 10
	data := workloads.SilesiaLike(2*frameSize, 15)
	e := openEngine(t, CompressFrames(data, FrameOptions{Level: 1, FrameSize: frameSize, BlockSize: blockSize}), 1)
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
