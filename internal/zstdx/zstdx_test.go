package zstdx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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
	scan, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 4 || !scan.Sized {
		t.Fatalf("scan: %d frames, sized=%v; want 4 sized frames", len(scan.Frames), scan.Sized)
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
	scan, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Sized {
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
	}
}

func encoderOptions() []FrameOptions {
	return []FrameOptions{
		{},
		{Level: 1},
		{Level: 1, ContentChecksum: true},
		{Level: 1, FrameSize: 256 << 10, ContentChecksum: true},
		{Level: 1, FrameSize: 100000, BlockSize: 10000},
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

// TestEncodeInterop pipes our encoder's output through the reference
// zstd CLI when present (skipped otherwise — CI has it).
func TestEncodeInterop(t *testing.T) {
	if _, err := exec.LookPath("zstd"); err != nil {
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
	comp = append(comp, CompressFrames(data, FrameOptions{Level: 1, FrameSize: 30000})...)
	comp = AppendSkippable(comp, nil)
	scan, err := ScanFrames(comp)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Skippable != 2 || len(scan.Frames) != 4 {
		t.Fatalf("scan: %d skippable, %d frames; want 2 and 4", scan.Skippable, len(scan.Frames))
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

func TestReaderConcurrentReadAt(t *testing.T) {
	data := workloads.Base64(512<<10, 13)
	comp := CompressFrames(data, FrameOptions{Level: 1, FrameSize: 32 << 10})
	r := openEngine(t, comp, 4)
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
			if _, serr := ScanFrames(comp[:cut]); serr == nil {
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
	if _, err := ScanFrames([]byte("not a zstd file at all")); !errors.Is(err, ErrNotZstd) {
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
