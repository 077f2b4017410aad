package rapidgzip

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// spanFixtures builds one multi-chunk fixture per format from the same
// corpus — every format, gzip included, runs on the shared span engine
// now, so the whole matrix goes through the same contracts.
func spanFixtures(t *testing.T, data []byte) map[Format][]byte {
	t.Helper()
	gz, _, err := gzipw.Compress(data, gzipw.Options{Level: 6})
	if err != nil {
		t.Fatal(err)
	}
	bgzf, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1, StreamSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return map[Format][]byte{
		FormatGzip:  gz,
		FormatBGZF:  bgzf,
		FormatBzip2: bz,
		FormatLZ4:   lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 64 << 10, ContentChecksum: true}),
		FormatZstd:  zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 64 << 10, ContentChecksum: true}),
	}
}

// TestConcurrentReadAtAllSpanFormats hammers concurrent ReadAt across
// every backend through the shared engine, table-driven with one fixture
// per format (run under -race in CI). A deliberately tiny shared pool
// keeps eviction churning under the concurrency.
func TestConcurrentReadAtAllSpanFormats(t *testing.T) {
	data := workloads.FASTQ(800_000, 9)
	for format, comp := range spanFixtures(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			a, err := OpenBytes(comp, WithParallelism(4), WithSharedPool(NewCachePool(192<<10)), WithChunkSize(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(seed))
					p := make([]byte, 3000)
					for i := 0; i < 25; i++ {
						off := rnd.Int63n(int64(len(data) - len(p)))
						n, err := a.ReadAt(p, off)
						if err != nil && err != io.EOF {
							t.Errorf("ReadAt(%d): %v", off, err)
							return
						}
						if !bytes.Equal(p[:n], data[off:off+int64(n)]) {
							t.Errorf("ReadAt(%d): mismatch", off)
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}

// TestEvictionPressureThroughArchive forces the span cache over
// capacity mid-prefetch through the public API: a shared pool of two
// spans' bytes under the prefetch depth of P=4 (8) must evict
// continuously while sequential consumption stays byte-exact.
func TestEvictionPressureThroughArchive(t *testing.T) {
	data := workloads.Base64(1_500_000, 13)
	comp, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1, StreamSize: 50 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenBytes(comp, WithParallelism(4), WithSharedPool(NewCachePool(100<<10)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch under eviction pressure")
	}
	s := a.Stats()
	if s.SpanCacheEvictions == 0 {
		t.Fatalf("no evictions with a two-span pool and prefetch depth 8: %+v", s)
	}
	if s.PrefetchIssued == 0 {
		t.Fatalf("no prefetches issued during sequential consumption: %+v", s)
	}
}

// TestReopenWithIndexSkipsSizingPass is the acceptance check of the
// span-engine PR (the analogue of PR 1's zero-finder-probes test):
// exporting an RGZIDX04 index and reopening the file with it must
// perform zero sizing passes — for bzip2, for LZ4, and for zstd both
// sized and unsized. A cold open decodes nothing either, whatever the
// format: it reads the file at most once (the bzip2 magic scan) and the
// first sequential pass decodes every byte exactly once, sizing bzip2
// streams and unsized zstd frames as it serves them.
func TestReopenWithIndexSkipsSizingPass(t *testing.T) {
	data := workloads.Base64(400_000, 37)
	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1, StreamSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fixtures := map[string][]byte{
		"data.bz2":         bz,
		"data.lz4":         lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 64 << 10, ContentChecksum: true}),
		"data.zst":         zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 64 << 10, ContentChecksum: true}),
		"data-unsized.zst": zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 64 << 10, OmitContentSize: true}),
	}
	dir := t.TempDir()
	for name, comp := range fixtures {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, comp, 0o644); err != nil {
				t.Fatal(err)
			}

			// Cold open: a scan, and no decode.
			a, err := Open(path, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			cold := a.Stats()
			if cold.SizingPasses != 1 {
				t.Fatalf("cold open ran %d sizing passes, want 1", cold.SizingPasses)
			}
			if cold.DecodedBytes != 0 || cold.SourceBytesRead > uint64(len(comp))+4<<10 {
				t.Fatalf("cold open decoded %d bytes and read %d of a %d-byte file; want a scan only",
					cold.DecodedBytes, cold.SourceBytesRead, len(comp))
			}
			deferred := name == "data.bz2" || name == "data-unsized.zst"
			if _, sized := a.DecompressedSize(); sized == deferred {
				t.Fatalf("DecompressedSize known after open = %v", sized)
			}
			if n, err := a.WriteTo(io.Discard); err != nil || n != int64(len(data)) {
				t.Fatalf("WriteTo = %d, %v", n, err)
			}
			// The pass that sizes a table decodes each span once; a
			// prefetcher over a complete one may lose a span to eviction.
			if s := a.Stats(); s.DecodedBytes < uint64(len(data)) || deferred && s.DecodedBytes != uint64(len(data)) {
				t.Fatalf("one sequential pass decoded %d bytes of %d", s.DecodedBytes, len(data))
			}
			if size, ok := a.DecompressedSize(); !ok || size != int64(len(data)) {
				t.Fatalf("DecompressedSize after a full pass = %d, %v", size, ok)
			}
			ixf, err := os.Create(path + IndexSuffix)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.ExportIndex(ixf); err != nil {
				t.Fatal(err)
			}
			ixf.Close()
			a.Close()

			// Reopen: the sibling index is discovered, the sizing pass
			// is skipped entirely, and content stays byte-exact.
			b, err := Open(path, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if s := b.Stats(); s.SizingPasses != 0 || s.DecodedBytes != 0 {
				t.Fatalf("reopen with index still sized: passes=%d decoded=%d", s.SizingPasses, s.DecodedBytes)
			}
			var out bytes.Buffer
			if _, err := io.Copy(&out, b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("content mismatch through imported checkpoint table")
			}
			// Random access exactness through the imported table.
			buf := make([]byte, 777)
			for _, off := range []int64{0, 65_535, 200_000, int64(len(data)) - 777} {
				if _, err := b.ReadAt(buf, off); err != nil && err != io.EOF {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
				if !bytes.Equal(buf, data[off:off+777]) {
					t.Fatalf("ReadAt(%d): mismatch", off)
				}
			}
			// An unsized zstd file becomes parallel and random-access on
			// reopen: the imported table is complete metadata.
			if name == "data-unsized.zst" {
				caps := b.Capabilities()
				if !caps.RandomAccess || !caps.Parallel || !caps.Prefetch {
					t.Fatalf("unsized zstd with index should gain full capabilities, got %+v", caps)
				}
			}
		})
	}
}

// TestBzip2GrownTableIsTheSizingPassTable: the table a bzip2 archive grows
// by reading is the one a pass that decodes every stream to size it finds
// — built here that way, from the stream magics and compress/bzip2 — so
// its index is what the commit before the growing table exported for the
// same file, and imports. The file is multiformat-seq's corpus.bz2 of the
// repo benchmark (seed 1).
func TestBzip2GrownTableIsTheSizingPassTable(t *testing.T) {
	plain := workloads.SilesiaLike(1<<20, 1)
	comp, err := bzip2x.Compress(plain, bzip2x.WriterOptions{Level: 1, StreamSize: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	var want []gzindex.Checkpoint
	starts := bzip2x.FindStreams(comp)
	for i, off := range starts {
		end := len(comp)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		out, err := bzip2x.Decompress(comp[off:end])
		if err != nil {
			t.Fatalf("fixture has a false-positive magic at %d: %v", off, err)
		}
		c := gzindex.Checkpoint{CompOff: int64(off), CompEnd: int64(end), DecompSize: int64(len(out))}
		if i > 0 {
			c.DecompOff = want[i-1].DecompOff + want[i-1].DecompSize
		}
		want = append(want, c)
	}

	path := writeTempFile(t, t.TempDir(), "corpus.bz2", comp)
	a, err := Open(path, WithParallelism(2), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Read out of order first: the table must not depend on who grew it.
	buf := make([]byte, 1000)
	if _, err := a.ReadAt(buf, 700_000); err != nil || !bytes.Equal(buf, plain[700_000:701_000]) {
		t.Fatalf("ReadAt ahead of the table: %v", err)
	}
	var ixBytes bytes.Buffer
	if err := a.ExportIndex(&ixBytes); err != nil {
		t.Fatal(err)
	}
	ix, err := gzindex.Read(bytes.NewReader(ixBytes.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ct := ix.Checkpoints; ct == nil || ct.Format != bzip2x.FormatTag || ct.Flags != 0 || !slices.Equal(ct.Spans, want) ||
		ix.UncompressedSize != uint64(len(plain)) || ix.CompressedSize != uint64(len(comp)) {
		t.Fatalf("exported table %+v, want spans %+v", ix.Checkpoints, want)
	}

	b, err := Open(path, WithParallelism(2), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.ImportIndex(&ixBytes); err != nil {
		t.Fatal(err)
	}
	if size, ok := b.DecompressedSize(); !ok || size != int64(len(plain)) {
		t.Fatalf("DecompressedSize through the index = %d, %v", size, ok)
	}
	var out bytes.Buffer
	if _, err := b.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), plain) {
		t.Fatalf("WriteTo through the index: %d bytes, %v", out.Len(), err)
	}
	if s := b.Stats(); s.SizingPasses != 0 || s.DecodedBytes != uint64(len(plain)) {
		t.Fatalf("through the index: %+v", s)
	}
}
