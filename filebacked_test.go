package rapidgzip

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// writeTempFile writes data under dir and returns its path.
func writeTempFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sparseWorks probes whether dir's filesystem keeps unwritten regions
// as holes: a 64 MiB truncated file with 4 KiB of real data must
// allocate well under 1 MiB. Without hole support the harness's
// multi-GiB tiers would actually consume that much disk, so they skip.
func sparseWorks(t *testing.T, dir string) bool {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "sparse-probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(64 << 20); err != nil {
		return false
	}
	if _, err := f.WriteAt([]byte("end"), 64<<20-8); err != nil {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	alloc, ok := allocatedBytes(fi)
	return ok && alloc < 1<<20
}

// TestLargerThanMemoryHarness is the proof of the file-backed span
// engine: synthetic sparse archives shaped like multi-gigabyte files
// (generated on the fly, seeded, no testdata blobs) open and serve
// random ReadAt with the compressed source never resident as a whole.
// The bytes-read/pread counters in Stats are the instrument — the open
// reads only metadata, and each access preads only the span extents it
// decodes. Size tiers are -short-gated: the small tier always runs;
// the larger-than-typical-CI-memory tier needs a full (non-short) run
// plus a filesystem that supports holes.
func TestLargerThanMemoryHarness(t *testing.T) {
	type tier struct {
		name         string
		format       Format
		content      int64 // decompressed (and, stored, roughly compressed) size
		frameContent int64
		blockSize    int // LZ4 and gzip stored-block size; zstd blocks are fixed at 128 KiB
		// spanCompMax bounds one engine span's compressed extent; zero
		// means frameContent plus framing slack (formats whose span is
		// one frame). BGZF groups many members per span and gzip cuts
		// chunk-sized spans, so they set it explicitly.
		spanCompMax uint64
		// viaIndex prebuilds and exports the seek-point index with a
		// throwaway open, then runs the harness against a reopen that
		// discovers it — plain gzip's random-access mode (a cold gzip
		// open can only grow its span table sequentially).
		viaIndex bool
	}
	tiers := []tier{
		{name: "small", format: FormatLZ4, content: 128 << 20, frameContent: 4 << 20, blockSize: 1 << 20},
		{name: "small", format: FormatZstd, content: 128 << 20, frameContent: 4 << 20},
		{name: "small", format: FormatBGZF, content: 64 << 20, frameContent: 65280, spanCompMax: 4<<20 + 64<<10},
		{name: "small", format: FormatGzip, content: 128 << 20, frameContent: 4 << 20, blockSize: 60_000,
			spanCompMax: 8<<20 + 64<<10, viaIndex: true},
	}
	if !testing.Short() {
		// The big tiers pin one format each so a full test run stays
		// minutes, not tens of minutes; geometry keeps the scan's
		// header-pread count in the low thousands.
		tiers = append(tiers,
			tier{name: "large-4GiB", format: FormatLZ4, content: 4 << 30, frameContent: 16 << 20, blockSize: 4 << 20},
			tier{name: "large-1GiB", format: FormatZstd, content: 1 << 30, frameContent: 8 << 20},
			tier{name: "large-1GiB", format: FormatBGZF, content: 1 << 30, frameContent: 65280, spanCompMax: 4<<20 + 64<<10},
			tier{name: "large-1GiB", format: FormatGzip, content: 1 << 30, frameContent: 8 << 20, blockSize: 65535,
				spanCompMax: 8<<20 + 64<<10, viaIndex: true},
		)
	}
	for _, ti := range tiers {
		format := ti.format
		t.Run(fmt.Sprintf("%s-%s", ti.name, format), func(t *testing.T) {
			dir := t.TempDir()
			if ti.content > 512<<20 && !sparseWorks(t, dir) {
				t.Skipf("filesystem does not keep holes; skipping %s tier", ti.name)
			}
			f, err := os.Create(filepath.Join(dir, "sparse-archive"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			numFrames := int((ti.content + ti.frameContent - 1) / ti.frameContent)
			dataFrames := []int{0, numFrames / 2, numFrames - 1}
			var plan *workloads.SparsePlan
			switch format {
			case FormatGzip:
				plan, err = workloads.WriteSparseGzip(f, ti.content, ti.frameContent, ti.blockSize, 42, dataFrames)
			case FormatBGZF:
				plan, err = workloads.WriteSparseBGZF(f, ti.content, ti.frameContent, 42, dataFrames)
			case FormatLZ4:
				plan, err = workloads.WriteSparseLZ4(f, ti.content, ti.frameContent, ti.blockSize, 42, dataFrames)
			case FormatZstd:
				plan, err = workloads.WriteSparseZstd(f, ti.content, ti.frameContent, 42, dataFrames)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Flush generation before scanning: interleaving the scan's
			// preads with writeback of the freshly written headers is
			// measurably pathological on some filesystems.
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}

			if ti.viaIndex {
				// Throwaway sequential open: grow the span table over the
				// whole file once and persist it as the sibling index the
				// harness open below discovers.
				cold, err := Open(f.Name(), WithParallelism(4), WithoutIndexDiscovery())
				if err != nil {
					t.Fatal(err)
				}
				ixf, err := os.Create(f.Name() + IndexSuffix)
				if err != nil {
					t.Fatal(err)
				}
				err = cold.ExportIndex(ixf)
				if cerr := ixf.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := cold.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// One worker keeps the prefetch depth shallow: 2 for LZ4 and
			// zstd, 4 for gzip and BGZF.
			opts := []Option{WithParallelism(1)}
			if !ti.viaIndex {
				opts = append(opts, WithoutIndexDiscovery())
			}
			a, err := Open(f.Name(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if size, _ := a.Size(); size != plan.ContentSize {
				t.Fatalf("Size = %d, want %d", size, plan.ContentSize)
			}
			if !a.Capabilities().RandomAccess {
				t.Fatal("multi-frame sparse archive reports no random access")
			}

			open := a.Stats()
			if ti.viaIndex {
				// The index reopen contract, counter-asserted: the span
				// table comes from the sibling index — no sizing pass, no
				// source bytes touched before the first access (the
				// fingerprint probe reads outside the counters).
				if open.SizingPasses != 0 || open.DecodedBytes != 0 {
					t.Fatalf("index reopen ran a sizing pass or decoded: %+v", open)
				}
				if open.SourceReads != 0 || open.SourceBytesRead != 0 {
					t.Fatalf("index reopen read %d source bytes in %d preads before any access; want zero",
						open.SourceBytesRead, open.SourceReads)
				}
			} else {
				if open.SizingPasses != 1 || open.DecodedBytes != 0 {
					t.Fatalf("metadata-sized open decoded: %+v", open)
				}
				// The open is a header walk: windowed reads around frame and
				// block headers, a low single-digit percentage of the file.
				scanBound := uint64(plan.CompressedSize/8) + 64<<10
				if open.SourceBytesRead > scanBound {
					t.Fatalf("open read %d source bytes of a %d-byte file (bound %d): not a windowed metadata scan",
						open.SourceBytesRead, plan.CompressedSize, scanBound)
				}
				if open.SourceReads == 0 {
					t.Fatal("file-backed open reported zero source reads")
				}
			}

			// Random accesses: data frames (seeded payload), hole frames
			// (zeros), a frame boundary straddle, and the file tail.
			readSize := 64 << 10
			offsets := []int64{
				0,
				ti.frameContent/2 + 123,
				int64(numFrames/2)*ti.frameContent + 7, // data frame
				ti.frameContent - int64(readSize)/2,    // straddles frames 0/1
				int64(numFrames/4)*ti.frameContent + 9, // hole frame
				plan.ContentSize - int64(readSize) - 1,
			}
			buf := make([]byte, readSize)
			for _, off := range offsets {
				n, err := a.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
				if n != readSize {
					t.Fatalf("ReadAt(%d): %d of %d bytes", off, n, readSize)
				}
				if want := plan.ExpectedAt(off, n); !bytes.Equal(buf[:n], want) {
					t.Fatalf("ReadAt(%d): content mismatch against generation plan", off)
				}
			}

			s := a.Stats()
			// Every pread after the scan serves a span decode, and a span's
			// compressed extent is its content plus per-block framing: the
			// total source traffic must be explained by the decode count —
			// extent-granular reads, not whole-file ones. Up to MaxPrefetch
			// decodes may still be in flight when the counters are sampled
			// (their preads land before their completions), hence the +2.
			spanCompMax := uint64(ti.frameContent) + 64<<10
			if ti.spanCompMax != 0 {
				spanCompMax = ti.spanCompMax
			}
			accessBytes := s.SourceBytesRead - open.SourceBytesRead
			if accessBytes > (s.SpanDecodes+2)*spanCompMax {
				t.Fatalf("%d source bytes for %d span decodes (max %d per span): reads are not extent-granular",
					accessBytes, s.SpanDecodes, spanCompMax)
			}
			if s.SpanDecodes == 0 || s.SpanDecodes >= uint64(numFrames) {
				t.Fatalf("%d span decodes for %d targeted reads over %d frames: expected a small, access-driven subset",
					s.SpanDecodes, len(offsets), numFrames)
			}
			if s.SourceBytesRead >= uint64(plan.CompressedSize) {
				t.Fatalf("read %d bytes of a %d-byte file: the whole compressed file was materialized",
					s.SourceBytesRead, plan.CompressedSize)
			}
		})
	}
}

// fileBackedFixture compresses seeded content into the given format and
// writes it to a temp file, returning the path and the plain content.
func fileBackedFixture(t *testing.T, dir string, format Format, contentSize int) (string, []byte) {
	t.Helper()
	content := workloads.Base64(contentSize, 7)
	var comp []byte
	var name string
	var err error
	switch format {
	case FormatGzip:
		comp, _, err = gzipw.Compress(content, gzipw.Options{Level: 1, BlockSize: 32 << 10})
		name = "fixture.gz"
	case FormatBGZF:
		comp, _, err = gzipw.Compress(content, gzipw.Options{Level: 1, BGZF: true})
		name = "fixture.bgzf"
	case FormatBzip2:
		comp, err = bzip2x.Compress(content, bzip2x.WriterOptions{Level: 1, StreamSize: 256 << 10})
		name = "fixture.bz2"
	case FormatLZ4:
		comp = lz4x.CompressFrames(content, lz4x.FrameOptions{FrameSize: 256 << 10, ContentChecksum: true})
		name = "fixture.lz4"
	case FormatZstd:
		comp = zstdx.CompressFrames(content, zstdx.FrameOptions{Level: 1, FrameSize: 256 << 10, ContentChecksum: true})
		name = "fixture.zst"
	default:
		t.Fatalf("no file-backed fixture for %v", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return writeTempFile(t, dir, name, comp), content
}

// spanFormats are the five span-engine formats the file-backed matrix
// covers — since the gzip/BGZF chunk pipeline runs on the shared
// engine, gzip and BGZF go through the same file-backed contracts as
// the rest. The WithChunkSize in the matrix opens only affects
// gzip/BGZF (span granularity is format-inherent elsewhere) and keeps
// their span tables multi-entry at these fixture sizes.
var spanFormats = []Format{FormatGzip, FormatBGZF, FormatBzip2, FormatLZ4, FormatZstd}

// TestFileBackedConcurrentReadAt mirrors the in-memory concurrent
// matrix over real files: 8 goroutines hammer random offsets of a
// file-backed archive per format, under -race in CI.
func TestFileBackedConcurrentReadAt(t *testing.T) {
	for _, format := range spanFormats {
		t.Run(format.String(), func(t *testing.T) {
			path, content := fileBackedFixture(t, t.TempDir(), format, 2<<20)
			a, err := Open(path, WithParallelism(4), WithChunkSize(256<<10), WithoutIndexDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 3000)
					for i := 0; i < 40; i++ {
						off := int64((g*977 + i*31337) % (len(content) - len(buf)))
						n, err := a.ReadAt(buf, off)
						if err != nil || n != len(buf) {
							t.Errorf("ReadAt(%d): n=%d err=%v", off, n, err)
							return
						}
						if !bytes.Equal(buf, content[off:off+int64(n)]) {
							t.Errorf("ReadAt(%d): mismatch", off)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if s := a.Stats(); s.SourceReads == 0 {
				t.Fatalf("file-backed archive served reads with zero source preads: %+v", s)
			}
		})
	}
}

// TestFileBackedEvictionPressureMidPrefetch squeezes the span cache (a
// shared pool of about two spans' bytes) under a deep prefetch (2P or
// 4P at P=4) while decodes pread a real temp file: evictions must land
// mid-flight without corrupting content or wedging the engine.
func TestFileBackedEvictionPressureMidPrefetch(t *testing.T) {
	for _, format := range spanFormats {
		t.Run(format.String(), func(t *testing.T) {
			path, content := fileBackedFixture(t, t.TempDir(), format, 4<<20)
			a, err := Open(path, WithParallelism(4), WithChunkSize(256<<10),
				WithSharedPool(NewCachePool(768<<10)), WithoutIndexDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			buf := make([]byte, 48<<10)
			var off int64
			for off < int64(len(content)) {
				n, err := a.ReadAt(buf, off)
				if n > 0 {
					if !bytes.Equal(buf[:n], content[off:off+int64(n)]) {
						t.Fatalf("mismatch at offset %d", off)
					}
					off += int64(n)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
			}
			if off != int64(len(content)) {
				t.Fatalf("consumed %d of %d bytes", off, len(content))
			}
			if s := a.Stats(); s.SpanCacheEvictions == 0 {
				t.Fatalf("no evictions under a two-span pool at P=4: %+v", s)
			}
		})
	}
}

// TestFileBackedReopenWithIndexZeroSizing is the counter-asserted
// reopen contract: opening a file-backed archive with a sibling or
// explicitly imported RGZIDX04 index runs zero sizing passes, decodes
// nothing and touches zero source bytes at open (the engine's
// counters — the fingerprint probe reads outside it), and serves the
// first access with span-extent preads only, never a whole-file read.
func TestFileBackedReopenWithIndexZeroSizing(t *testing.T) {
	for _, format := range spanFormats {
		for _, mode := range []string{"sibling", "explicit"} {
			t.Run(format.String()+"-"+mode, func(t *testing.T) {
				dir := t.TempDir()
				path, content := fileBackedFixture(t, dir, format, 2<<20)

				// Cold open builds the checkpoint table; export it.
				cold, err := Open(path, WithParallelism(2), WithChunkSize(256<<10), WithoutIndexDiscovery())
				if err != nil {
					t.Fatal(err)
				}
				ixPath := path + IndexSuffix
				if mode == "explicit" {
					ixPath = filepath.Join(dir, "elsewhere.rgzidx")
				}
				ixf, err := os.Create(ixPath)
				if err != nil {
					t.Fatal(err)
				}
				err = cold.ExportIndex(ixf)
				if cerr := ixf.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := cold.Close(); err != nil {
					t.Fatal(err)
				}

				opts := []Option{WithParallelism(2), WithChunkSize(256 << 10)}
				if mode == "explicit" {
					opts = append(opts, WithIndexFile(ixPath))
				}
				a, err := Open(path, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()

				s := a.Stats()
				if s.SizingPasses != 0 || s.DecodedBytes != 0 {
					t.Fatalf("reopen with index ran a sizing pass or decoded: %+v", s)
				}
				if s.SourceBytesRead != 0 || s.SourceReads != 0 {
					t.Fatalf("reopen with index read %d source bytes in %d preads before any access; want zero",
						s.SourceBytesRead, s.SourceReads)
				}
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}

				buf := make([]byte, 64<<10)
				off := int64(len(content) / 2)
				if _, err := a.ReadAt(buf, off); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, content[off:off+int64(len(buf))]) {
					t.Fatalf("content mismatch through imported checkpoints")
				}
				s = a.Stats()
				if s.SizingPasses != 0 {
					t.Fatalf("access after index reopen ran a sizing pass: %+v", s)
				}
				if s.SourceReads == 0 {
					t.Fatal("access after index reopen issued no source preads")
				}
				// Span extents only: the one access (plus its prefetches)
				// cannot amount to the whole compressed file.
				if s.SourceBytesRead >= uint64(fi.Size()) {
					t.Fatalf("access read %d bytes of a %d-byte file: whole-file read after index reopen",
						s.SourceBytesRead, fi.Size())
				}
			})
		}
	}
}

// TestFileBackedMatchesInMemory pins WithInMemory as a pure backing
// swap: identical content, capabilities and span table either way.
func TestFileBackedMatchesInMemory(t *testing.T) {
	for _, format := range spanFormats {
		t.Run(format.String(), func(t *testing.T) {
			path, content := fileBackedFixture(t, t.TempDir(), format, 1<<20)
			fb, err := Open(path, WithParallelism(2), WithChunkSize(256<<10), WithoutIndexDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			im, err := Open(path, WithParallelism(2), WithChunkSize(256<<10), WithoutIndexDiscovery(), WithInMemory())
			if err != nil {
				t.Fatal(err)
			}
			defer im.Close()
			if fb.Capabilities() != im.Capabilities() {
				t.Fatalf("capabilities diverge: file-backed %+v, in-memory %+v", fb.Capabilities(), im.Capabilities())
			}
			var fbOut, imOut bytes.Buffer
			if _, err := fb.WriteTo(&fbOut); err != nil {
				t.Fatal(err)
			}
			if _, err := im.WriteTo(&imOut); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fbOut.Bytes(), content) || !bytes.Equal(imOut.Bytes(), content) {
				t.Fatal("backing swap changed decoded content")
			}
		})
	}
}

// TestOpenFailurePaths table-tests the file-backed constructor's
// failure modes: every case must yield a nil archive and a typed error
// — never a panic. A stattable-but-unreadable source (the classic: a
// directory, or anything whose preads fail after a successful stat) is
// ErrSourceRead; readable-but-unrecognizable bytes stay
// ErrUnsupportedFormat.
func TestOpenFailurePaths(t *testing.T) {
	dir := t.TempDir()
	gz, _, err := gzipw.Compress(workloads.Base64(64<<10, 3), gzipw.Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	bgzf, _, err := gzipw.Compress(workloads.Base64(64<<10, 3), gzipw.Options{Level: 1, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		path string
		opts []Option
		want error // nil = any non-nil error
	}{
		{name: "nonexistent", path: filepath.Join(dir, "missing.lz4"), want: fs.ErrNotExist},
		{name: "directory-sniffed", path: dir, want: ErrSourceRead},
		{name: "directory-forced-gzip", path: dir, opts: []Option{WithFormat(FormatGzip)}, want: ErrSourceRead},
		{name: "directory-forced-bgzf", path: dir, opts: []Option{WithFormat(FormatBGZF)}, want: ErrSourceRead},
		{name: "directory-forced-lz4", path: dir, opts: []Option{WithFormat(FormatLZ4)}, want: ErrSourceRead},
		{name: "directory-forced-bzip2", path: dir, opts: []Option{WithFormat(FormatBzip2)}, want: ErrSourceRead},
		{name: "directory-forced-zstd", path: dir, opts: []Option{WithFormat(FormatZstd)}, want: ErrSourceRead},
		{name: "empty-file", path: writeTempFile(t, dir, "empty", nil), want: ErrUnsupportedFormat},
		{name: "no-magic", path: writeTempFile(t, dir, "garbage", []byte("this is not compressed data at all")), want: ErrUnsupportedFormat},
		{
			// The magic bytes sniff as gzip, but the member header is cut
			// short: the open-time header parse must fail loudly.
			name: "truncated-gzip-header",
			path: writeTempFile(t, dir, "cut.gz", gz[:8]),
		},
		{
			// Cut mid-member: the BGZF metadata scan walks member headers
			// at open and must report the member overrunning the file.
			name: "truncated-bgzf-member",
			path: writeTempFile(t, dir, "cut.bgzf", bgzf[:len(bgzf)/2]),
		},
		{
			name: "truncated-lz4",
			path: writeTempFile(t, dir, "cut.lz4",
				lz4x.CompressFrames(workloads.Base64(64<<10, 3), lz4x.FrameOptions{})[:20<<10]),
		},
		{
			name: "truncated-zstd",
			path: writeTempFile(t, dir, "cut.zst",
				zstdx.CompressFrames(workloads.Base64(64<<10, 3), zstdx.FrameOptions{Level: 1})[:10<<10]),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Open(tc.path, tc.opts...)
			if err == nil {
				a.Close()
				t.Fatalf("Open(%s) succeeded; want an error", tc.name)
			}
			if a != nil {
				t.Fatalf("Open(%s) returned a non-nil archive alongside error %v", tc.name, err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Open(%s) = %v; want errors.Is(err, %v)", tc.name, err, tc.want)
			}
		})
	}
}
