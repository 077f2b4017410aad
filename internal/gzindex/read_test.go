package gzindex

import (
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/workloads"
)

// The two ways an index is read: a stream, as far as the parse needs
// (Read), and an index file (ReadAt: its head, then the rest).
var readPaths = []struct {
	name string
	read func(data []byte) (*Index, error)
}{
	{"stream", func(data []byte) (*Index, error) { return Read(struct{ io.Reader }{bytes.NewReader(data)}) }},
	{"file", func(data []byte) (*Index, error) { return ReadAt(bytes.NewReader(data), int64(len(data)), nil) }},
}

// sentinel names the error class an import failed with.
func sentinel(err error) error {
	for _, s := range []error{ErrBadMagic, ErrUnsupportedVersion, ErrChecksum, ErrCorrupt} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// windowsErr is the first error of the windows of ix, in point order:
// a file's are read and checked only here.
func windowsErr(ix *Index) error {
	for _, p := range ix.points {
		if w, ok := ix.windows[p.CompressedBitOffset]; ok {
			if _, err := w.Bytes(); err != nil {
				return err
			}
		}
	}
	return nil
}

// readAllPaths reads data every way, each window inflated, and fails t
// unless all of them give the same index, written back byte for byte
// alike, or fail with the same sentinel. It returns the stream path's
// outcome.
func readAllPaths(t *testing.T, data []byte) (*Index, error) {
	t.Helper()
	var first *Index
	var firstErr error
	var firstOut []byte
	for i, p := range readPaths {
		ix, err := p.read(data)
		if err == nil {
			if err = windowsErr(ix); err != nil {
				ix = nil
			}
		}
		var out []byte
		if err == nil {
			var buf bytes.Buffer
			if _, werr := ix.WriteTo(&buf); werr != nil {
				t.Fatalf("%s: accepted index failed to re-serialise: %v", p.name, werr)
			}
			out = buf.Bytes()
		}
		if i == 0 {
			first, firstErr, firstOut = ix, err, out
			continue
		}
		if (err == nil) != (firstErr == nil) || err != nil && sentinel(err) != sentinel(firstErr) {
			t.Fatalf("%s read: %v; %s read: %v", p.name, err, readPaths[0].name, firstErr)
		}
		if !bytes.Equal(out, firstOut) {
			t.Fatalf("%s read re-serialises to other bytes than the %s read", p.name, readPaths[0].name)
		}
	}
	return first, firstErr
}

// TestReadPathsAgree: over the golden fixtures, each cut short and with
// each byte flipped, the two read paths agree.
func TestReadPathsAgree(t *testing.T) {
	for _, name := range []string{"golden-v4.rgzidx", "golden-v5.rgzidx", "golden-v5-marks.rgzidx", "golden-v5-checkpoints.rgzidx", "golden-v5-inblock.rgzidx"} {
		raw := readGolden(t, name)
		for cut := 0; cut <= len(raw); cut++ {
			readAllPaths(t, raw[:cut])
		}
		for i := range raw {
			bad := bytes.Clone(raw)
			bad[i] ^= 0x40
			readAllPaths(t, bad)
		}
	}
}

// inflateStdlib is compress/flate's reading of a window, to its declared
// length.
func inflateStdlib(comp []byte, rawLen int) ([]byte, error) {
	out := make([]byte, rawLen)
	_, err := io.ReadFull(flate.NewReader(bytes.NewReader(comp)), out)
	return out, err
}

// checkWindowsLikeFlate holds every window of ix to compress/flate.
func checkWindowsLikeFlate(t *testing.T, ix *Index) int {
	t.Helper()
	for off, w := range ix.windows {
		comp, err := w.flate()
		if err != nil {
			t.Fatalf("window at bit %d: %v", off, err)
		}
		want, err := inflateStdlib(comp, w.rawLen)
		if err != nil {
			t.Fatalf("window at bit %d: compress/flate: %v", off, err)
		}
		got, err := w.Bytes()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("window at bit %d: %d bytes, %v; compress/flate gives %d", off, len(got), err, len(want))
		}
	}
	return len(ix.windows)
}

func TestWindowsInflateLikeFlate(t *testing.T) {
	windows := 0
	for _, name := range []string{"golden-v5.rgzidx", "golden-v5-marks.rgzidx", "golden-v5-inblock.rgzidx"} {
		ix, err := Read(bytes.NewReader(readGolden(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		windows += checkWindowsLikeFlate(t, ix)
	}
	ix, err := Read(bytes.NewReader(manyWindows(t, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if windows += checkWindowsLikeFlate(t, ix); windows < 10 {
		t.Fatalf("checked %d windows", windows)
	}
}

// importedWithWindow imports an index whose one window holds the flate
// bytes of data but declares rawLen bytes.
func importedWithWindow(t *testing.T, data []byte, rawLen int) *Window {
	t.Helper()
	comp, err := flateCompress(data)
	if err != nil {
		t.Fatal(err)
	}
	ix := goldenIndex(t)
	ix.windows[100_003] = &Window{comp: comp, rawLen: rawLen}
	got, err := Read(bytes.NewReader(serialized(t, ix)))
	if err != nil {
		t.Fatalf("import of a window declaring %d of %d bytes: %v", rawLen, len(data), err)
	}
	w, _ := got.Window(100_003)
	return w
}

// TestWindowOfWrongLengthIsCorrupt: a window that inflates to fewer or
// more bytes than it declares passes the import and is ErrCorrupt on
// first use. compress/flate, reading to the declared length, would have
// cut the longer one short without a word.
func TestWindowOfWrongLengthIsCorrupt(t *testing.T) {
	data := workloads.SilesiaLike(20_000, 3)
	for _, rawLen := range []int{len(data) - 1, len(data) + 1, maxWindowRaw} {
		if _, err := importedWithWindow(t, data, rawLen).Bytes(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("window of %d bytes declaring %d: %v", len(data), rawLen, err)
		}
	}
	if got, err := importedWithWindow(t, data, len(data)).Bytes(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("window of the declared length: %d bytes, %v", len(got), err)
	}
}

// TestEmptyWindowNeedsNoDecode: a window declaring no bytes comes back
// empty whatever its stored bytes are, which are not decoded.
func TestEmptyWindowNeedsNoDecode(t *testing.T) {
	w := &Window{comp: []byte{0xFF, 0xFF, 0xFF}, rawLen: 0}
	if got, err := w.Bytes(); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty window: %v, %v", got, err)
	}
}

// FuzzWindowInflate holds the kernel's inflate of a window to
// compress/flate's: the same bytes where compress/flate's stream ends at
// exactly the declared length, ErrCorrupt where it ends short or fails,
// and ErrCorrupt, stricter, where it runs on past that length.
func FuzzWindowInflate(f *testing.F) {
	text := workloads.SilesiaLike(40_000, 5)
	for _, n := range []int{0, 1, 300, 32 << 10, 40_000} {
		comp, err := flateCompress(text[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, uint16(n))
		f.Add(comp, uint16(n+1))
	}
	f.Fuzz(func(t *testing.T, comp []byte, rawLen uint16) {
		w := &Window{comp: comp, rawLen: int(rawLen)}
		got, err := w.Bytes()
		fr := flate.NewReader(bytes.NewReader(comp))
		want := make([]byte, rawLen)
		_, ferr := io.ReadFull(fr, want)
		if ferr == nil && rawLen > 0 {
			if n, err := fr.Read(make([]byte, 1)); n > 0 || err != io.EOF {
				ferr = errors.New("the stream runs on")
			}
		}
		if ferr != nil || rawLen == 0 {
			if rawLen > 0 && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("compress/flate: %v; the kernel: %d bytes, %v", ferr, len(got), err)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the kernel: %d bytes, %v; compress/flate: %d bytes", len(got), err, len(want))
		}
	})
}

// manyWindows serialises an index of n points with a 32 KiB window of
// text each, consecutive in one corpus: the shape of a cold export.
func manyWindows(t testing.TB, n int) []byte {
	t.Helper()
	const win = 32 << 10
	text := workloads.SilesiaLike((n+1)*win, 36)
	ix := New(256 << 10)
	ix.Finalized = true
	ix.MemberMarksComplete = true
	ix.SourceFP = &Fingerprint{Head: 1, Tail: 2}
	ix.CompressedSize = uint64(len(text))
	ix.UncompressedSize = uint64(len(text))
	if err := ix.Add(SeekPoint{AtMemberStart: true}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := ix.Add(SeekPoint{CompressedBitOffset: uint64(i*win) * 3, UncompressedOffset: uint64(i * win)}, text[(i-1)*win:i*win]); err != nil {
			t.Fatal(err)
		}
	}
	ix.AddMemberEnd(uint64(n*win)*3, MemberEnd{RelEnd: win, CRC32: 7})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingReaderAt counts the reads made through it and their bytes.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
	bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	n, err := c.r.ReadAt(p, off)
	c.bytes.Add(int64(n))
	return n, err
}

// TestReadAtReadsAFileTwice: a 147-window index file is parsed from two
// reads of its table and not one byte of a window, and what the parse
// allocates is the table's size and small per-point structs. A window
// asked for is one more read, of its bytes alone. A header check that
// refuses the index stops after the first read.
func TestReadAtReadsAFileTwice(t *testing.T) {
	const points = 147
	raw := manyWindows(t, points)
	path := filepath.Join(t.TempDir(), "many.rgzidx")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr := &countingReaderAt{r: f}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := ReadAt(cr, int64(len(raw)), nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.windows) != points {
		t.Fatalf("%d windows, want %d", len(ix.windows), points)
	}
	table := tableEnd(raw)
	if n, read := cr.reads.Load(), cr.bytes.Load(); n > 2 || read > int64(table) {
		t.Fatalf("%d reads of %d bytes of the index file, want at most 2 of the %d-byte table", n, read, table)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(table) + 64<<10 + points*1<<10; alloc > limit {
		t.Fatalf("parsing a %d-byte table allocated %d bytes, want at most %d", table, alloc, limit)
	}
	t.Logf("%d-byte index, %d-byte table: %d reads, %d bytes allocated", len(raw), table, cr.reads.Load(), alloc)
	w, _ := ix.Window(uint64(50*32<<10) * 3)
	if _, err := w.Bytes(); err != nil || cr.reads.Load() != 3 || cr.bytes.Load() != int64(table+w.compLen) {
		t.Fatalf("one window: %v, %d reads of %d bytes in all", err, cr.reads.Load(), cr.bytes.Load())
	}
	checkWindowsLikeFlate(t, ix)

	refuse := errors.New("not this file")
	cr = &countingReaderAt{r: f}
	var header *Index
	if _, err := ReadAt(cr, int64(len(raw)), func(h *Index) error { header = h; return refuse }); err != refuse {
		t.Fatalf("a refusing check: %v", err)
	}
	if cr.reads.Load() != 1 || header.CompressedSize != ix.CompressedSize || *header.SourceFP != *ix.SourceFP || header.Len() != 0 {
		t.Fatalf("a refusing check: %d reads, header %+v", cr.reads.Load(), header)
	}
}

// TestReadStreamKeepsOnlyTheIndex: a 147-window index read from a
// stream keeps its windows in copies of their own, out of the one
// scratch buffer the read reuses, so what the read allocates and what
// the index holds on to are each about the size of the file.
func TestReadStreamKeepsOnlyTheIndex(t *testing.T) {
	const points = 147
	raw := manyWindows(t, points)
	var before, after runtime.MemStats
	runtime.GC() // twice: the first only moves sync.Pool's flate writers to its victim cache
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := Read(struct{ io.Reader }{bytes.NewReader(raw)})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.windows) != points {
		t.Fatalf("%d windows, want %d", len(ix.windows), points)
	}
	limit := int64(len(raw)) + 64<<10 + points*1<<10
	held, alloc := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(after.TotalAlloc-before.TotalAlloc)
	if held > limit || alloc > limit {
		t.Fatalf("a %d-byte index read from a stream holds %d bytes and allocated %d, want each at most %d", len(raw), held, alloc, limit)
	}
	t.Logf("%d-byte index from a stream: %d bytes held, %d allocated", len(raw), held, alloc)
	runtime.KeepAlive(raw)
	runtime.KeepAlive(ix)
	checkWindowsLikeFlate(t, ix)
}

// TestReadLeavesFilesAndPipesAtTheTrailer: from a regular file and from
// a pipe, Read consumes the index and nothing behind it, and what it
// allocates does not grow with what follows the index.
func TestReadLeavesFilesAndPipesAtTheTrailer(t *testing.T) {
	raw := serialized(t, goldenIndex(t))
	tail := bytes.Repeat([]byte("NOT PART OF THE INDEX "), 200_000) // 4.4 MB
	path := filepath.Join(t.TempDir(), "combined")
	if err := os.WriteFile(path, append(append([]byte("LEAD"), raw...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	piped := append(bytes.Clone(raw), tail...)
	go func() {
		pw.Write(piped)
		pw.Close()
	}()
	f.Seek(4, io.SeekStart)
	for _, r := range []*os.File{f, pr} {
		var ix Index
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := ix.ReadFrom(r)
		runtime.ReadMemStats(&after)
		if err != nil || n != int64(len(raw)) {
			t.Fatalf("%s: ReadFrom = %d, %v; the index is %d bytes", r.Name(), n, err, len(raw))
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(raw)+64<<10); alloc > limit {
			t.Fatalf("%s: reading a %d-byte index allocated %d bytes, want at most %d", r.Name(), len(raw), alloc, limit)
		}
		assertEqualIndex(t, &ix, goldenIndex(t))
		if rest, err := io.ReadAll(r); err != nil || !bytes.Equal(rest, tail) {
			t.Fatalf("%s: left %d bytes, %v; want the %d-byte tail", r.Name(), len(rest), err, len(tail))
		}
	}
}

// BenchmarkReadIndex parses a 147-window index from its file, as an
// archive opens through one, and from a buffered stream, as a pipe is
// read.
func BenchmarkReadIndex(b *testing.B) {
	raw := manyWindows(b, 147)
	path := filepath.Join(b.TempDir(), "many.rgzidx")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.Run("file", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadAt(f, int64(len(raw)), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Read(bufio.NewReader(io.NewSectionReader(f, 0, int64(len(raw))))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
