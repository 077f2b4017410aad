package rapidgzip

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/filereader"
	"repro/internal/gzindex"
)

// countingReaderAt counts the reads made through it and their bytes.
type countingReaderAt struct {
	r            io.ReaderAt
	reads, bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// indexTable is where the table of a table-first index file ends: the
// bytes an open through it may read.
func indexTable(t *testing.T, raw []byte) int64 {
	t.Helper()
	if raw[8]&0x10 == 0 {
		t.Fatal("the export is not table-first")
	}
	at := 9
	for range 3 { // chunk size, file sizes
		_, n := binary.Uvarint(raw[at:])
		at += n
	}
	if raw[8]&4 != 0 {
		at += 8 // the fingerprint
	}
	n, k := binary.Uvarint(raw[at:])
	return int64(at+k) + int64(n)
}

// openFDs counts this process's open file descriptors, or returns -1
// where /proc/self/fd is not there to say.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestIndexFileProxyGates holds a cold seek through an index file to
// what it reads of it, with no clock, over the benchmark's
// gzip-rand-indexed shape in small: 128 seek points with a window each.
// Opening reads the index's head and table and no window; the first read
// in a span reads that span's window, once; an open archive holds the
// table and a bounded rest on the heap, not the windows; and Close
// leaves no descriptor open.
func TestIndexFileProxyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("exports the index of 8 MiB")
	}
	plain, gzPath, idxPath := indexedGzip(t, 8<<20, 64<<10)
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	table := indexTable(t, raw)

	// The open an archive makes (fromIndexFile), through a counting reader.
	f, err := os.Open(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr := &countingReaderAt{r: f}
	ix, err := gzindex.ReadAt(cr, int64(len(raw)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if points := ix.Len(); points < 100 || points > 160 {
		t.Fatalf("%d seek points, want about the benchmark's 128", points)
	}
	if r, b := cr.reads.Load(), cr.bytes.Load(); r > 2 || b > table {
		t.Fatalf("open: %d reads of %d bytes, want at most 2 of the %d-byte head and table", r, b, table)
	}
	t.Logf("%d points: a %d-byte index file, a %d-byte table; open read %d bytes in %d reads",
		ix.Len(), len(raw), table, cr.bytes.Load(), cr.reads.Load())
	src, err := filereader.OpenFile(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	st, err := gzipBackend.indexed(src, ix, config{parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()

	span := ix.Len() / 2
	p := ix.Point(span)
	if _, ok := ix.Window(p.CompressedBitOffset); !ok {
		t.Fatalf("point %d has no window", span)
	}
	// A 32 KiB window's flate bytes are at most this many.
	const maxStored = 32<<10 + 32<<10/255 + 64
	buf := make([]byte, 4<<10)
	for i, off := range []int64{int64(p.UncompressedOffset) + 1000, int64(p.UncompressedOffset) + 20_000} {
		before, beforeBytes := cr.reads.Load(), cr.bytes.Load()
		if _, err := st.eng.ReadAt(buf, off); err != nil || !bytes.Equal(buf, plain[off:off+int64(len(buf))]) {
			t.Fatalf("read %d at %d: %v", i, off, err)
		}
		reads, read := cr.reads.Load()-before, cr.bytes.Load()-beforeBytes
		t.Logf("read %d in span %d: %d reads of %d bytes of the index file", i, span, reads, read)
		if i == 0 && (reads != 1 || read == 0 || read > maxStored) || i == 1 && reads != 0 {
			t.Fatalf("read %d in span %d: %d reads of %d bytes of the index file, want %d of one window", i, span, reads, read, 1-i)
		}
	}

	// What an open archive holds, as the benchmark opens one.
	fds := openFDs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// About 40 KB: the points, a Window of a few words each, the engine.
	const perArchive = 64 << 10
	t.Logf("an open archive holds %d bytes of heap for a %d-byte table", held, table)
	if held > table+perArchive {
		t.Errorf("an open archive holds %d bytes of heap, want at most the %d-byte table and %d", held, table, perArchive)
	}
	if fds >= 0 && openFDs() != fds+2 {
		t.Errorf("an archive open through an index file holds %d descriptors, want 2", openFDs()-fds)
	}
	if _, err := a.ReadAt(buf, 12345); err != nil || !bytes.Equal(buf, plain[12345:12345+len(buf)]) {
		t.Fatalf("ReadAt: %v", err)
	}
	runtime.KeepAlive(a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if fds >= 0 && openFDs() != fds {
		t.Errorf("Close left %d descriptors open", openFDs()-fds)
	}
}

// damagedIndexArchive opens a gzip file through its index file and
// returns the archive, the corpus, the index file's path, its bytes and
// its seek points.
func damagedIndexArchive(t *testing.T) (Archive, []byte, string, []byte, *gzindex.Index) {
	t.Helper()
	plain, gzPath, idxPath := indexedGzip(t, 2<<20, 128<<10)
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, plain, idxPath, raw, seekPoints(a)
}

// discoveredIndexArchive is damagedIndexArchive with the index file
// moved beside the gzip file, where Open finds it: the archive is opened
// without naming it, and damage is done to the returned path before the
// open, by damage when it is non-nil.
func discoveredIndexArchive(t *testing.T, damage func(path string, raw []byte)) (Archive, []byte, string, []byte, *gzindex.Index) {
	t.Helper()
	plain, gzPath, idxPath := indexedGzip(t, 2<<20, 128<<10)
	sidecar := gzPath + IndexSuffix
	if err := os.Rename(idxPath, sidecar); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		damage(sidecar, raw)
	}
	a, err := Open(gzPath, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	ix := seekPoints(a)
	if !ix.ReadsWindows() || ix.Len() < 10 {
		t.Fatalf("the sidecar was not imported: %d points", ix.Len())
	}
	return a, plain, sidecar, raw, ix
}

// flipLastWindowByte flips a byte of the last window of the index file
// at path, whose bytes were raw, in place.
func flipLastWindowByte(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{raw[len(raw)-5] ^ 0x10}, int64(len(raw)-5)); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoveredIndexRebuildsWindows damages the windows of a discovered
// index file — a byte flipped before the open or after it, the file cut
// short after it — and reads every span: a discovered index is an
// optimisation, so a window its file fails to give is decoded again from
// the gzip file, which is sound, and every span serves the file's bytes.
func TestDiscoveredIndexRebuildsWindows(t *testing.T) {
	for _, damage := range []string{"flipped at rest", "flipped after the open", "cut after the open"} {
		t.Run(damage, func(t *testing.T) {
			var before func(string, []byte)
			if damage == "flipped at rest" {
				before = func(path string, raw []byte) { flipLastWindowByte(t, path, raw) }
			}
			a, plain, sidecar, raw, ix := discoveredIndexArchive(t, before)
			switch damage {
			case "flipped after the open":
				flipLastWindowByte(t, sidecar, raw)
			case "cut after the open":
				if err := os.Truncate(sidecar, indexTable(t, raw)+100); err != nil {
					t.Fatal(err)
				}
			}
			// Readers at once, from the last span back, so that rebuilds
			// meet: each serves the file's bytes.
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 1000)
					for i := ix.Len() - 1 - g; i >= 0; i -= 4 {
						off := int64(ix.Point(i).UncompressedOffset)
						if n, err := a.ReadAt(buf, off); err != nil || !bytes.Equal(buf[:n], plain[off:off+int64(n)]) {
							errs <- fmt.Errorf("span %d: %d bytes, %v", i, n, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for pass := range 2 {
				for i, err := range readSpans(t, a, plain, ix) {
					if err != nil {
						t.Fatalf("pass %d: span %d: %v", pass, i, err)
					}
				}
			}
			var out bytes.Buffer
			if _, err := a.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), plain) {
				t.Fatalf("WriteTo: %d bytes, %v", out.Len(), err)
			}
		})
	}
}

// TestReexportOverDiscoveredIndex exports the index of an archive opened
// through its discovered index file to that same path with os.Create,
// which cuts the file to nothing before the export reads the windows the
// archive has not read yet. Those are decoded again from the gzip file,
// so the export writes the index it was opened with, byte for byte, and
// the archive and one reopened on the new file serve the file.
func TestReexportOverDiscoveredIndex(t *testing.T) {
	a, plain, sidecar, raw, ix := discoveredIndexArchive(t, nil)
	buf := make([]byte, 100)
	if _, err := a.ReadAt(buf, int64(ix.Point(ix.Len()/2).UncompressedOffset)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	err = a.ExportIndex(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("re-exported in place: %d bytes, not the %d it was opened with", len(got), len(raw))
	}
	for i, err := range readSpans(t, a, plain, ix) {
		if err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
	}
	gzPath := sidecar[:len(sidecar)-len(IndexSuffix)]
	back, err := Open(gzPath, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !seekPoints(back).ReadsWindows() {
		t.Fatal("the re-exported index was not imported")
	}
	var out bytes.Buffer
	if _, err := back.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), plain) {
		t.Fatalf("reopened: %d bytes, %v", out.Len(), err)
	}
}

// readSpans reads a few bytes of every span of ix through a and returns
// the error of each, failing t on any byte that is not the file's.
func readSpans(t *testing.T, a Archive, plain []byte, ix *gzindex.Index) []error {
	t.Helper()
	errs := make([]error, ix.Len())
	buf := make([]byte, 1000)
	for i := range errs {
		off := int64(ix.Point(i).UncompressedOffset) + 100
		n, err := a.ReadAt(buf, off)
		if !bytes.Equal(buf[:n], plain[off:off+int64(n)]) {
			t.Fatalf("span %d: %d wrong bytes served", i, n)
		}
		errs[i] = err
	}
	return errs
}

// TestForgedWindowFailsItsSpanOnly forges the last window of an index
// file in place after the archive opened through it, two ways: one byte
// flipped, and the window's bytes replaced by a flate stream of as many
// zeros, which inflates to the declared length and would decode its span
// against the wrong history. Either way the span of that window fails
// with gzindex.ErrCorrupt, every time, every other span serves, and no
// wrong byte is served anywhere.
func TestForgedWindowFailsItsSpanOnly(t *testing.T) {
	for _, forgery := range []string{"flipped byte", "zeros"} {
		t.Run(forgery, func(t *testing.T) {
			a, plain, idxPath, raw, ix := damagedIndexArchive(t)
			// The last window is the last bytes of the file; its span is
			// the last one with a window.
			bad := ix.Len() - 1
			for ; bad >= 0; bad-- {
				if _, ok := ix.Window(ix.Point(bad).CompressedBitOffset); ok {
					break
				}
			}
			var forged []byte
			switch forgery {
			case "flipped byte":
				forged = []byte{raw[len(raw)-5] ^ 0x10}
			default:
				// The stored bytes are the window as a level-6 writer
				// compresses it; the zeros' stream is shorter, and
				// what follows it is not read.
				back, err := gzindex.Read(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				w, _ := back.Window(ix.Point(bad).CompressedBitOffset)
				win, err := w.Bytes()
				if err != nil {
					t.Fatal(err)
				}
				stored, zeros := deflated(t, win), deflated(t, make([]byte, len(win)))
				if !bytes.HasSuffix(raw, stored) || len(zeros) > len(stored) {
					t.Fatalf("the last window is not the file's last %d bytes", len(stored))
				}
				forged = append(zeros, make([]byte, len(stored)-len(zeros))...)
			}
			f, err := os.OpenFile(idxPath, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(forged, int64(len(raw)-max(len(forged), 5))); err != nil {
				t.Fatal(err)
			}
			f.Close()
			for pass := range 2 {
				for i, err := range readSpans(t, a, plain, ix) {
					if i == bad && !errors.Is(err, gzindex.ErrCorrupt) {
						t.Fatalf("pass %d: the span of the forged window: %v, want gzindex.ErrCorrupt", pass, err)
					}
					if i != bad && err != nil {
						t.Fatalf("pass %d: span %d: %v", pass, i, err)
					}
				}
			}
		})
	}
}

// deflated is data as a level-6 flate writer compresses it.
func deflated(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(data)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncatedIndexFileFailsReads cuts an index file short after the
// archive opened through it: the spans whose windows are gone fail with
// an error, the others serve, and nothing panics.
func TestTruncatedIndexFileFailsReads(t *testing.T) {
	a, plain, idxPath, raw, ix := damagedIndexArchive(t)
	if err := os.Truncate(idxPath, indexTable(t, raw)+100); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, err := range readSpans(t, a, plain, ix) {
		if err != nil {
			failed++
			if !errors.Is(err, gzindex.ErrCorrupt) {
				t.Fatalf("span %d: %v, want gzindex.ErrCorrupt", i, err)
			}
		}
	}
	// The first span starts at the member header, without a window, and
	// the second one's window begins in the bytes kept.
	if failed < ix.Len()-2 {
		t.Fatalf("%d of %d spans failed with their windows cut off", failed, ix.Len())
	}
}

// TestTableFirstIndexRoundTrips: an index file written table-first comes
// back byte for byte through a stream's Read and WriteTo, and through an
// archive opened on it, whose export reads the windows it never inflated
// from the file.
func TestTableFirstIndexRoundTrips(t *testing.T) {
	a, _, _, raw, _ := damagedIndexArchive(t)
	ix, err := gzindex.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := ix.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("Read and WriteTo: %d bytes, %v; the file has %d", out.Len(), err, len(raw))
	}
	buf := make([]byte, 100)
	if _, err := a.ReadAt(buf, 300_000); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := a.ExportIndex(&out); err != nil || !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("export of the archive opened on it: %d bytes, %v; the file has %d", out.Len(), err, len(raw))
	}
}

// TestOldLayoutIndexServes opens a gzip file through an index exported
// before the windows trailed the table (testdata/old-layout.gz.rgzidx:
// 96 KiB of SilesiaLike text, compress/gzip -6, cut every 16 KiB). The
// index is read whole, so the archive keeps no descriptor of it, and the
// file comes out as compress/gzip decodes it, through the index alone;
// exported again the index is table-first and serves the same bytes.
func TestOldLayoutIndexServes(t *testing.T) {
	gzPath := filepath.Join("testdata", "old-layout.gz")
	comp, err := os.ReadFile(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	newIdx := filepath.Join(t.TempDir(), "new.rgzidx")
	for i, idx := range []string{gzPath + IndexSuffix, newIdx} {
		fds := openFDs()
		a, err := Open(gzPath, WithIndexFile(idx), WithParallelism(2))
		if err != nil {
			t.Fatalf("index %d: %v", i, err)
		}
		if held := openFDs() - fds; fds >= 0 && i == 0 && held != 1 {
			t.Errorf("an archive open through an old-layout index holds %d descriptors, want 1", held)
		}
		var out bytes.Buffer
		if _, err := a.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("index %d: %d bytes, %v; compress/gzip decodes %d", i, out.Len(), err, len(want))
		}
		if s := a.Stats(); s.FinderProbes != 0 || s.GuessTasks != 0 {
			t.Fatalf("index %d: the read speculated: %+v", i, s)
		}
		if i == 0 {
			if err := ExportIndexFile(a, newIdx); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(newIdx)
			if err != nil {
				t.Fatal(err)
			}
			indexTable(t, raw) // table-first
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
