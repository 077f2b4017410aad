package rapidgzip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// fixtureSet builds one compressed fixture per supported format from
// the same uncompressed corpus.
func fixtureSet(t *testing.T, data []byte) map[Format][]byte {
	t.Helper()
	gz, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	bgzf, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1, StreamSize: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 100 << 10, ContentChecksum: true})
	zs := zstdx.CompressFrames(data, zstdx.FrameOptions{Level: 1, FrameSize: 100 << 10, ContentChecksum: true})
	return map[Format][]byte{
		FormatGzip:  gz,
		FormatBGZF:  bgzf,
		FormatBzip2: bz,
		FormatLZ4:   lz,
		FormatZstd:  zs,
	}
}

// TestOpenSniffMatrix is the acceptance matrix: one Open call with no
// format hint must detect, fully decompress and randomly access every
// supported format.
func TestOpenSniffMatrix(t *testing.T) {
	data := workloads.Base64(500_000, 77)
	dir := t.TempDir()
	for format, comp := range fixtureSet(t, data) {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(dir, "data."+format.String())
			if err := os.WriteFile(path, comp, 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := Open(path, WithParallelism(4), WithChunkSize(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			if a.Format() != format {
				t.Fatalf("Format = %v, want %v", a.Format(), format)
			}
			caps := a.Capabilities()
			if !caps.Seek || !caps.RandomAccess || !caps.Parallel || !caps.Prefetch {
				t.Fatalf("capabilities %+v: multi-chunk fixtures must be seekable, parallel and prefetching", caps)
			}
			if !caps.Index {
				t.Fatalf("capabilities %+v: every format persists an index now", caps)
			}

			// Full sequential decompression.
			var out bytes.Buffer
			if n, err := io.Copy(&out, a); err != nil || n != int64(len(data)) {
				t.Fatalf("Copy: n=%d err=%v", n, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("decompressed content mismatch")
			}
			if size, err := a.Size(); err != nil || size != int64(len(data)) {
				t.Fatalf("Size = %d, %v", size, err)
			}

			// ReadAt at arbitrary offsets, without disturbing the cursor.
			for _, off := range []int64{0, 1, 65_535, 250_000, int64(len(data)) - 100} {
				buf := make([]byte, 100)
				if _, err := a.ReadAt(buf, off); err != nil && err != io.EOF {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
				if !bytes.Equal(buf, data[off:off+100]) {
					t.Fatalf("ReadAt(%d): content mismatch", off)
				}
			}

			// Seek + Read.
			if _, err := a.Seek(123_456, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			if _, err := io.ReadFull(a, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[123_456:123_456+64]) {
				t.Fatal("Seek+Read mismatch")
			}

			// Concurrent ReadAt (exercised under -race in CI).
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(seed))
					p := make([]byte, 2000)
					for i := 0; i < 15; i++ {
						off := rnd.Int63n(int64(len(data)))
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

func TestOpenBytesSniffMatrix(t *testing.T) {
	data := workloads.FASTQ(200_000, 5)
	for format, comp := range fixtureSet(t, data) {
		a, err := OpenBytes(comp, WithParallelism(2))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if a.Format() != format {
			t.Fatalf("Format = %v, want %v", a.Format(), format)
		}
		var out bytes.Buffer
		if _, err := io.Copy(&out, a); err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%v: content mismatch", format)
		}
		a.Close()
	}
}

func TestOpenUnsupportedFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.xz")
	// XZ magic: recognised by nothing here.
	if err := os.WriteFile(path, []byte{0xFD, '7', 'z', 'X', 'Z', 0x00, 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("err = %v, want ErrUnsupportedFormat", err)
	}
}

// TestOpenDegenerateInputs pins the sniffing contract for inputs too
// short to carry any magic: Open and OpenBytes must fail with the typed
// ErrUnsupportedFormat from the sniffer, never a short-read error
// surfacing from inside a backend.
func TestOpenDegenerateInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"one-byte":     {0x1F},
		"two-bytes":    {0x1F, 0x8B},
		"three-bytes":  {0x28, 0xB5, 0x2F},
		"garbage":      {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33},
		"text":         []byte("hi"),
		"magic-prefix": {'B', 'Z'},
	}
	dir := t.TempDir()
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenBytes(content); !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("OpenBytes: err = %v, want ErrUnsupportedFormat", err)
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("Open: err = %v, want ErrUnsupportedFormat", err)
			}
		})
	}
}

func TestWithFormatOverride(t *testing.T) {
	data := workloads.Base64(100_000, 9)
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{})
	// Forcing the right format works.
	a, err := OpenBytes(lz, WithFormat(FormatLZ4))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Forcing the wrong format must fail with the backend's parse error,
	// not decode garbage.
	if _, err := OpenBytes(lz, WithFormat(FormatGzip)); err == nil {
		t.Fatal("gzip backend accepted an LZ4 file")
	}
	// Unsupported Format values fail at option time.
	if _, err := OpenBytes(lz, WithFormat(Format(99))); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("err = %v, want ErrUnsupportedFormat", err)
	}
}

func TestIndexAutoDiscovery(t *testing.T) {
	data := workloads.Base64(400_000, 33)
	comp := gzipBytes(t, data)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.gz")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		t.Fatal(err)
	}

	// Save a sibling index.
	r, err := Open(path, WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := r.ExportIndex(&saved); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := os.WriteFile(path+IndexSuffix, saved.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// A later Open picks it up transparently: the block finder never
	// runs, which FinderProbes witnesses.
	r2, err := Open(path, WithChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := io.Copy(&out, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch through discovered index")
	}
	if probes := r2.Stats().FinderProbes; probes != 0 {
		t.Fatalf("discovered index should make the run fully indexed; finder probed %d times", probes)
	}
	r2.Close()

	// Opt-out: the same open scans from scratch.
	r3, err := Open(path, WithChunkSize(32<<10), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3)
	if probes := r3.Stats().FinderProbes; probes == 0 {
		t.Fatal("WithoutIndexDiscovery still used the sibling index")
	}
	r3.Close()

	// A corrupt sibling index must not break Open — fall back to a scan.
	if err := os.WriteFile(path+IndexSuffix, []byte("RGZIDX04 garbage that is not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	r4, err := Open(path, WithChunkSize(32<<10))
	if err != nil {
		t.Fatalf("corrupt sibling index broke Open: %v", err)
	}
	out.Reset()
	if _, err := io.Copy(&out, r4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch after fallback")
	}
	r4.Close()

	// An index from before the current format, or without what every
	// writer now records, is refused with a typed error when named, and
	// skipped for a scan when found beside the file.
	for name, forged := range outdatedIndexes(t, saved.Bytes()) {
		ixPath := filepath.Join(dir, name+".rgzidx")
		if err := os.WriteFile(ixPath, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, WithIndexFile(ixPath)); !errors.Is(err, gzindex.ErrUnsupportedVersion) {
			t.Fatalf("%s through WithIndexFile: err = %v, want ErrUnsupportedVersion", name, err)
		}
		if err := os.Rename(ixPath, path+IndexSuffix); err != nil {
			t.Fatal(err)
		}
		a, err := Open(path, WithChunkSize(32<<10))
		if err != nil {
			t.Fatalf("%s beside the file broke Open: %v", name, err)
		}
		out.Reset()
		if _, err := io.Copy(&out, a); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s beside the file: content mismatch after fallback (err %v)", name, err)
		}
		if a.Stats().FinderProbes == 0 {
			t.Fatalf("%s beside the file was imported", name)
		}
		a.Close()
	}

	// An index for a *different* file of the same size is rejected by
	// the source fingerprint and likewise falls back to a scan. The
	// "other" file flips only the gzip header's OS byte: still a valid
	// gzip of identical length and content, but a different file as far
	// as the fingerprint is concerned.
	other := bytes.Clone(comp)
	other[9] ^= 0xFF
	otherPath := filepath.Join(dir, "other.gz")
	if err := os.WriteFile(otherPath, other, 0o644); err != nil {
		t.Fatal(err)
	}
	// Regenerate a valid index for data.gz, then hand it to other.gz.
	r5, err := Open(path, WithChunkSize(32<<10), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	ixf2, err := os.Create(otherPath + IndexSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := r5.ExportIndex(ixf2); err != nil {
		t.Fatal(err)
	}
	ixf2.Close()
	r5.Close()

	r6, err := Open(otherPath, WithChunkSize(32<<10))
	if err != nil {
		t.Fatalf("wrong-file sibling index broke Open: %v", err)
	}
	out.Reset()
	if _, err := io.Copy(&out, r6); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch after fingerprint fallback")
	}
	if probes := r6.Stats().FinderProbes; probes == 0 {
		t.Fatal("an index fingerprinted for a different file was imported anyway")
	}
	r6.Close()
}

// outdatedIndexes rewrites a gzip index as three that an older writer
// could have left: the same bytes under the RGZIDX03 magic (the layout
// of a gzip index did not change from version 3 to 4), and version-4
// files without the source fingerprint or without the flag that says
// the member marks are complete.
func outdatedIndexes(t *testing.T, raw []byte) map[string][]byte {
	t.Helper()
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	v3 := bytes.Clone(raw)
	copy(v3, "RGZIDX03")
	out := map[string][]byte{"RGZIDX03": reseal(v3)}
	for name, strip := range map[string]func(*gzindex.Index){
		"no fingerprint":    func(ix *gzindex.Index) { ix.SourceFP = nil },
		"no complete marks": func(ix *gzindex.Index) { ix.MemberMarksComplete = false },
	} {
		ix, err := gzindex.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		strip(ix)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

func TestWithIndexFile(t *testing.T) {
	data := workloads.Base64(300_000, 44)
	comp := gzipBytes(t, data)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.gz")
	ixPath := filepath.Join(dir, "saved.idx")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, WithChunkSize(32<<10), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ExportIndex(ixf); err != nil {
		t.Fatal(err)
	}
	ixf.Close()
	r.Close()

	r2, err := Open(path, WithChunkSize(32<<10), WithIndexFile(ixPath))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("content mismatch through explicit index")
	}
	if probes := r2.Stats().FinderProbes; probes != 0 {
		t.Fatalf("explicit index import still probed the finder %d times", probes)
	}

	// A gzip index carries a "gzip"-tagged checkpoint table, so handing
	// it to a bzip2 archive is a format mismatch, not a silent fallback.
	bz, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	bzPath := filepath.Join(dir, "data.bz2")
	if err := os.WriteFile(bzPath, bz, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bzPath, WithIndexFile(ixPath)); err == nil || !strings.Contains(err.Error(), "checkpoint table is for format") {
		t.Fatalf("err = %v, want checkpoint-table format mismatch", err)
	}

	// Unlike discovery, an explicit index must fail loudly when broken —
	// for the gzip backend and the span-engine backends alike.
	if err := os.WriteFile(ixPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, WithIndexFile(ixPath)); err == nil {
		t.Fatal("broken explicit index accepted")
	}
	if _, err := Open(bzPath, WithIndexFile(ixPath)); err == nil {
		t.Fatal("broken explicit index accepted by the bzip2 backend")
	}
}

// TestMemArchiveIndexMethods exercises the checkpoint-table index
// round trip on a span-engine backend: export from one archive, import
// into another over the same bytes, and read through the imported
// table.
func TestMemArchiveIndexMethods(t *testing.T) {
	data := workloads.Base64(50_000, 3)
	lz := lz4x.CompressFrames(data, lz4x.FrameOptions{FrameSize: 10_000})
	a, err := OpenBytes(lz)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.BuildIndex(); err != nil {
		t.Fatalf("BuildIndex on checkpointed backend: %v", err)
	}
	var ix bytes.Buffer
	if err := a.ExportIndex(&ix); err != nil {
		t.Fatalf("ExportIndex: %v", err)
	}

	b, err := OpenBytes(lz)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatalf("ImportIndex: %v", err)
	}
	buf := make([]byte, 1000)
	if _, err := b.ReadAt(buf, 20_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[20_000:21_000]) {
		t.Fatal("content mismatch after checkpoint-table import")
	}

	// An index for different bytes of the same length is rejected by
	// the fingerprint.
	other := bytes.Clone(lz)
	other[30] ^= 0x01 // flip inside the first block's payload (scanner-invisible)
	c, err := OpenBytes(other)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ImportIndex(bytes.NewReader(ix.Bytes())); err == nil {
		t.Fatal("index for different bytes imported")
	}
	// The gzip counters stay zero on span-engine backends.
	if s := a.Stats(); s.ChunksConsumed != 0 || s.GuessTasks != 0 || s.FinderProbes != 0 {
		t.Fatalf("gzip fetcher counters should be zero on a span backend, got %+v", s)
	}
}

// TestCapabilitiesNonSeekableCases pins the honesty requirement: a
// single-stream bzip2 file and a single-frame LZ4 file are readable
// and seekable only at whole-file granularity, so RandomAccess must be
// false while multi-chunk fixtures report true.
func TestCapabilitiesNonSeekableCases(t *testing.T) {
	data := workloads.Base64(150_000, 8)

	bzSingle, err := bzip2x.Compress(data, bzip2x.WriterOptions{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenBytes(bzSingle)
	if err != nil {
		t.Fatal(err)
	}
	if caps := a.Capabilities(); caps.RandomAccess || caps.Parallel {
		t.Fatalf("single-stream bzip2 capabilities %+v: RandomAccess and Parallel must be false", caps)
	}
	a.Close()

	lzSingle := lz4x.CompressFrames(data, lz4x.FrameOptions{})
	a, err = OpenBytes(lzSingle)
	if err != nil {
		t.Fatal(err)
	}
	if caps := a.Capabilities(); caps.RandomAccess || caps.Parallel {
		t.Fatalf("single-frame LZ4 capabilities %+v: RandomAccess and Parallel must be false", caps)
	}
	if a.Capabilities().Verify {
		t.Fatal("LZ4 without checksums must not claim Verify")
	}
	// Seek still works — it just costs a full decode.
	buf := make([]byte, 10)
	if _, err := a.ReadAt(buf, 100_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[100_000:100_010]) {
		t.Fatal("ReadAt mismatch on single-frame LZ4")
	}
	a.Close()
}

// TestTarFSOverNonGzipArchive exercises the tarfs-consumes-Archive
// plumbing: a .tar.bz2 serves files exactly like a .tar.gz.
func TestTarFSOverNonGzipArchive(t *testing.T) {
	tarData := workloads.SilesiaLike(400_000, 12) // emits real TAR framing
	bz, err := bzip2x.Compress(tarData, bzip2x.WriterOptions{Level: 1, StreamSize: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenBytes(bz)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fsys, err := TarFS(a)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.(interface {
		ReadDir(string) ([]os.DirEntry, error)
	}).ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries in tar.bz2 filesystem")
	}
}

// TestCursorSemantics pins, for every format and backing, what the one
// cursor answers in the places where the gzip and the span readers used
// to differ (the Archive doc states the same).
func TestCursorSemantics(t *testing.T) {
	data := workloads.Base64(300_000, 71)
	size := int64(len(data))
	for format, comp := range fixtureSet(t, data) {
		path := writeTempFile(t, t.TempDir(), "cursor."+format.String(), comp)
		for backing, open := range map[string]func() (Archive, error){
			"file":     func() (Archive, error) { return Open(path, WithParallelism(2)) },
			"bytes":    func() (Archive, error) { return OpenBytes(comp, WithParallelism(2)) },
			"inmemory": func() (Archive, error) { return Open(path, WithParallelism(2), WithInMemory()) },
		} {
			t.Run(format.String()+"/"+backing, func(t *testing.T) {
				a, err := open()
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()

				// SeekEnd is the first thing asked of a table that, for
				// gzip and bzip2, has not begun to grow.
				if end, err := a.Seek(0, io.SeekEnd); err != nil || end != size {
					t.Fatalf("Seek(0, SeekEnd) = %d, %v; want %d", end, err, size)
				}
				if n, err := a.Read(make([]byte, 10)); n != 0 || err != io.EOF {
					t.Fatalf("Read at the end = %d, %v; want 0, io.EOF", n, err)
				}

				// The Read that delivers the last bytes returns them with
				// nil; io.EOF comes alone.
				if _, err := a.Seek(-1000, io.SeekEnd); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 700)
				pos := size - 1000
				for _, want := range []int{700, 300} {
					n, err := a.Read(buf)
					if n != want || err != nil || !bytes.Equal(buf[:n], data[pos:pos+int64(n)]) {
						t.Fatalf("Read near the end = %d, %v; want %d right bytes, nil", n, err, want)
					}
					pos += int64(n)
				}
				if n, err := a.Read(buf); n != 0 || err != io.EOF {
					t.Fatalf("Read after the last bytes = %d, %v; want 0, io.EOF", n, err)
				}

				// Seeking past the end is allowed and reads nothing; a
				// negative position is refused and moves nothing.
				if pos, err := a.Seek(size+1000, io.SeekStart); err != nil || pos != size+1000 {
					t.Fatalf("Seek past the end = %d, %v", pos, err)
				}
				if n, err := a.Read(buf); n != 0 || err != io.EOF {
					t.Fatalf("Read past the end = %d, %v; want 0, io.EOF", n, err)
				}
				if _, err := a.Seek(-1, io.SeekStart); err == nil {
					t.Fatal("Seek to a negative position accepted")
				}
				if _, err := a.Seek(0, 42); err == nil {
					t.Fatal("Seek with a bad whence accepted")
				}
				if pos, _ := a.Seek(0, io.SeekCurrent); pos != size+1000 {
					t.Fatalf("a refused Seek moved the cursor to %d", pos)
				}

				// ReadAt is io.ReaderAt's.
				if n, err := a.ReadAt(buf, -1); n != 0 || err == nil || err == io.EOF {
					t.Fatalf("ReadAt(-1) = %d, %v; want 0 and an error", n, err)
				}
				if n, err := a.ReadAt(buf, size-4); n != 4 || err != io.EOF || !bytes.Equal(buf[:4], data[size-4:]) {
					t.Fatalf("ReadAt across the end = %d, %v; want 4, io.EOF", n, err)
				}
				if n, err := a.ReadAt(buf, size); n != 0 || err != io.EOF {
					t.Fatalf("ReadAt at the end = %d, %v; want 0, io.EOF", n, err)
				}

				// WriteTo takes the cursor from where it is to the end.
				if _, err := a.Seek(size-5000, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				var tail bytes.Buffer
				if n, err := a.WriteTo(&tail); n != 5000 || err != nil || !bytes.Equal(tail.Bytes(), data[size-5000:]) {
					t.Fatalf("WriteTo of the tail = %d, %v", n, err)
				}
				if n, err := a.WriteTo(&tail); n != 0 || err != nil {
					t.Fatalf("WriteTo at the end = %d, %v; want 0, nil", n, err)
				}

				// After Close: ErrClosed from everything that can fail, the
				// rest keeps answering, and Close again is nil.
				before := a.Stats()
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				for name, err := range map[string]error{
					"Read":        second(a.Read(buf)),
					"ReadAt":      second(a.ReadAt(buf, 0)),
					"Seek":        second(a.Seek(0, io.SeekStart)),
					"SeekEnd":     second(a.Seek(0, io.SeekEnd)),
					"WriteTo":     second(a.WriteTo(io.Discard)),
					"Size":        second(a.Size()),
					"BuildIndex":  a.BuildIndex(),
					"ExportIndex": a.ExportIndex(io.Discard),
					"ImportIndex": a.ImportIndex(bytes.NewReader(nil)),
				} {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("%s after Close = %v, want ErrClosed", name, err)
					}
				}
				if err := a.Close(); err != nil {
					t.Errorf("second Close = %v, want nil", err)
				}
				if got, ok := a.DecompressedSize(); !ok || got != size {
					t.Errorf("DecompressedSize after Close = %d, %v", got, ok)
				}
				if after := a.Stats(); after.DecodedBytes != before.DecodedBytes || a.Format() != format {
					t.Errorf("Stats or Format changed across Close: %+v", after)
				}
			})
		}
	}
}

// second drops the first of a call's two results.
func second[T any](_ T, err error) error { return err }
