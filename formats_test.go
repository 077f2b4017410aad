package rapidgzip

// The format matrix: one table of formats and variants, one fixture
// builder, and the shared bodies the archive tests are rows of — reads ×
// backing, the index round trip with its refusals, open failures,
// capabilities and TarFS.

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/gzformat"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// --- the format table and the fixture builder ----------------------------

// formatRow is one row of the format table: a format at a fixed level and
// checksum. compress encodes a corpus at a span size, the frame or stream
// size of the formats that have one; gzip spans are the reader's chunk
// size, BGZF's the format's own.
type formatRow struct {
	name     string // the subtest name; a format's own row is named after it
	file     string // the fixture's file name
	format   Format
	compress func(plain []byte, span int) ([]byte, error)
}

// formats is the format table: one row per format, then the variants a
// test is about. Adding a format or a variant is adding a row.
var formats = []formatRow{
	{"gzip", "data.gz", FormatGzip, func(p []byte, _ int) ([]byte, error) {
		comp, _, err := gzipw.Compress(p, gzipw.Options{Level: 6})
		return comp, err
	}},
	{"bgzf", "data.bgzf", FormatBGZF, func(p []byte, _ int) ([]byte, error) {
		comp, _, err := gzipw.Compress(p, gzipw.Options{Level: 6, BGZF: true})
		return comp, err
	}},
	{"bzip2", "data.bz2", FormatBzip2, func(p []byte, span int) ([]byte, error) {
		return bzip2x.Compress(p, bzip2x.WriterOptions{Level: 1, StreamSize: span})
	}},
	{"lz4", "data.lz4", FormatLZ4, lz4Frames(true)},
	{"zstd", "data.zst", FormatZstd, zstdFrames(zstdx.FrameOptions{Level: 1, ContentChecksum: true})},

	// compress/gzip: one member, as most gzip files are.
	{"gzip-stdlib", "data-stdlib.gz", FormatGzip, func(p []byte, _ int) ([]byte, error) {
		var buf bytes.Buffer
		w, _ := gzip.NewWriterLevel(&buf, 6) // a valid level
		_, err := w.Write(p)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return buf.Bytes(), err
	}},
	{"lz4-nochecksum", "data-nochecksum.lz4", FormatLZ4, lz4Frames(false)},
	{"zstd-nochecksum", "data-nochecksum.zst", FormatZstd, zstdFrames(zstdx.FrameOptions{Level: 1})},
	// Frames without a content size: only decoding sizes them.
	{"zstd-unsized", "data-unsized.zst", FormatZstd, zstdFrames(zstdx.FrameOptions{Level: 1, OmitContentSize: true})},
	{"zstd-unsized-checksum", "data-unsized-checksum.zst", FormatZstd,
		zstdFrames(zstdx.FrameOptions{Level: 1, OmitContentSize: true, ContentChecksum: true})},
	// A skippable frame first, as pzstd writes.
	{"zstd-skippable", "data-skippable.zst", FormatZstd, func(p []byte, span int) ([]byte, error) {
		return zstdx.AppendFrames(zstdx.AppendSkippable(nil, []byte("pzstd-style metadata")), p,
			zstdx.FrameOptions{Level: 1, FrameSize: span}), nil
	}},
}

func lz4Frames(checksum bool) func([]byte, int) ([]byte, error) {
	return func(p []byte, span int) ([]byte, error) {
		return lz4x.CompressFrames(p, lz4x.FrameOptions{FrameSize: span, ContentChecksum: checksum}), nil
	}
}

func zstdFrames(o zstdx.FrameOptions) func([]byte, int) ([]byte, error) {
	return func(p []byte, span int) ([]byte, error) {
		o.FrameSize = span
		return zstdx.CompressFrames(p, o), nil
	}
}

// row returns the format table's row of that name.
func row(name string) formatRow {
	for _, r := range formats {
		if r.name == name {
			return r
		}
	}
	panic("no format table row " + name)
}

// perFormat names the rows named after their format: the five-format
// matrix.
func perFormat() (names []string) {
	for _, r := range formats {
		if r.name == r.format.String() {
			names = append(names, r.name)
		}
	}
	return names
}

// formatFixture is a corpus encoded by a row of the format table at a
// span size and written to a temp file.
type formatFixture struct {
	row   formatRow
	plain []byte
	comp  []byte
	path  string
	span  int
	index string // set by indexPath
}

// compress encodes plain with the named row at span.
func compress(t testing.TB, name string, plain []byte, span int) []byte {
	t.Helper()
	comp, err := row(name).compress(plain, span)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return comp
}

// build encodes plain with the named row at span and writes it to a temp
// file.
func build(t testing.TB, name string, plain []byte, span int) *formatFixture {
	t.Helper()
	fx := &formatFixture{row: row(name), plain: plain, span: span, comp: compress(t, name, plain, span)}
	fx.path = writeTempFile(t, t.TempDir(), fx.row.file, fx.comp)
	return fx
}

// indexPath exports the fixture's index from a cold open at its span size,
// once, and returns the file it is in: not the sibling Open discovers.
func (fx *formatFixture) indexPath(t testing.TB) string {
	t.Helper()
	if fx.index == "" {
		opts := []Option{WithoutIndexDiscovery()}
		if fx.span > 0 {
			opts = append(opts, WithChunkSize(fx.span))
		}
		a, err := Open(fx.path, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		path := filepath.Join(filepath.Dir(fx.path), "exported"+IndexSuffix)
		if err := ExportIndexFile(a, path); err != nil {
			t.Fatal(err)
		}
		fx.index = path
	}
	return fx.index
}

// open opens the fixture from its file ("file"), its bytes ("bytes") or
// its file read into memory ("inmemory").
func (fx *formatFixture) open(backing string, opts ...Option) (Archive, error) {
	switch backing {
	case "bytes":
		return OpenBytes(fx.comp, opts...)
	case "inmemory":
		opts = append(opts[:len(opts):len(opts)], WithInMemory())
	}
	return Open(fx.path, opts...)
}

// writeTempFile writes data under dir and returns its path.
func writeTempFile(t testing.TB, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkReadAt reads n bytes at off and holds them to plain.
func checkReadAt(a Archive, plain []byte, off int64, n int) error {
	buf := make([]byte, n)
	k, err := a.ReadAt(buf, off)
	want := min(int64(n), max(int64(len(plain))-off, 0))
	if int64(k) != want || err != nil && err != io.EOF || !bytes.Equal(buf[:k], plain[off:off+int64(k)]) {
		return fmt.Errorf("ReadAt(%d, %d bytes) = %d, %v; want %d right bytes", off, n, k, err, want)
	}
	return nil
}

// crcVerified asserts the method the archives of Open and OpenBytes
// carry beyond the Archive interface.
func crcVerified(a Archive) (bool, uint64) {
	return a.(interface{ CRCVerified() (bool, uint64) }).CRCVerified()
}

// isErr reports whether err is the one a row names: want by errors.Is, or
// msg in its text where no typed error exists.
func isErr(err, want error, msg string) bool {
	if want != nil {
		return errors.Is(err, want)
	}
	return err != nil && strings.Contains(err.Error(), msg)
}

// --- reads × backing -----------------------------------------------------

// readMatrix opens a fixture of plain at span for each named row with each
// backing and opts, and reads it whole, at fixed offsets, from a seek and
// concurrently; the backings must agree on capabilities.
func readMatrix(t *testing.T, plain []byte, span int, rows, backings []string, opts ...Option) {
	for _, name := range rows {
		t.Run(name, func(t *testing.T) {
			fx := build(t, name, plain, span)
			caps := map[string]Capabilities{}
			for _, b := range backings {
				t.Run(b, func(t *testing.T) {
					a, err := fx.open(b, append(opts, WithVerify(true))...)
					if err != nil {
						t.Fatal(err)
					}
					defer a.Close()
					caps[b] = a.Capabilities()
					checkReads(t, a, fx)
				})
			}
			for b, c := range caps {
				if c != caps[backings[0]] {
					t.Fatalf("capabilities diverge: %s %+v, %s %+v", b, c, backings[0], caps[backings[0]])
				}
			}
		})
	}
}

func checkReads(t *testing.T, a Archive, fx *formatFixture) {
	plain, n := fx.plain, int64(len(fx.plain))
	if a.Format() != fx.row.format || DetectFormat(fx.comp[:SniffLen]) != fx.row.format {
		t.Fatalf("Format = %v, sniffed %v; want %v", a.Format(), DetectFormat(fx.comp[:SniffLen]), fx.row.format)
	}
	caps := a.Capabilities()
	if !caps.Seek || !caps.RandomAccess || !caps.Parallel || !caps.Prefetch || !caps.Index {
		t.Fatalf("capabilities %+v: multi-span fixtures must be seekable, parallel and prefetching", caps)
	}

	// The whole stream through Read, checksums verified on the way.
	if got, err := io.ReadAll(a); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("full read: %d of %d bytes, %v", len(got), n, err)
	}
	if ok, fails := crcVerified(a); ok != caps.Verify || fails != 0 {
		t.Fatalf("CRCVerified = %v, %d after a sequential read; Verify is %v", ok, fails, caps.Verify)
	}
	gzipFamily := fx.row.format == FormatGzip || fx.row.format == FormatBGZF
	if s := a.Stats(); s.SourceReads == 0 || (s.ChunksConsumed > 0) != gzipFamily {
		t.Fatalf("after a full read: %+v", s)
	}
	if size, err := a.Size(); err != nil || size != n {
		t.Fatalf("Size = %d, %v", size, err)
	}

	for _, off := range []int64{0, 1, 65_535, n / 2, n - 100} {
		if err := checkReadAt(a, plain, off, 100); err != nil {
			t.Fatal(err)
		}
	}

	// Seek and Read; a ReadAt between Reads leaves the cursor alone, and
	// WriteTo takes the rest.
	at := n / 3
	if _, err := a.Seek(at, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	for _, pos := range []int64{at, at + 1024} {
		if _, err := io.ReadFull(a, buf); err != nil || !bytes.Equal(buf, plain[pos:pos+1024]) {
			t.Fatalf("Read at %d: %v", pos, err)
		}
		if err := checkReadAt(a, plain, 100, 512); err != nil {
			t.Fatal(err)
		}
	}
	var rest bytes.Buffer
	if k, err := a.WriteTo(&rest); err != nil || k != n-at-2048 || !bytes.Equal(rest.Bytes(), plain[at+2048:]) {
		t.Fatalf("WriteTo from %d = %d, %v", at+2048, k, err)
	}

	// Concurrent ReadAt (run under -race in CI).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				if err := checkReadAt(a, plain, rnd.Int63n(n-3000), 3000); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestOpenSniffMatrix(t *testing.T) {
	readMatrix(t, workloads.Base64(500_000, 77), 100<<10, perFormat(), []string{"file"}, WithParallelism(4), WithChunkSize(64<<10))
}

func TestOpenBytesSniffMatrix(t *testing.T) {
	readMatrix(t, workloads.FASTQ(200_000, 5), 100<<10, perFormat(), []string{"bytes"}, WithParallelism(2))
}

// TestConcurrentReadAtAllSpanFormats: a deliberately tiny shared pool
// keeps eviction churning under the concurrency.
func TestConcurrentReadAtAllSpanFormats(t *testing.T) {
	readMatrix(t, workloads.FASTQ(800_000, 9), 64<<10, perFormat(), []string{"bytes"},
		WithParallelism(4), WithSharedPool(NewCachePool(192<<10)), WithChunkSize(64<<10))
}

func TestFileBackedConcurrentReadAt(t *testing.T) {
	readMatrix(t, workloads.Base64(2<<20, 7), 256<<10, perFormat(), []string{"file"},
		WithParallelism(4), WithChunkSize(256<<10), WithoutIndexDiscovery())
}

// TestFileBackedMatchesInMemory pins WithInMemory as a pure backing swap.
func TestFileBackedMatchesInMemory(t *testing.T) {
	readMatrix(t, workloads.Base64(1<<20, 7), 256<<10, perFormat(), []string{"file", "inmemory"},
		WithParallelism(2), WithChunkSize(256<<10), WithoutIndexDiscovery())
}

func TestOpenAndCopy(t *testing.T) {
	readMatrix(t, workloads.Base64(1_000_000, 1), 64<<10, []string{"gzip-stdlib"}, []string{"file"}, WithParallelism(4), WithChunkSize(64<<10))
}

func TestNewReaderFromFile(t *testing.T) {
	readMatrix(t, workloads.FASTQ(400_000, 2), 32<<10, []string{"gzip-stdlib"}, []string{"file"},
		WithFormat(FormatGzip), WithParallelism(2), WithChunkSize(32<<10))
}

func TestSeekReadAt(t *testing.T) {
	readMatrix(t, workloads.SilesiaLike(800_000, 3), 32<<10, []string{"gzip-stdlib"}, []string{"bytes"}, WithParallelism(3), WithChunkSize(32<<10))
}

func TestZstdWriteToChunkPipeline(t *testing.T) {
	readMatrix(t, workloads.FASTQ(700_000, 14), 64<<10, []string{"zstd"}, []string{"bytes"}, WithParallelism(3))
}

func TestZstdSkippableLeadSniffs(t *testing.T) {
	readMatrix(t, workloads.Base64(80_000, 10), 20<<10, []string{"zstd-skippable"}, []string{"bytes"}, WithParallelism(2))
}

// --- the index round trip ------------------------------------------------

// reopenIndexed opens fx with its exported index — found beside the file
// ("sibling"), named ("explicit") or imported after a cold open
// ("import") — and checks what every indexed open promises: no scan, no
// decode and no source read before the first access (the fingerprint
// probe reads outside the counters), extent reads after it, no
// speculation, and a table that is metadata, sized or not.
func reopenIndexed(t *testing.T, fx *formatFixture, mode, backing string, opts ...Option) {
	t.Helper()
	ix, raw := fx.indexPath(t), readIndex(t, fx)
	var a Archive
	var err error
	switch mode {
	case "sibling":
		writeTempFile(t, filepath.Dir(fx.path), filepath.Base(fx.path)+IndexSuffix, raw)
		a, err = fx.open(backing, opts...)
	case "explicit":
		a, err = fx.open(backing, append(opts, WithIndexFile(ix))...)
	case "import":
		if a, err = fx.open(backing, append(opts, WithoutIndexDiscovery())...); err == nil {
			// Exactly the index bytes are consumed from the stream.
			stream := bytes.NewReader(append(raw, "TRAILER"...))
			err = a.ImportIndex(stream)
			if rest, _ := io.ReadAll(stream); err == nil && string(rest) != "TRAILER" {
				err = fmt.Errorf("import left %q of the stream", rest)
			}
		}
	}
	if err != nil {
		t.Fatalf("%s index: %v", mode, err)
	}
	defer a.Close()

	n := int64(len(fx.plain))
	if s := a.Stats(); s.SizingPasses != 0 || s.DecodedBytes != 0 || s.SourceReads != 0 || s.SourceBytesRead != 0 {
		t.Fatalf("%s index, before any access: %+v", mode, s)
	}
	if err := checkReadAt(a, fx.plain, n/2+12345, 4096); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.SizingPasses != 0 || s.SourceReads == 0 || s.SourceBytesRead >= uint64(len(fx.comp)) {
		t.Fatalf("%s index, first access read %d of %d source bytes in %d preads (%d sizing passes): want span extents",
			mode, s.SourceBytesRead, len(fx.comp), s.SourceReads, s.SizingPasses)
	}
	if got, err := io.ReadAll(a); err != nil || !bytes.Equal(got, fx.plain) {
		t.Fatalf("%s index, full read: %d bytes, %v", mode, len(got), err)
	}
	for _, off := range []int64{0, n / 5, n / 3, n - 777} {
		if err := checkReadAt(a, fx.plain, off, 777); err != nil {
			t.Fatal(err)
		}
	}
	if s := a.Stats(); s.SizingPasses != 0 || s.GuessTasks != 0 || s.FinderProbes != 0 {
		t.Fatalf("%s index: the read scanned or speculated: %+v", mode, s)
	}
	if caps := a.Capabilities(); !caps.RandomAccess || !caps.Parallel || !caps.Prefetch {
		t.Fatalf("%s index: capabilities %+v", mode, caps)
	}
	if mode == "sibling" {
		b, err := fx.open(backing, append(opts, WithoutIndexDiscovery())...)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if s := b.Stats(); s.SizingPasses != 1 {
			t.Fatalf("WithoutIndexDiscovery still used the sibling index: %+v", s)
		}
	}
}

func TestIndexAutoDiscovery(t *testing.T) {
	fx := build(t, "gzip-stdlib", workloads.Base64(400_000, 33), 32<<10)
	reopenIndexed(t, fx, "sibling", "file", WithChunkSize(32<<10))
	refuseIndexes(t, "sibling")
}

func TestWithIndexFile(t *testing.T) {
	fx := build(t, "gzip-stdlib", workloads.Base64(300_000, 44), 32<<10)
	reopenIndexed(t, fx, "explicit", "file", WithChunkSize(32<<10))
	reopenIndexed(t, fx, "explicit", "bytes", WithChunkSize(32<<10))
	refuseIndexes(t, "explicit")
}

func TestOpenWithIndex(t *testing.T) {
	fx := build(t, "gzip-stdlib", workloads.SilesiaLike(900_000, 41), 64<<10)
	reopenIndexed(t, fx, "explicit", "file", WithParallelism(4), WithChunkSize(64<<10))
}

func TestNewReaderWithIndex(t *testing.T) {
	fx := build(t, "gzip-stdlib", workloads.FASTQ(500_000, 43), 32<<10)
	reopenIndexed(t, fx, "import", "file", WithParallelism(3), WithChunkSize(32<<10))
	refuseIndexes(t, "import")
}

func TestIndexRoundTripPublicAPI(t *testing.T) {
	fx := build(t, "gzip-stdlib", workloads.Base64(600_000, 4), 32<<10)
	reopenIndexed(t, fx, "import", "bytes", WithParallelism(2), WithChunkSize(32<<10))
}

// TestMemArchiveIndexMethods: the checkpoint-table round trip on a span
// format over bytes.
func TestMemArchiveIndexMethods(t *testing.T) {
	reopenIndexed(t, build(t, "lz4-nochecksum", workloads.Base64(50_000, 3), 10_000), "import", "bytes")
}

// TestFileBackedReopenWithIndexZeroSizing: a sibling or named index for
// every format, read from the file.
func TestFileBackedReopenWithIndexZeroSizing(t *testing.T) {
	plain := workloads.Base64(2<<20, 7)
	for _, name := range perFormat() {
		fx := build(t, name, plain, 256<<10)
		for _, mode := range []string{"sibling", "explicit"} {
			t.Run(name+"-"+mode, func(t *testing.T) {
				reopenIndexed(t, fx, mode, "file", WithParallelism(2), WithChunkSize(256<<10))
			})
		}
	}
}

// TestReopenWithIndexSkipsSizingPass: a cold open decodes nothing,
// whatever the format — it reads the file at most once (the bzip2 magic
// scan) — and the first sequential pass decodes every byte once, sizing
// bzip2 streams and unsized zstd frames as it serves them; an index then
// skips the sizing pass entirely.
func TestReopenWithIndexSkipsSizingPass(t *testing.T) {
	plain := workloads.Base64(400_000, 37)
	for _, name := range []string{"bzip2", "lz4", "zstd", "zstd-unsized"} {
		fx := build(t, name, plain, 64<<10)
		t.Run(fx.row.file, func(t *testing.T) {
			a, err := fx.open("file", WithParallelism(2), WithoutIndexDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if s := a.Stats(); s.SizingPasses != 1 || s.DecodedBytes != 0 || s.SourceBytesRead > uint64(len(fx.comp))+4<<10 {
				t.Fatalf("cold open of a %d-byte file: %+v; want a scan only", len(fx.comp), s)
			}
			deferred := name == "bzip2" || name == "zstd-unsized"
			if _, sized := a.DecompressedSize(); sized == deferred {
				t.Fatalf("DecompressedSize known after open = %v", sized)
			}
			if n, err := a.WriteTo(io.Discard); err != nil || n != int64(len(plain)) {
				t.Fatalf("WriteTo = %d, %v", n, err)
			}
			// The pass that sizes a table decodes each span once; a
			// prefetcher over a complete one may lose a span to eviction.
			if s := a.Stats(); s.DecodedBytes < uint64(len(plain)) || deferred && s.DecodedBytes != uint64(len(plain)) {
				t.Fatalf("one sequential pass decoded %d bytes of %d", s.DecodedBytes, len(plain))
			}
			if size, ok := a.DecompressedSize(); !ok || size != int64(len(plain)) {
				t.Fatalf("DecompressedSize after a full pass = %d, %v", size, ok)
			}
			reopenIndexed(t, fx, "sibling", "file", WithParallelism(2))
		})
	}
}

// refuseIndexes gives every row of the refusal table — an index and the
// file it is given to — to its file in one mode: "explicit" and "import"
// must fail with the row's error, the import leaving the archive as it
// was, and "sibling" must open with a scan and serve the right bytes.
func refuseIndexes(t *testing.T, mode string) {
	// The files: gzip, bzip2 and LZ4 ones, a shorter gzip file, and two the
	// size of the gzip and LZ4 ones that decode fine but are not them (the
	// gzip header's OS byte flipped; incompressible LZ4 of another seed).
	plain := workloads.Base64(300_000, 44)
	gz, lz := build(t, "gzip-stdlib", plain, 32<<10), build(t, "lz4-nochecksum", workloads.Random(50_000, 3), 10_000)
	sameGz := build(t, "gzip-stdlib", plain, 32<<10)
	sameGz.comp[9] ^= 0xFF
	writeTempFile(t, filepath.Dir(sameGz.path), filepath.Base(sameGz.path), sameGz.comp)
	bz := build(t, "bzip2", plain, 0)

	gzIndex := readIndex(t, gz)
	rewritten := func(edit func(*gzindex.Index)) []byte {
		ix, err := gzindex.Read(bytes.NewReader(gzIndex))
		if err != nil {
			t.Fatal(err)
		}
		edit(ix)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The layout of a gzip index did not change from version 3 to 4.
	v3 := append([]byte("RGZIDX03"), gzIndex[8:]...)
	binary.LittleEndian.PutUint32(v3[len(v3)-4:], crc32.ChecksumIEEE(v3[:len(v3)-4]))

	for _, r := range []struct {
		name   string
		target *formatFixture
		index  []byte // nil: no file at all
		want   error
		msg    string
	}{
		{"missing", gz, nil, fs.ErrNotExist, ""},
		{"junk", gz, []byte("junk"), gzindex.ErrBadMagic, ""},
		{"junk-bzip2", bz, []byte("junk"), gzindex.ErrBadMagic, ""},
		{"corrupt", gz, []byte("RGZIDX04 garbage that is not an index"), gzindex.ErrCorrupt, ""},
		{"gzip-file", gz, gz.comp, gzindex.ErrBadMagic, ""},
		{"truncated", gz, gzIndex[:len(gzIndex)/2], gzindex.ErrCorrupt, ""},
		// Written before the current format, or without what every writer
		// now records.
		{"RGZIDX03", gz, v3, gzindex.ErrUnsupportedVersion, ""},
		{"no-fingerprint", gz, rewritten(func(ix *gzindex.Index) { ix.SourceFP = nil }), gzindex.ErrUnsupportedVersion, ""},
		{"no-complete-marks", gz, rewritten(func(ix *gzindex.Index) { ix.MemberMarksComplete = false }), gzindex.ErrUnsupportedVersion, ""},
		// Built for another file.
		{"shorter-file", build(t, "gzip-stdlib", workloads.Base64(100_000, 42), 32<<10), gzIndex, nil, "gzindex: index is for a"},
		{"same-size-file", sameGz, gzIndex, nil, "gzindex: index fingerprint"},
		{"same-size-lz4", build(t, "lz4-nochecksum", workloads.Random(50_000, 4), 10_000), readIndex(t, lz), nil, "gzindex: index fingerprint"},
		{"gzip-index-on-bzip2", bz, gzIndex, nil, "gzindex: index checkpoint table is for format"},
	} {
		if r.index == nil && mode != "explicit" {
			continue // nothing to import or find
		}
		t.Run(r.name, func(t *testing.T) {
			fx := r.target
			ixPath := filepath.Join(t.TempDir(), "refused"+IndexSuffix)
			if r.index != nil {
				writeTempFile(t, filepath.Dir(ixPath), filepath.Base(ixPath), r.index)
			}
			switch mode {
			case "explicit":
				if a, err := fx.open("file", WithIndexFile(ixPath)); a != nil || !isErr(err, r.want, r.msg) {
					t.Fatalf("Open = %v; want %v%s", err, r.want, r.msg)
				}
			case "import":
				a, err := fx.open("file", WithoutIndexDiscovery())
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				if err := a.ImportIndex(bytes.NewReader(r.index)); !isErr(err, r.want, r.msg) {
					t.Fatalf("ImportIndex = %v; want %v%s", err, r.want, r.msg)
				}
				if err := checkReadAt(a, fx.plain, int64(len(fx.plain))/2, 4096); err != nil {
					t.Fatalf("after a refused import: %v", err)
				}
			case "sibling":
				if err := os.Rename(ixPath, fx.path+IndexSuffix); err != nil {
					t.Fatal(err)
				}
				defer os.Remove(fx.path + IndexSuffix)
				a, err := fx.open("file")
				if err != nil {
					t.Fatalf("a refused sibling index broke Open: %v", err)
				}
				defer a.Close()
				if got, err := io.ReadAll(a); err != nil || !bytes.Equal(got, fx.plain) {
					t.Fatalf("after a skipped sibling index: %d bytes, %v", len(got), err)
				}
				if s := a.Stats(); s.SizingPasses != 1 {
					t.Fatalf("a refused sibling index was imported: %+v", s)
				}
			}
		})
	}
}

// readIndex returns the bytes of fx's exported index.
func readIndex(t *testing.T, fx *formatFixture) []byte {
	raw, err := os.ReadFile(fx.indexPath(t))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// --- open failures and capabilities --------------------------------------

// failCase is a row of the failure table: an input Open must refuse with
// the named error and no archive — its bytes (OpenBytes too) or, for what
// is not a file of bytes, its path under a temp directory.
type failCase struct {
	name    string
	content func(t *testing.T) []byte
	path    string
	opts    []Option
	want    error
	msg     string
}

// openFailures is the failure table, by the test that runs the rows.
var openFailures = map[string][]failCase{
	// Too short to carry any magic: the typed sniff error, never a short
	// read from inside a backend.
	"TestOpenDegenerateInputs": {
		{name: "empty", content: literal(""), want: ErrUnsupportedFormat},
		{name: "one-byte", content: literal("\x1f"), want: ErrUnsupportedFormat},
		{name: "two-bytes", content: literal("\x1f\x8b"), want: ErrUnsupportedFormat},
		{name: "three-bytes", content: literal("\x28\xb5\x2f"), want: ErrUnsupportedFormat},
		{name: "garbage", content: literal("\xde\xad\xbe\xef\x00\x11\x22\x33"), want: ErrUnsupportedFormat},
		{name: "text", content: literal("hi"), want: ErrUnsupportedFormat},
		{name: "magic-prefix", content: literal("BZ"), want: ErrUnsupportedFormat},
	},
	"TestOpenUnsupportedFormat": {
		{name: "xz", content: literal("\xfd7zXZ\x00\x01\x02"), want: ErrUnsupportedFormat},
	},
	"TestOpenErrors": {
		{name: "missing", path: "missing.gz", want: fs.ErrNotExist},
		{name: "not-compressed", content: literal("not gzip data"), want: ErrUnsupportedFormat},
	},
	// A stattable-but-unreadable source is ErrSourceRead whatever the
	// format; readable-but-unrecognizable bytes stay ErrUnsupportedFormat;
	// a cut file fails in its backend's scan at open.
	"TestOpenFailurePaths": {
		{name: "nonexistent", path: "missing.lz4", want: fs.ErrNotExist},
		{name: "directory-sniffed", path: ".", want: ErrSourceRead},
		{name: "directory-forced-gzip", path: ".", opts: []Option{WithFormat(FormatGzip)}, want: ErrSourceRead},
		{name: "directory-forced-bgzf", path: ".", opts: []Option{WithFormat(FormatBGZF)}, want: ErrSourceRead},
		{name: "directory-forced-lz4", path: ".", opts: []Option{WithFormat(FormatLZ4)}, want: ErrSourceRead},
		{name: "directory-forced-bzip2", path: ".", opts: []Option{WithFormat(FormatBzip2)}, want: ErrSourceRead},
		{name: "directory-forced-zstd", path: ".", opts: []Option{WithFormat(FormatZstd)}, want: ErrSourceRead},
		{name: "empty-file", content: literal(""), want: ErrUnsupportedFormat},
		{name: "no-magic", content: literal("this is not compressed data at all"), want: ErrUnsupportedFormat},
		{name: "truncated-gzip-header", content: encoded("gzip", 8), want: io.ErrUnexpectedEOF},
		{name: "truncated-bgzf-member", content: encoded("bgzf", -1), msg: "overruns the file"},
		{name: "truncated-lz4", content: encoded("lz4-nochecksum", 20<<10), msg: "lz4x: truncated frame"},
		{name: "truncated-zstd", content: encoded("zstd-nochecksum", 10<<10), want: zstdx.ErrCorrupt},
	},
	// The wrong backend forced fails with its parse error, not garbage;
	// an unknown Format fails at option time.
	"TestWithFormatOverride": {
		{name: "lz4-as-gzip", content: encoded("lz4-nochecksum", 0), opts: []Option{WithFormat(FormatGzip)}, want: gzformat.ErrNotGzip},
		{name: "unknown-format", content: encoded("lz4-nochecksum", 0), opts: []Option{WithFormat(Format(99))}, want: ErrUnsupportedFormat},
	},
	"TestZstdForcedFormat": {
		{name: "zstd-as-lz4", content: encoded("zstd-nochecksum", 0), opts: []Option{WithFormat(FormatLZ4)}, want: lz4x.ErrNotLZ4},
		{name: "text-as-zstd", content: func(*testing.T) []byte { return workloads.Base64(50_000, 3) },
			opts: []Option{WithFormat(FormatZstd)}, want: zstdx.ErrNotZstd},
	},
}

func literal(s string) func(*testing.T) []byte { return func(*testing.T) []byte { return []byte(s) } }

// encoded is 64 KiB of Base64 as the named row encodes it in one span,
// cut to its first n bytes if n > 0, or to half if n < 0.
func encoded(name string, n int) func(*testing.T) []byte {
	return func(t *testing.T) []byte {
		comp := compress(t, name, workloads.Base64(64<<10, 3), 0)
		switch {
		case n < 0:
			return comp[:len(comp)/2]
		case n > 0:
			return comp[:n]
		}
		return comp
	}
}

// runOpenFailures runs the failure table's rows of the calling test.
func runOpenFailures(t *testing.T) {
	dir := t.TempDir()
	for _, c := range rowsOf(t, openFailures) {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.path)
			if c.content != nil {
				content := c.content(t)
				if a, err := OpenBytes(content, c.opts...); a != nil || !isErr(err, c.want, c.msg) {
					t.Fatalf("OpenBytes = %v; want %v%s", err, c.want, c.msg)
				}
				path = writeTempFile(t, dir, c.name, content)
			}
			if a, err := Open(path, c.opts...); a != nil || !isErr(err, c.want, c.msg) {
				t.Fatalf("Open = %v; want %v%s", err, c.want, c.msg)
			}
		})
	}
}

// rowsOf returns the rows of a table keyed by test name that the calling
// test runs.
func rowsOf[R any](t *testing.T, table map[string][]R) []R {
	if len(table[t.Name()]) == 0 {
		t.Fatalf("no rows for %s", t.Name())
	}
	return table[t.Name()]
}

func TestOpenDegenerateInputs(t *testing.T)  { runOpenFailures(t) }
func TestOpenUnsupportedFormat(t *testing.T) { runOpenFailures(t) }
func TestOpenErrors(t *testing.T)            { runOpenFailures(t) }
func TestOpenFailurePaths(t *testing.T)      { runOpenFailures(t) }
func TestWithFormatOverride(t *testing.T)    { runOpenFailures(t) }
func TestZstdForcedFormat(t *testing.T)      { runOpenFailures(t) }

// capabilityCases is the capability table, by the test that runs the
// rows: a row of the format table at a span size, opened with opts,
// claims random access, parallel decode and prefetch exactly when it has
// more than one span it can locate without decoding, and Verify exactly
// when it carries checksums; Seek and Index always hold.
var capabilityCases = map[string][]struct {
	name, row     string
	span          int
	opts          []Option
	multi, verify bool
}{
	"TestZstdCapabilitiesMatrix": {
		{"multi-frame-sized", "zstd", 100 << 10, nil, true, true},
		{"single-frame", "zstd", 0, []Option{WithFormat(FormatZstd)}, false, true},
		{"multi-frame-unsized", "zstd-unsized", 100 << 10, nil, false, false},
		{"no-checksum", "zstd-nochecksum", 100 << 10, nil, true, false},
	},
	"TestCapabilitiesNonSeekableCases": {
		{"bzip2-single-stream", "bzip2", 0, nil, false, true},
		{"lz4-single-frame", "lz4-nochecksum", 0, []Option{WithFormat(FormatLZ4)}, false, false},
		{"bzip2-multi-stream", "bzip2", 50 << 10, nil, true, true},
		{"lz4-multi-frame", "lz4", 50 << 10, nil, true, true},
		{"gzip-one-member", "gzip-stdlib", 0, nil, true, true},
		{"bgzf", "bgzf", 0, nil, true, true},
	},
}

func runCapabilities(t *testing.T, plain []byte) {
	for _, c := range rowsOf(t, capabilityCases) {
		t.Run(c.name, func(t *testing.T) {
			a, err := OpenBytes(compress(t, c.row, plain, c.span), append([]Option{WithParallelism(2)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			want := Capabilities{Seek: true, Index: true, RandomAccess: c.multi, Parallel: c.multi, Prefetch: c.multi, Verify: c.verify}
			if a.Format() != row(c.row).format || a.Capabilities() != want {
				t.Fatalf("%v with capabilities %+v; want %v with %+v", a.Format(), a.Capabilities(), row(c.row).format, want)
			}
			// Whatever the capability level, reads are exact — a seek into
			// a single span costs its whole decode — and the index works.
			if err := checkReadAt(a, plain, int64(len(plain))*2/3, 10); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := io.Copy(&out, a); err != nil || !bytes.Equal(out.Bytes(), plain) {
				t.Fatalf("content: %d bytes, %v", out.Len(), err)
			}
			if err := a.BuildIndex(); err != nil {
				t.Fatalf("BuildIndex: %v", err)
			}
			if err := a.ExportIndex(io.Discard); err != nil {
				t.Fatalf("ExportIndex: %v", err)
			}
		})
	}
}

func TestZstdCapabilitiesMatrix(t *testing.T)       { runCapabilities(t, workloads.Base64(400_000, 4)) }
func TestCapabilitiesNonSeekableCases(t *testing.T) { runCapabilities(t, workloads.Base64(150_000, 8)) }

// --- TarFS ---------------------------------------------------------------

// checkTarFS serves a tar compressed with a row of the format table
// through TarFS: the walk finds every member archive/tar reads whole from
// the plain tar (a generated corpus may cut the last one short), and each
// reads byte-exact.
func checkTarFS(t *testing.T, name string, tarball []byte, span int, opts ...Option) {
	want := map[string][]byte{}
	for tr := tar.NewReader(bytes.NewReader(tarball)); ; {
		hdr, err := tr.Next()
		if err != nil {
			break
		}
		if content, err := io.ReadAll(tr); err == nil && hdr.Typeflag == tar.TypeReg {
			want[hdr.Name] = content
		}
	}
	a, err := build(t, name, tarball, span).open("bytes", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fsys, err := TarFS(a)
	if err != nil {
		t.Fatal(err)
	}
	var walked []string
	err = fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			walked = append(walked, path)
		}
		return err
	})
	if err != nil || len(walked) < len(want) || len(want) < 3 {
		t.Fatalf("walk found %d files of %d: %v", len(walked), len(want), err)
	}
	for path, content := range want {
		if got, err := fs.ReadFile(fsys, path); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("ReadFile(%q): %d bytes of %d, %v", path, len(got), len(content), err)
		}
	}
}

// TestTarFS is the ratarmount scenario: members of a .tar.gz via io/fs.
func TestTarFS(t *testing.T) {
	checkTarFS(t, "gzip-stdlib", workloads.SilesiaLike(2<<20, 6), 64<<10, WithParallelism(3), WithChunkSize(64<<10))
}

func TestTarFSOverNonGzipArchive(t *testing.T) {
	checkTarFS(t, "bzip2", workloads.SilesiaLike(400_000, 12), 100<<10)
}

func TestTarFSOverZstd(t *testing.T) {
	var tarball bytes.Buffer
	tw := tar.NewWriter(&tarball)
	for _, f := range []struct {
		name    string
		content []byte
	}{{"docs/readme.txt", []byte("zstd tarfs works")}, {"data/blob.bin", workloads.Random(50_000, 6)}, {"empty.txt", nil}} {
		if err := tw.WriteHeader(&tar.Header{Name: f.name, Mode: 0o644, Size: int64(len(f.content))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(f.content); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	checkTarFS(t, "zstd", tarball.Bytes(), 20<<10, WithParallelism(2))
}

// --- the rest of the archive over the format table -----------------------

// TestCursorSemantics pins, for every format and backing, what the one
// cursor answers in the places where the gzip and the span readers used
// to differ (the Archive doc states the same).
func TestCursorSemantics(t *testing.T) {
	data := workloads.Base64(300_000, 71)
	size := int64(len(data))
	for _, name := range perFormat() {
		fx := build(t, name, data, 100<<10)
		for _, backing := range []string{"file", "bytes", "inmemory"} {
			t.Run(name+"/"+backing, func(t *testing.T) {
				a, err := fx.open(backing, WithParallelism(2))
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
				if after := a.Stats(); after.DecodedBytes != before.DecodedBytes || a.Format() != fx.row.format {
					t.Errorf("Stats or Format changed across Close: %+v", after)
				}
			})
		}
	}
}

// second drops the first of a call's two results.
func second[T any](_ T, err error) error { return err }

// TestFileBackedEvictionPressureMidPrefetch squeezes the span cache (a
// shared pool of about three spans) under a deep prefetch (2P or 4P at
// P=4) while decodes pread a real temp file: evictions must land
// mid-flight without corrupting content or wedging the engine.
func TestFileBackedEvictionPressureMidPrefetch(t *testing.T) {
	plain := workloads.Base64(4<<20, 7)
	for _, name := range perFormat() {
		t.Run(name, func(t *testing.T) {
			a, err := build(t, name, plain, 256<<10).open("file", WithParallelism(4), WithChunkSize(256<<10),
				WithSharedPool(NewCachePool(768<<10)), WithoutIndexDiscovery())
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			for off := int64(0); off < int64(len(plain)); off += 48 << 10 {
				if err := checkReadAt(a, plain, off, 48<<10); err != nil {
					t.Fatal(err)
				}
			}
			if s := a.Stats(); s.SpanCacheEvictions == 0 {
				t.Fatalf("no evictions under a three-span pool at P=4: %+v", s)
			}
		})
	}
}

// TestEvictionPressureThroughArchive forces the span cache over capacity
// mid-prefetch through WriteTo: a shared pool of two spans' bytes under
// the prefetch depth of P=4 (8) must evict continuously while sequential
// consumption stays byte-exact.
func TestEvictionPressureThroughArchive(t *testing.T) {
	fx := build(t, "bzip2", workloads.Base64(1_500_000, 13), 50<<10)
	a, err := fx.open("bytes", WithParallelism(4), WithSharedPool(NewCachePool(100<<10)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var out bytes.Buffer
	if _, err := io.Copy(&out, a); err != nil || !bytes.Equal(out.Bytes(), fx.plain) {
		t.Fatalf("under eviction pressure: %d bytes, %v", out.Len(), err)
	}
	if s := a.Stats(); s.SpanCacheEvictions == 0 || s.PrefetchIssued == 0 {
		t.Fatalf("sequential consumption with a two-span pool and prefetch depth 8: %+v", s)
	}
}

// TestBzip2GrownTableIsTheSizingPassTable: the table a bzip2 archive grows
// by reading is the one a pass that decodes every stream to size it finds
// — built here that way, from the stream magics and compress/bzip2 — so
// its index is what the commit before the growing table exported for the
// same file, and imports. The file is multiformat-seq's corpus.bz2 of the
// repo benchmark (seed 1).
func TestBzip2GrownTableIsTheSizingPassTable(t *testing.T) {
	fx := build(t, "bzip2", workloads.SilesiaLike(1<<20, 1), 1<<18)
	plain, comp := fx.plain, fx.comp
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

	a, err := fx.open("file", WithParallelism(2), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Read out of order first: the table must not depend on who grew it.
	if err := checkReadAt(a, plain, 700_000, 1000); err != nil {
		t.Fatalf("ahead of the table: %v", err)
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

	b, err := fx.open("file", WithParallelism(2), WithoutIndexDiscovery())
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
		t.Run(fmt.Sprintf("%s-%s", ti.name, ti.format), func(t *testing.T) {
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
			plan, err := workloads.WriteSparse(f, ti.format.String(), ti.content, ti.frameContent, ti.blockSize, 42,
				[]int{0, numFrames / 2, numFrames - 1})
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
				err = ExportIndexFile(cold, f.Name()+IndexSuffix)
				if cerr := cold.Close(); err == nil {
					err = cerr
				}
				if err != nil {
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
				if open.SizingPasses != 0 || open.DecodedBytes != 0 || open.SourceReads != 0 || open.SourceBytesRead != 0 {
					t.Fatalf("index reopen scanned, decoded or read before any access: %+v", open)
				}
			} else {
				if open.SizingPasses != 1 || open.DecodedBytes != 0 {
					t.Fatalf("metadata-sized open decoded: %+v", open)
				}
				// The open is a header walk: windowed reads around frame and
				// block headers, a low single-digit percentage of the file.
				scanBound := uint64(plan.CompressedSize/8) + 64<<10
				if open.SourceBytesRead > scanBound || open.SourceReads == 0 {
					t.Fatalf("open read %d source bytes in %d preads of a %d-byte file (bound %d): not a windowed metadata scan",
						open.SourceBytesRead, open.SourceReads, plan.CompressedSize, scanBound)
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
				if n != readSize || err != nil && err != io.EOF || !bytes.Equal(buf[:n], plan.ExpectedAt(off, n)) {
					t.Fatalf("ReadAt(%d) = %d of %d bytes, %v; or not the generation plan's", off, n, readSize, err)
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
