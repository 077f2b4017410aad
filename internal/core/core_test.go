package core

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deflate"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/spanengine"
)

// mkText builds repetitive text (marker-heavy under compression).
func mkText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"wood", "chuck", "would", "how", "much", "if", "a", "the", "quick"}
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, words[rng.Intn(len(words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

// mkBase64 builds base64-style data (almost no back-references).
func mkBase64(seed int64, n int) []byte {
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		if i%77 == 76 {
			out[i] = '\n'
		} else {
			out[i] = alpha[rng.Intn(64)]
		}
	}
	return out
}

func mkRandom(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// The root package's archive reaches a gzip engine's extras through its
// codec (Engine.Codec); these tests reach them alike.

// gz returns the codec of r's engine.
func (r *Reader) gz() *gzipCodec { return r.eng.Codec().(*gzipCodec) }

// index returns the seek-point index built so far.
func (r *Reader) index() *gzindex.Index {
	c := r.gz()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index
}

// exportIndex writes the index, completed first, to w, as the archive's
// ExportIndex does.
func (r *Reader) exportIndex(w io.Writer) error {
	if err := r.eng.EnsureComplete(); err != nil {
		return err
	}
	ix, err := r.gz().SeekIndex()
	if err != nil {
		return err
	}
	_, err = ix.WriteTo(w)
	return err
}

// newReaderFromIndex is NewFromIndex behind a Reader.
func newReaderFromIndex(src filereader.FileReader, ix *gzindex.Index, cfg Config) (*Reader, error) {
	eng, err := NewFromIndex(src, ix, cfg)
	if err != nil {
		return nil, err
	}
	return &Reader{src: src, cfg: cfg, eng: eng}, nil
}

// seqReader gives a Reader, for these tests, the cursor the root
// package's archive keeps over the engine's ReadAt.
type seqReader struct {
	*Reader
	pos int64
}

func (r *seqReader) ReadAt(p []byte, off int64) (int, error) { return r.eng.ReadAt(p, off) }

func (r *seqReader) Read(p []byte) (int, error) {
	n, err := r.eng.ReadAt(p, r.pos)
	r.pos += int64(n)
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, err
}

func (r *seqReader) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += r.pos
	case io.SeekEnd:
		size, err := r.eng.TotalSize()
		if err != nil {
			return 0, err
		}
		off += size
	}
	r.pos = off
	return off, nil
}

func open(t testing.TB, comp []byte, cfg Config) *seqReader {
	t.Helper()
	r, err := NewReader(filereader.MemoryReader(comp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return &seqReader{Reader: r}
}

func readAll(t testing.TB, r *seqReader) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The cross-product matrix: data kinds x compressor structures, small
// chunk size to force many parallel chunks.
func compressorMatrix() map[string]gzipw.Options {
	return map[string]gzipw.Options{
		"gzip":        {Level: 6, BlockSize: 32 << 10},
		"gzip-small":  {Level: 9, BlockSize: 8 << 10},
		"pigz":        {Level: 6, BlockSize: 32 << 10, IndependentChunks: 64 << 10},
		"stored":      {Level: 0},
		"single":      {Level: 1, SingleBlock: true, Strategy: gzipw.DynamicOnly},
		"multimember": {Level: 6, BlockSize: 32 << 10, MemberSize: 100 << 10},
		"bgzf":        {Level: 6, BGZF: true},
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	datasets := map[string][]byte{
		"text":   mkText(1, 900_000),
		"base64": mkBase64(2, 900_000),
		"random": mkRandom(3, 500_000),
	}
	for dname, data := range datasets {
		for cname, opts := range compressorMatrix() {
			comp, _, err := gzipw.Compress(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				r := open(t, comp, Config{Parallelism: par, ChunkSize: 64 << 10, VerifyChecksums: true})
				got := readAll(t, r)
				if !bytes.Equal(got, data) {
					t.Fatalf("%s/%s P=%d: mismatch (%d vs %d bytes)", dname, cname, par, len(got), len(data))
				}
				if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
					t.Fatalf("%s/%s P=%d: CRC verification failed (%d failures)", dname, cname, par, fails)
				}
			}
		}
	}
}

func TestStdlibCompressedInput(t *testing.T) {
	// Files produced by an entirely independent compressor.
	data := mkText(4, 1_200_000)
	for _, level := range []int{1, 6, 9} {
		var buf bytes.Buffer
		w, _ := gzip.NewWriterLevel(&buf, level)
		w.Write(data)
		w.Close()
		r := open(t, buf.Bytes(), Config{Parallelism: 6, ChunkSize: 32 << 10, VerifyChecksums: true})
		if got := readAll(t, r); !bytes.Equal(got, data) {
			t.Fatalf("level %d: mismatch", level)
		}
		stats := r.eng.Stats()
		if stats.GuessTasks == 0 {
			t.Fatalf("level %d: no speculative decodes happened (chunking broken)", level)
		}
	}
}

func TestReadSmallPieces(t *testing.T) {
	data := mkText(5, 300_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, Config{Parallelism: 3, ChunkSize: 32 << 10})
	var got []byte
	buf := make([]byte, 777)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("piecewise read mismatch")
	}
}

func TestSeekAndRead(t *testing.T) {
	data := mkText(6, 600_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		off := rng.Intn(len(data) - 100)
		if _, err := r.Seek(int64(off), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !bytes.Equal(buf, data[off:off+100]) {
			t.Fatalf("offset %d: mismatch", off)
		}
	}
	// SeekEnd and SeekCurrent.
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil || end != int64(len(data)) {
		t.Fatalf("SeekEnd: %d, %v", end, err)
	}
	if _, err := r.Seek(-10, io.SeekCurrent); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(rest, data[len(data)-10:]) {
		t.Fatalf("tail read: %q %v", rest, err)
	}
}

func TestReadAtConcurrent(t *testing.T) {
	// §3: "fast concurrent access at two different offsets".
	data := mkText(8, 800_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			start := g * len(data) / 2
			buf := make([]byte, 1000)
			for off := start; off+len(buf) < start+len(data)/2; off += 50_000 {
				if _, err := r.ReadAt(buf, int64(off)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, data[off:off+len(buf)]) {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexExportImport(t *testing.T) {
	data := mkText(9, 700_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})

	r1 := open(t, comp, Config{Parallelism: 4, ChunkSize: 64 << 10})
	var ixBuf bytes.Buffer
	if err := r1.exportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}

	r2 := open(t, comp, Config{Parallelism: 4, ChunkSize: 64 << 10, VerifyChecksums: true})
	if err := r2.ImportIndex(bytes.NewReader(ixBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("decode with imported index mismatch")
	}
	stats := r2.eng.Stats()
	if stats.GuessTasks != 0 {
		t.Fatalf("index-primed decode ran %d speculative tasks", stats.GuessTasks)
	}
	if ok, _ := r2.gz().CRCStatus(); !ok {
		t.Fatal("CRC verification failed with index")
	}
	// Random access with imported index needs no initial pass.
	r3 := open(t, comp, Config{Parallelism: 2, ChunkSize: 64 << 10})
	if err := r3.ImportIndex(bytes.NewReader(ixBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 500)
	off := len(data) - 600
	if _, err := r3.ReadAt(buf, int64(off)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+500]) {
		t.Fatal("random access with index mismatch")
	}
}

func TestImportIndexWrongFile(t *testing.T) {
	data := mkText(10, 100_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r1 := open(t, comp, Config{Parallelism: 2})
	var ixBuf bytes.Buffer
	if err := r1.exportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}
	other, _, _ := gzipw.Compress(mkText(11, 50_000), gzipw.Options{Level: 6})
	r2 := open(t, other, Config{Parallelism: 2})
	if err := r2.ImportIndex(bytes.NewReader(ixBuf.Bytes())); err == nil {
		t.Fatal("index for a different file accepted")
	}
}

func TestImportIndexWrongFileSameSize(t *testing.T) {
	// Two different files of identical compressed length: the size
	// check alone cannot tell them apart, the source fingerprint must.
	data := mkText(10, 100_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r1 := open(t, comp, Config{Parallelism: 2})
	var ixBuf bytes.Buffer
	if err := r1.exportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}
	other := bytes.Clone(comp)
	other[100] ^= 0xFF // same length, different content
	r2 := open(t, other, Config{Parallelism: 2})
	err := r2.ImportIndex(bytes.NewReader(ixBuf.Bytes()))
	if err == nil {
		t.Fatal("index for a different file of identical size accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}
}

// TestImportRefusesFingerprintlessIndex: every writer records the source
// fingerprint, so an index without one predates them and is refused as
// an unsupported version, to be exported again.
func TestImportRefusesFingerprintlessIndex(t *testing.T) {
	data := mkText(10, 100_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r1 := open(t, comp, Config{Parallelism: 2})
	var ixBuf bytes.Buffer
	if err := r1.exportIndex(&ixBuf); err != nil {
		t.Fatal(err)
	}
	ix, err := gzindex.Read(bytes.NewReader(ixBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ix.SourceFP = nil
	var stripped bytes.Buffer
	if _, err := ix.WriteTo(&stripped); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, comp, Config{Parallelism: 2})
	if err := r2.ImportIndex(bytes.NewReader(stripped.Bytes())); !errors.Is(err, gzindex.ErrUnsupportedVersion) {
		t.Fatalf("fingerprint-less index: err = %v, want ErrUnsupportedVersion", err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("the refused import disturbed the reader")
	}
}

func TestBGZFFastPath(t *testing.T) {
	data := mkText(12, 600_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 128 << 10, VerifyChecksums: true})
	// The index must be complete before any read: BGZF needs no scan.
	if r.eng.Complete() != true {
		t.Fatal("BGZF file not recognised by the fast path")
	}
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("BGZF decode mismatch")
	}
	stats := r.eng.Stats()
	if stats.GuessTasks != 0 {
		t.Fatalf("BGZF path ran %d speculative tasks", stats.GuessTasks)
	}
	if ok, _ := r.gz().CRCStatus(); !ok {
		t.Fatal("BGZF CRC verification failed")
	}
}

// TestBGZFSpansFollowOutputSize: the metadata scan groups members by
// ChunkSize of output, as the generic path cuts its spans, not of
// compressed input — text that compresses fourfold used to come out as
// a quarter of the spans, too few to keep the workers busy. An index
// holds whatever grouping it was exported with and imports regardless:
// one exported at four times the chunk size stands in for one written
// under the old rule.
func TestBGZFSpansFollowOutputSize(t *testing.T) {
	const chunk = 128 << 10
	data := mkText(13, 5*chunk)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > len(data)/2 {
		t.Fatalf("corpus compresses to %d of %d bytes, too little to tell the two rules apart", len(comp), len(data))
	}
	r := open(t, comp, Config{Parallelism: 2, ChunkSize: chunk})
	// Members hold 64 KiB, so a span ends within one member of the mark;
	// the empty EOF member may add a span of its own.
	if n := r.eng.NumSpans(); n < 4 || n > 6 {
		t.Fatalf("%d bytes of output at ChunkSize %d scanned into %d spans, want about 5", len(data), chunk, n)
	}
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("decode mismatch")
	}

	old := exportIndex(t, comp, 4*chunk)
	r = open(t, comp, Config{Parallelism: 2, ChunkSize: chunk, SkipMetadataScan: true})
	if err := r.ImportIndex(bytes.NewReader(old)); err != nil {
		t.Fatalf("importing an index with coarser spans: %v", err)
	}
	if n := r.eng.NumSpans(); n > 3 {
		t.Fatalf("imported table has %d spans, want the exported two or three", n)
	}
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("decode through the imported index mismatch")
	}
}

func TestSingleBlockFileDegradesGracefully(t *testing.T) {
	// igzip -0 structure: one huge dynamic block; parallelization is
	// impossible (§4.8) but decoding must stay correct.
	const chunk = 32 << 10
	data := mkBase64(13, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 1, SingleBlock: true, Strategy: gzipw.DynamicOnly})
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: chunk})
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("single-block decode mismatch")
	}
	stats := r.eng.Stats()
	if stats.GuessNoBlock == 0 {
		t.Fatal("expected no-block speculative results for a single-block file")
	}
	// Seeks stay cheap all the same: the block is cut into entries of
	// about a chunk at points inside it, also behind the first entry,
	// where the decode of the rest of the block started inside it.
	ix := r.index()
	for i := 0; i < ix.Len(); i++ {
		end := ix.UncompressedSize
		if i+1 < ix.Len() {
			end = ix.Point(i + 1).UncompressedOffset
		}
		if size := end - ix.Point(i).UncompressedOffset; size > 2*chunk {
			t.Fatalf("entry %d of %d holds %d bytes, want about a chunk (%d)", i, ix.Len(), size, chunk)
		}
	}
}

func TestHighCompressionRatioFile(t *testing.T) {
	// Zeros compress ~1000x; speculative chunks hit the ratio guard and
	// the frontier decode must still handle the file (§1.4).
	data := make([]byte, 8<<20)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 9, BlockSize: 64 << 10})
	if len(comp) > 100_000 {
		t.Fatalf("zeros should compress tiny, got %d", len(comp))
	}
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 1 << 10})
	got := readAll(t, r)
	if !bytes.Equal(got, data) {
		t.Fatal("high-ratio decode mismatch")
	}
	// A 1 KiB cell of this file holds about 800 KiB of output, more than
	// guessedRatioLimit chunks, so a guess that starts at the first block
	// in its cell runs into the guard and the finder goes on searching.
	// (Without the guard each guess decodes from its first candidate.)
	if st := r.eng.Stats(); st.GuessTasks == 0 || st.FinderProbes <= st.GuessTasks {
		t.Fatalf("no speculative decode hit the ratio guard: %+v", st)
	}
}

func TestChunkSplitting(t *testing.T) {
	// A high-ratio file must yield index entries much smaller than the
	// raw decode units (§1.4 chunk splitting).
	data := bytes.Repeat(mkText(14, 1000), 3000) // ~3 MB, very repetitive
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 9, BlockSize: 8 << 10})
	r := open(t, comp, Config{Parallelism: 2, ChunkSize: 16 << 10})
	if err := r.eng.EnsureComplete(); err != nil {
		t.Fatal(err)
	}
	ix := r.index()
	if ix.Len() < 4 {
		t.Fatalf("expected split entries, got %d", ix.Len())
	}
	var maxSize uint64
	for i := 0; i+1 < ix.Len(); i++ {
		size := ix.Point(i+1).UncompressedOffset - ix.Point(i).UncompressedOffset
		if size > maxSize {
			maxSize = size
		}
	}
	if maxSize > uint64(16<<10)*8 {
		t.Fatalf("largest entry %d far exceeds chunk size", maxSize)
	}
	// Re-reading via the split index must be correct.
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("split-index read mismatch")
	}
}

func TestTruncatedFileErrors(t *testing.T) {
	data := mkText(15, 200_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	trunc := comp[:len(comp)/2]
	r := open(t, trunc, Config{Parallelism: 2, ChunkSize: 16 << 10})
	var buf bytes.Buffer
	_, err := r.WriteTo(&buf)
	if err == nil {
		t.Fatal("truncated file decoded without error")
	}
}

func TestCorruptMidFileErrors(t *testing.T) {
	data := mkText(16, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	comp[len(comp)/2] ^= 0xA5
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err == nil {
		// Corruption may land in a place that still decodes structurally;
		// then the checksum pass must catch it instead.
		r2 := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10, VerifyChecksums: true})
		var buf2 bytes.Buffer
		if _, err2 := r2.WriteTo(&buf2); err2 == nil {
			if ok, _ := r2.gz().CRCStatus(); ok && bytes.Equal(buf2.Bytes(), data) {
				t.Fatal("corruption silently ignored")
			}
		}
	}
}

func TestEmptyFile(t *testing.T) {
	comp, _, _ := gzipw.Compress(nil, gzipw.Options{Level: 6})
	r := open(t, comp, Config{Parallelism: 2})
	got := readAll(t, r)
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
	size, err := r.eng.TotalSize()
	if err != nil || size != 0 {
		t.Fatalf("size %d err %v", size, err)
	}
}

func TestNotGzipErrors(t *testing.T) {
	if _, err := NewReader(filereader.MemoryReader([]byte("not a gzip file")), Config{}); err == nil {
		t.Fatal("non-gzip input accepted")
	}
}

func TestSizeWithoutReading(t *testing.T) {
	data := mkText(17, 300_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	size, err := r.eng.TotalSize()
	if err != nil || size != int64(len(data)) {
		t.Fatalf("size %d err %v want %d", size, err, len(data))
	}
}

// stallingSource serves a file whose reads that reach past byte from,
// once armed, wait until release is closed.
type stallingSource struct {
	filereader.MemoryReader
	from    int64
	armed   atomic.Bool
	release chan struct{}
}

func (s *stallingSource) ReadAt(p []byte, off int64) (int, error) {
	if s.armed.Load() && off+int64(len(p)) > s.from {
		<-s.release
	}
	return s.MemoryReader.ReadAt(p, off)
}

// TestCloseSkipsQueuedGuesses: a guess still queued when the reader closes
// does not run. The one worker is held inside the guess at the second cell,
// whose read runs past it, while the guesses behind it queue; Close then
// has to wait for that one, and for no other, to probe for a block start.
func TestCloseSkipsQueuedGuesses(t *testing.T) {
	const chunk = 64 << 10
	data := mkBase64(41, 16*chunk)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	src := &stallingSource{MemoryReader: comp, from: 2 * chunk, release: make(chan struct{})}
	r, err := NewReader(src, Config{Parallelism: 1, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	src.armed.Store(true)
	// The first unit decodes on this goroutine, inside the first two cells.
	buf := make([]byte, 100)
	if _, err := r.eng.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, data[:100]) {
		t.Fatalf("first read: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	for {
		if _, err := r.eng.ReadAt(buf, 0); errors.Is(err, spanengine.ErrClosed) {
			break
		}
		runtime.Gosched()
	}
	close(src.release)
	<-closed
	if st := r.eng.Stats(); st.GuessTasks < 2 || st.FinderProbes >= st.GuessTasks {
		t.Fatalf("guesses queued at Close ran: %+v", st)
	}
}

// TestFrontierJoinsQueuedGuess: a guess no worker has started does not
// hold the frontier up. The one worker is kept busy until the test ends,
// so every guess queues behind it; a read across the cells they were
// issued for still returns, the frontier having run each guess it took
// on its own goroutine: no false start, and no on-demand decode past the
// first two cells, which are never guessed.
func TestFrontierJoinsQueuedGuess(t *testing.T) {
	const chunk = 64 << 10
	data := mkBase64(42, 16*chunk)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, Config{Parallelism: 1, ChunkSize: chunk})
	release := make(chan struct{})
	defer close(release)
	r.eng.Prime(1<<30, func() ([]byte, error) { <-release; return nil, nil })
	buf := make([]byte, 5*chunk) // about four cells: two on demand, two guessed at P=1
	done := make(chan error, 1)
	go func() {
		_, err := r.eng.ReadAt(buf, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil || !bytes.Equal(buf, data[:len(buf)]) {
			t.Fatalf("read: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the frontier is waiting for a guess queued behind a busy worker")
	}
	if st := r.eng.Stats(); st.GuessTasks < 3 || st.GuessFalseStarts != 0 || st.OnDemandDecodes != 2 {
		t.Fatalf("guesses the frontier ran were not taken: %+v", st)
	}
}

func TestPrefetchStrategies(t *testing.T) {
	data := mkText(18, 500_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestSerialBaselineAgreement(t *testing.T) {
	// The parallel reader and the plain serial decoder must agree.
	data := mkText(19, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	serial, err := deflate.DecompressGzip(comp)
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	if got := readAll(t, r); !bytes.Equal(got, serial) {
		t.Fatal("parallel disagrees with serial")
	}
}
