package spanengine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/filereader"
	"repro/internal/prefetch"
)

// fakeCodec splits src into fixed-size spans; DecodeSpan "decodes" by
// reading the span extent. decodes counts DecodeSpan calls; unsized
// makes the scan leave every size to the first decode (bzip2-style).
type fakeCodec struct {
	spanSize    int64
	unsized     bool
	decodes     atomic.Uint64
	decodeDelay chan struct{} // when non-nil, DecodeSpan blocks until it can receive
}

func (c *fakeCodec) FormatTag() string { return "fake" }

func (c *fakeCodec) Scan(src filereader.FileReader) (ScanResult, error) {
	var res ScanResult
	for off := int64(0); off < src.Size(); off += c.spanSize {
		end := min(off+c.spanSize, src.Size())
		s := Span{CompOff: off, CompEnd: end, DecompOff: off, DecompSize: end - off}
		if c.unsized {
			s.DecompOff, s.DecompSize = 0, -1
		}
		res.Spans = append(res.Spans, s)
	}
	res.Flags = 0x5A
	return res, nil
}

func (c *fakeCodec) DecodeSpan(src filereader.FileReader, s Span) ([]byte, error) {
	if c.decodeDelay != nil {
		<-c.decodeDelay
	}
	c.decodes.Add(1)
	data, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	return bytes.Clone(data), nil
}

func testSrc(n int) []byte {
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i*31 + i>>8)
	}
	return src
}

func TestReadAtMatchesSource(t *testing.T) {
	src := testSrc(10_000)
	codec := &fakeCodec{spanSize: 512}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Size() != int64(len(src)) {
		t.Fatalf("Size = %d, want %d", e.Size(), len(src))
	}
	if e.NumSpans() != 20 {
		t.Fatalf("NumSpans = %d, want 20", e.NumSpans())
	}
	if e.Flags() != 0x5A {
		t.Fatalf("Flags = %#x, want 0x5A", e.Flags())
	}
	for _, off := range []int64{0, 1, 511, 512, 777, 9_999} {
		buf := make([]byte, 700)
		n, err := e.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf[:n], src[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d): content mismatch", off)
		}
	}
}

func TestSequentialReadPrefetches(t *testing.T) {
	src := testSrc(64 << 10)
	codec := &fakeCodec{spanSize: 1 << 10}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var out bytes.Buffer
	buf := make([]byte, 2048)
	var off int64
	for off < e.Size() {
		n, err := e.ReadAt(buf, off)
		if n > 0 {
			out.Write(buf[:n])
			off += int64(n)
		}
		if err != nil {
			break
		}
	}
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatal("sequential read mismatch")
	}
	s := e.Stats()
	if s.PrefetchIssued == 0 {
		t.Fatal("sequential consumption issued no prefetches")
	}
	if s.SizingPasses != 1 {
		t.Fatalf("SizingPasses = %d, want 1", s.SizingPasses)
	}
}

func TestCheckpointRoundTripSkipsSizing(t *testing.T) {
	src := testSrc(32 << 10)
	codec := &fakeCodec{spanSize: 1 << 10, unsized: true}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The scan left every size open: nothing is decoded, or read, until
	// somebody asks, and one pass over the file decodes it once.
	if s := e.Stats(); s.SizingPasses != 1 || s.DecodedBytes != 0 || s.SourceBytesRead != 0 || e.Complete() {
		t.Fatalf("a cold scan decoded or read: %+v", s)
	}
	if _, err := e.WriteTo(io.Discard, 0); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.DecodedBytes != uint64(len(src)) || e.Size() != int64(len(src)) {
		t.Fatalf("one pass decoded %d bytes of %d: %+v", s.DecodedBytes, len(src), s)
	}
	var spans []Span
	for _, c := range e.CheckpointTable().Spans {
		spans = append(spans, Span(c))
	}
	flags := e.Flags()
	e.Close()

	codec2 := &fakeCodec{spanSize: 1 << 10, unsized: true}
	e2, err := NewFromCheckpoints(filereader.MemoryReader(src), codec2, spans, flags, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if s := e2.Stats(); s.SizingPasses != 0 || s.DecodedBytes != 0 {
		t.Fatalf("checkpoint import ran a sizing pass: %+v", s)
	}
	if e2.Flags() != flags {
		t.Fatalf("Flags = %#x, want %#x", e2.Flags(), flags)
	}
	buf := make([]byte, 4096)
	if _, err := e2.ReadAt(buf, 10_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, src[10_000:10_000+4096]) {
		t.Fatal("content mismatch through imported checkpoints")
	}
}

func TestCheckpointValidation(t *testing.T) {
	src := testSrc(4096)
	codec := &fakeCodec{spanSize: 1024}
	good := []Span{
		{CompOff: 0, CompEnd: 2048, DecompOff: 0, DecompSize: 2048},
		{CompOff: 2048, CompEnd: 4096, DecompOff: 2048, DecompSize: 2048},
	}
	cases := map[string][]Span{
		"empty":           {},
		"out-of-bounds":   {{CompOff: 0, CompEnd: 9999, DecompOff: 0, DecompSize: 1}},
		"negative":        {{CompOff: -1, CompEnd: 10, DecompOff: 0, DecompSize: 1}},
		"inverted":        {{CompOff: 10, CompEnd: 10, DecompOff: 0, DecompSize: 1}},
		"overlap":         {good[0], {CompOff: 1000, CompEnd: 4096, DecompOff: 2048, DecompSize: 1}},
		"decomp-gap":      {good[0], {CompOff: 2048, CompEnd: 4096, DecompOff: 3000, DecompSize: 1}},
		"negative-decomp": {{CompOff: 0, CompEnd: 10, DecompOff: 0, DecompSize: -1}},
		"decomp-not-at-0": {{CompOff: 0, CompEnd: 10, DecompOff: 5, DecompSize: 1}},
	}
	for name, spans := range cases {
		if _, err := NewFromCheckpoints(filereader.MemoryReader(src), codec, spans, 0, Config{}); err == nil {
			t.Errorf("%s: invalid checkpoint table accepted", name)
		}
	}
	e, err := NewFromCheckpoints(filereader.MemoryReader(src), codec, good, 0, Config{})
	if err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	e.Close()
	// Two spans that start in one byte: the first one's extent is empty,
	// which only a codec that addresses bits may have.
	touching := []Span{{CompOff: 0, CompEnd: 0, DecompOff: 0, DecompSize: 1024}, {CompOff: 0, CompEnd: 4096, DecompOff: 1024, DecompSize: 3072}}
	if _, err := NewFromCheckpoints(filereader.MemoryReader(src), codec, touching, 0, Config{}); err == nil {
		t.Error("an empty extent accepted from a byte-addressed codec")
	}
	e, err = NewFromCheckpoints(filereader.MemoryReader(src), bitCodec{codec}, touching, 0, Config{})
	if err != nil {
		t.Fatalf("an empty extent refused from a bit-addressed codec: %v", err)
	}
	e.Close()
}

// bitCodec is a fakeCodec that says it addresses bits.
type bitCodec struct{ *fakeCodec }

func (bitCodec) BitAddressed() {}

func TestConcurrentReadAt(t *testing.T) {
	src := testSrc(128 << 10)
	codec := &fakeCodec{spanSize: 4 << 10}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 4, cacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 3000)
			for i := 0; i < 50; i++ {
				off := int64((g*977 + i*31337) % (len(src) - len(buf)))
				n, err := e.ReadAt(buf, off)
				if err != nil || n != len(buf) {
					t.Errorf("ReadAt(%d): n=%d err=%v", off, n, err)
					return
				}
				if !bytes.Equal(buf, src[off:off+int64(n)]) {
					t.Errorf("ReadAt(%d): mismatch", off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEvictionPressureMidPrefetch forces the span cache over capacity
// while prefetched decodes are still landing: a cache of 2 spans under
// a prefetch depth of 8 must keep evicting mid-flight without losing
// correctness or wedging the engine.
func TestEvictionPressureMidPrefetch(t *testing.T) {
	src := testSrc(256 << 10)
	codec := &fakeCodec{spanSize: 2 << 10} // 128 spans
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 4, cacheSize: 2, maxPrefetch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Sequential consumption ramps the adaptive prefetcher to full
	// depth; every landing prefetch then fights for the two cache slots.
	buf := make([]byte, 1500)
	var off int64
	for off < e.Size() {
		n, err := e.ReadAt(buf, off)
		if n > 0 {
			if !bytes.Equal(buf[:n], src[off:off+int64(n)]) {
				t.Fatalf("mismatch at %d", off)
			}
			off += int64(n)
		}
		if err != nil {
			break
		}
	}
	if off != e.Size() {
		t.Fatalf("consumed %d of %d bytes", off, e.Size())
	}
	s := e.Stats()
	if s.SpanCacheEvictions == 0 {
		t.Fatalf("no evictions under a 2-span cache with prefetch depth 8: %+v", s)
	}
	if s.PrefetchIssued == 0 {
		t.Fatalf("no prefetches issued: %+v", s)
	}
}

// TestPrefetchJoin pins the join path: an access finding its span in
// flight must wait for the worker instead of decoding a second time.
func TestPrefetchJoin(t *testing.T) {
	src := testSrc(64 << 10)
	delay := make(chan struct{})
	codec := &fakeCodec{spanSize: 4 << 10, decodeDelay: delay}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2, strategy: prefetch.NewFixed(), maxPrefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Unblock decodes as they come; buffered enough for the whole test.
	go func() {
		for i := 0; i < 1000; i++ {
			delay <- struct{}{}
		}
	}()
	buf := make([]byte, 4<<10)
	for i := 0; i < e.NumSpans(); i++ {
		off := int64(i) * (4 << 10)
		if _, err := e.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
	}
	s := e.Stats()
	if s.PrefetchJoined == 0 {
		t.Fatalf("sequential consumption under a fixed strategy never joined a prefetch: %+v", s)
	}
	// Every span decodes at most once along the sequential walk: joins
	// and cache hits must cover what prefetching started.
	if got := codec.decodes.Load(); got > uint64(e.NumSpans())+2 {
		t.Fatalf("%d decodes for %d spans: joins are not deduplicating work", got, e.NumSpans())
	}
}

func TestClosedEngineFails(t *testing.T) {
	src := testSrc(4096)
	codec := &fakeCodec{spanSize: 1024}
	e, err := New(filereader.MemoryReader(src), codec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.ReadAt(make([]byte, 10), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after Close: err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSizeMismatchSurfaces(t *testing.T) {
	src := testSrc(4096)
	codec := &fakeCodec{spanSize: 1024}
	spans := []Span{{CompOff: 0, CompEnd: 1024, DecompOff: 0, DecompSize: 999}} // lies about size
	e, err := NewFromCheckpoints(filereader.MemoryReader(src), codec, spans, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := spanBytes(e, 0); err == nil {
		t.Fatal("size-lying checkpoint table decoded without error")
	}
}

// TestReadAtOutOfRange: a read before the stream fails, one at or past
// its end reads nothing and says io.EOF.
func TestReadAtOutOfRange(t *testing.T) {
	src := testSrc(4096)
	e, err := New(filereader.MemoryReader(src), &fakeCodec{spanSize: 1024}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	buf := make([]byte, 10)
	if n, err := e.ReadAt(buf, -1); n != 0 || err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(-1) = %d, %v", n, err)
	}
	for _, off := range []int64{4096, 100_000} {
		if n, err := e.ReadAt(buf, off); n != 0 || err != io.EOF {
			t.Fatalf("ReadAt(%d) = %d, %v, want 0, io.EOF", off, n, err)
		}
	}
}

// spanBytes reads span i of the table, and nothing else, through ReadAt.
func spanBytes(e *Engine, i int) ([]byte, error) {
	s := e.CheckpointTable().Spans[i]
	buf := make([]byte, s.DecompSize)
	n, err := e.ReadAt(buf, s.DecompOff)
	return buf[:n], err
}

func BenchmarkReadAtSequential(b *testing.B) {
	src := testSrc(1 << 20)
	codec := &fakeCodec{spanSize: 32 << 10}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var off int64
		for off < e.Size() {
			n, err := e.ReadAt(buf, off)
			if n > 0 {
				off += int64(n)
			}
			if err != nil {
				break
			}
		}
	}
}

// TestFileBackedEngineMatchesMemory drives the same codec over the same
// bytes through both backings — a resident buffer and a real temp file —
// and demands identical content plus truthful source-traffic counters:
// the file-backed engine reads spans by positional extent, never the
// whole file at once.
func TestFileBackedEngineMatchesMemory(t *testing.T) {
	src := testSrc(96 << 10)
	path := filepath.Join(t.TempDir(), "spans.bin")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := filereader.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	em, err := New(filereader.MemoryReader(src), &fakeCodec{spanSize: 4 << 10}, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	ef, err := New(f, &fakeCodec{spanSize: 4 << 10}, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()

	if em.Size() != ef.Size() || em.NumSpans() != ef.NumSpans() {
		t.Fatalf("backings disagree: mem %d/%d file %d/%d",
			em.Size(), em.NumSpans(), ef.Size(), ef.NumSpans())
	}
	for _, off := range []int64{0, 1, 4095, 4096, 50_000, em.Size() - 100} {
		bm := make([]byte, 5000)
		bf := make([]byte, 5000)
		nm, errm := em.ReadAt(bm, off)
		nf, errf := ef.ReadAt(bf, off)
		if nm != nf || !bytes.Equal(bm[:nm], bf[:nf]) {
			t.Fatalf("ReadAt(%d): mem %d bytes (err %v), file %d bytes (err %v)", off, nm, errm, nf, errf)
		}
		if !bytes.Equal(bf[:nf], src[off:off+int64(nf)]) {
			t.Fatalf("ReadAt(%d): file-backed content mismatch", off)
		}
	}
	s := ef.Stats()
	if s.SourceReads == 0 || s.SourceBytesRead == 0 {
		t.Fatalf("file-backed engine reported no source traffic: %+v", s)
	}
	if s.SourceBytesRead%(4<<10) != 0 {
		t.Fatalf("file-backed engine read %d bytes; want a multiple of the 4 KiB span extent (extent preads only)", s.SourceBytesRead)
	}
}
