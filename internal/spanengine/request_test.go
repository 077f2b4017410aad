package spanengine

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/filereader"
	"repro/internal/prefetch"
)

// gateCodec is a fakeCodec whose decodes announce themselves on started
// and then wait for gate to be closed, so a test can see which decodes
// run at the same time without measuring any.
type gateCodec struct {
	fakeCodec
	started chan int64 // receives the CompOff of every decode that begins
	gate    chan struct{}
}

func newGateCodec(spanSize int64) *gateCodec {
	return &gateCodec{
		fakeCodec: fakeCodec{spanSize: spanSize},
		started:   make(chan int64, 64), // more than any test here decodes
		gate:      make(chan struct{}),
	}
}

func (c *gateCodec) DecodeSpan(src filereader.FileReader, s Span) ([]byte, error) {
	c.started <- s.CompOff
	<-c.gate
	return c.fakeCodec.DecodeSpan(src, s)
}

// awaitStarted receives n decode announcements or fails the test.
func (c *gateCodec) awaitStarted(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d decodes began while the others were held", i, n)
		}
	}
}

// until spins until cond holds; the test's own timeout is the bound.
func until(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// TestReadAcrossSpansOverlapsDecodes: the missing spans of one request
// decode side by side, the first on the caller and the others on the
// pool. Every decode is held until all three have begun, which a serial
// fetch never gets to.
func TestReadAcrossSpansOverlapsDecodes(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newGateCodec(1 << 10)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	buf := make([]byte, 2<<10+100) // spans 5, 6 and 7
	off := int64(5<<10 + 500)
	done := make(chan error, 1)
	go func() {
		_, err := e.ReadAt(buf, off)
		done <- err
	}()
	codec.awaitStarted(t, 3)
	close(codec.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, src[off:off+int64(len(buf))]) {
		t.Fatal("content mismatch")
	}
	s := e.Stats()
	if s.SpanDecodes != 3 || s.PrefetchIssued != 0 || s.PrefetchProposed != 0 {
		t.Fatalf("one read across three spans after a jump: %+v", s)
	}
}

// TestConcurrentMissesDecodeOnce: readers that miss the same cold span
// at the same time share one decode.
func TestConcurrentMissesDecodeOnce(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newGateCodec(1 << 10)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 100)
			if _, err := e.ReadAt(buf, 9<<10+int64(g)); err != nil {
				t.Error(err)
			} else if !bytes.Equal(buf, src[9<<10+g:9<<10+g+100]) {
				t.Error("content mismatch")
			}
		}()
	}
	// The decode is held until every other reader has joined it.
	until(func() bool { return e.Stats().DemandJoined == readers-1 })
	close(codec.gate)
	wg.Wait()
	if got := codec.decodes.Load(); got != 1 {
		t.Fatalf("%d readers of one cold span ran %d decodes", readers, got)
	}
	if s := e.Stats(); s.SpanDecodes != 1 || s.PrefetchJoined != 0 {
		t.Fatalf("%+v", s)
	}
}

// TestCloseSkipsQueuedPrefetches: what Close finds queued is not
// decoded for nobody. A read under the fixed strategy queues eight
// prefetches behind one worker; the engine is closed while the
// caller's decode and the worker's first are held.
func TestCloseSkipsQueuedPrefetches(t *testing.T) {
	src := testSrc(32 << 10)
	codec := newGateCodec(1 << 10)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, strategy: prefetch.NewFixed(), maxPrefetch: 8, cacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := e.ReadAt(make([]byte, 100), 5<<10)
		read <- err
	}()
	codec.awaitStarted(t, 2)
	if s := e.Stats(); s.PrefetchIssued != 8 {
		t.Fatalf("PrefetchIssued = %d, want 8", s.PrefetchIssued)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	until(func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.closed
	})
	close(codec.gate)
	<-closed
	if err := <-read; err != nil {
		t.Fatalf("the read that was decoding when Close came: %v", err)
	}
	if got := codec.decodes.Load(); got != 2 {
		t.Fatalf("%d decodes, want the 2 that were running when Close came", got)
	}
	// The one prefetch that did decode was for nobody.
	if s := e.Stats(); s.PrefetchUnused != 1 {
		t.Fatalf("PrefetchUnused = %d, want 1: %+v", s.PrefetchUnused, s)
	}
}

// TestAlternatingCursorsDecodeOnce: one goroutine taking turns on two
// sequential cursors is two streams, each prefetched for, and no span
// is decoded twice.
func TestAlternatingCursorsDecodeOnce(t *testing.T) {
	src := testSrc(64 << 10)
	codec := &fakeCodec{spanSize: 1 << 10}
	// The cache holds the file, so the spans a cursor's prefetch reaches
	// past its own half are still there from the other cursor.
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2, cacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	half := int64(len(src) / 2)
	buf := make([]byte, 256)
	for pos := int64(0); pos < half; pos += int64(len(buf)) {
		for _, off := range []int64{pos, half + pos} {
			if _, err := e.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, src[off:off+int64(len(buf))]) {
				t.Fatalf("mismatch at %d", off)
			}
		}
	}
	s := e.Stats()
	if got := codec.decodes.Load(); got != 64 || s.SpanDecodes != 64 {
		t.Fatalf("%d decodes (SpanDecodes %d) for 64 spans", got, s.SpanDecodes)
	}
	if s.PrefetchIssued == 0 || s.PrefetchUnused != 0 {
		t.Fatalf("two sequential cursors: %+v", s)
	}
}

// TestRandomReadsDecodeWhatTheyTouch: uniform reads are jumps, and a
// jump costs the spans it covers and nothing else.
func TestRandomReadsDecodeWhatTheyTouch(t *testing.T) {
	src := testSrc(40 << 10)
	codec := &fakeCodec{spanSize: 1 << 10}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rnd := rand.New(rand.NewSource(1))
	buf := make([]byte, 256)
	const reads = 500
	touched := 0
	for i := 0; i < reads; i++ {
		off := rnd.Int63n(int64(len(src) - len(buf)))
		if _, err := e.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		touched += int((off+int64(len(buf))-1)>>10-off>>10) + 1
	}
	s := e.Stats()
	t.Logf("%d reads touched %d spans: %d decodes, %d prefetches proposed, %d issued, %d unused", reads, touched, s.SpanDecodes, s.PrefetchProposed, s.PrefetchIssued, s.PrefetchUnused)
	if s.SpanDecodes > uint64(touched) || s.PrefetchIssued > reads/10 {
		t.Fatalf("%d reads touching %d spans: %+v", reads, touched, s)
	}
}

// TestPrefetchUnusedCounts: a prefetched span counts as unused when it
// leaves the cache unread — evicted or dropped at Close — and not once
// a reader got it, from the cache or by joining the decode. Both stores
// keep the count.
func TestPrefetchUnusedCounts(t *testing.T) {
	src := testSrc(32 << 10)
	for name, pool := range map[string]*CachePool{"local": nil, "pool": NewCachePool(8 << 10)} {
		codec := &fakeCodec{spanSize: 1 << 10}
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, strategy: prefetch.NewFixed(), maxPrefetch: 4, cacheSize: 8, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		read := func(span int) {
			t.Helper()
			if _, err := e.ReadAt(make([]byte, 10), int64(span)<<10); err != nil {
				t.Fatal(err)
			}
			// Let the prefetches land, so that what is cached is known.
			until(func() bool {
				s := e.Stats()
				return s.SpanDecodes == s.PrefetchIssued+s.SpanCacheMisses-s.PrefetchJoined
			})
		}
		read(2) // prefetches 3..6
		read(3) // read from the cache; prefetches 7
		read(2) // proposes 3..6 again, which keeps them; 7 is the least recently used
		if s := e.Stats(); s.PrefetchIssued != 5 || s.PrefetchUnused != 0 {
			t.Fatalf("%s: after three reads: %+v", name, s)
		}
		read(20) // 20..24 push 7, unread, then 2 and 3 out of the eight slots
		if s := e.Stats(); s.PrefetchIssued != 9 || s.PrefetchUnused != 1 {
			t.Fatalf("%s: after the evictions: %+v", name, s)
		}
		e.Close() // 4, 5, 6 and 21..24 go unread
		if s := e.Stats(); s.PrefetchUnused != 8 {
			t.Fatalf("%s: after Close: PrefetchUnused = %d, want 8: %+v", name, s.PrefetchUnused, s)
		}
	}
}
