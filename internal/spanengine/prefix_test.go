package spanengine

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filereader"
)

// prefixCodec is a fakeCodec that can stop short of a span's end and
// continue: it "decodes" by copying the span's extent, as far as asked.
// Every call is recorded, so a test can see that the calls for a span
// form one chain — each starting where the one before it stopped — and
// that nothing was decoded twice. With a gate, each call announces
// itself on started and waits for one token.
type prefixCodec struct {
	fakeCodec
	started    chan int64    // receives the upTo of every call that begins
	gate       chan struct{} // nil: calls run freely
	failResume atomic.Bool   // makes every continuing call fail

	mu       sync.Mutex
	calls    map[int64][][2]int64 // by span CompOff: [from, to) of each call
	accessed map[int][]int        // SpanAccessed: span index -> len(data) of each report
}

// fakeParked is the output so far, in a buffer of the span's size.
type fakeParked struct{ buf []byte }

var errResume = errors.New("prefixCodec: resume failed")

func newPrefixCodec(spanSize int64, gated bool) *prefixCodec {
	c := &prefixCodec{
		fakeCodec: fakeCodec{spanSize: spanSize},
		started:   make(chan int64, 64), // more than any test here decodes at once
		calls:     map[int64][][2]int64{},
		accessed:  map[int][]int{},
	}
	if gated {
		c.gate = make(chan struct{}, 64)
	}
	return c
}

func (c *prefixCodec) DecodeSpanPrefix(src filereader.FileReader, s Span, parked any, upTo int64) ([]byte, any, error) {
	if c.gate != nil {
		c.started <- upTo
		<-c.gate
	}
	p, _ := parked.(*fakeParked)
	if p == nil {
		p = &fakeParked{buf: make([]byte, 0, s.DecompSize)}
	} else if c.failResume.Load() {
		return nil, nil, errResume
	}
	have := int64(len(p.buf))
	ext, release, err := filereader.Extent(src, s.CompOff+have, s.CompOff+upTo)
	if err != nil {
		return nil, nil, err
	}
	p.buf = append(p.buf, ext...)
	release()
	c.decodes.Add(1)
	c.mu.Lock()
	c.calls[s.CompOff] = append(c.calls[s.CompOff], [2]int64{have, upTo})
	c.mu.Unlock()
	if upTo == s.DecompSize {
		return p.buf, nil, nil
	}
	return p.buf, p, nil
}

func (c *prefixCodec) SpanAccessed(i int, data []byte) {
	c.mu.Lock()
	c.accessed[i] = append(c.accessed[i], len(data))
	c.mu.Unlock()
}

// requireChain fails unless the calls for the span at off were one
// chain from 0 to end: no byte decoded twice, none skipped.
func (c *prefixCodec) requireChain(t *testing.T, off, end int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	at := int64(0)
	for _, call := range c.calls[off] {
		if call[0] != at {
			t.Fatalf("span at %d: decode calls %v are not one chain", off, c.calls[off])
		}
		at = call[1]
	}
	if at != end {
		t.Fatalf("span at %d: decode calls %v end at %d, want %d", off, c.calls[off], at, end)
	}
}

func (c *prefixCodec) await(t *testing.T) int64 {
	t.Helper()
	select {
	case upTo := <-c.started:
		return upTo
	case <-time.After(10 * time.Second):
		t.Fatal("no decode began")
		return 0
	}
}

func readAndCheck(t *testing.T, e *Engine, src []byte, off, n int64) {
	t.Helper()
	buf := make([]byte, n)
	if _, err := e.ReadAt(buf, off); err != nil {
		t.Errorf("ReadAt(%d bytes at %d): %v", n, off, err)
	} else if !bytes.Equal(buf, src[off:off+n]) {
		t.Errorf("ReadAt(%d bytes at %d): wrong bytes", n, off)
	}
}

// TestReadDecodesAsFarAsItReaches: a read of a cold span decodes from
// the seek point to the read's last byte; reads inside that prefix are
// hits, a read beyond it continues the parked decode, and the observer
// hears of the span once it is whole, not before.
func TestReadDecodesAsFarAsItReaches(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newPrefixCodec(4<<10, false)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	span := int64(4 << 10)
	readAndCheck(t, e, src, span+1000, 100)
	if s := e.Stats(); s.SpanDecodes != 1 || s.SpanResumes != 0 || s.DecodedBytes != 1100 || s.SpanCacheMisses != 1 {
		t.Fatalf("after the first read: %+v", s)
	}
	readAndCheck(t, e, src, span+10, 1090)
	if s := e.Stats(); s.DecodedBytes != 1100 || s.SpanCacheHits != 1 {
		t.Fatalf("a read inside the prefix: %+v", s)
	}
	readAndCheck(t, e, src, span+2000, 500)
	if s := e.Stats(); s.SpanDecodes != 1 || s.SpanResumes != 1 || s.DecodedBytes != 2500 || s.SpanCacheMisses != 2 {
		t.Fatalf("a read past the prefix: %+v", s)
	}
	if len(codec.accessed) != 0 {
		t.Fatalf("SpanAccessed for a span decoded in part: %v", codec.accessed)
	}
	readAndCheck(t, e, src, 2*span-10, 20) // the last bytes of the span and the first of the next
	codec.requireChain(t, span, span)
	codec.requireChain(t, 2*span, 10)
	if got := codec.accessed[1]; len(got) != 1 || got[0] != int(span) || len(codec.accessed) != 1 {
		t.Fatalf("SpanAccessed after the span was completed: %v", codec.accessed)
	}
	if s := e.Stats(); s.SpanDecodes != 2 || s.SpanResumes != 2 || s.DecodedBytes != uint64(span)+10 {
		t.Fatalf("at the end: %+v", s)
	}
}

// TestJoinerNeedingMoreClaimsAgain: a reader that joins a decode bound
// for an earlier offset than its own gets what that decode produces and
// claims again for the rest, which continues the same decode.
func TestJoinerNeedingMoreClaimsAgain(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newPrefixCodec(4<<10, true)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); readAndCheck(t, e, src, 8<<10, 100) }()
	if upTo := codec.await(t); upTo != 100 {
		t.Fatalf("first decode bound for %d", upTo)
	}
	go func() { defer wg.Done(); readAndCheck(t, e, src, 8<<10+3000, 600) }()
	until(func() bool { return e.Stats().DemandJoined == 1 })
	codec.gate <- struct{}{}
	// The joiner got 100 bytes of the 3600 it needs: it starts the resume.
	if upTo := codec.await(t); upTo != 3600 {
		t.Fatalf("second decode bound for %d, want 3600", upTo)
	}
	codec.gate <- struct{}{}
	wg.Wait()
	codec.requireChain(t, 8<<10, 3600)
	if s := e.Stats(); s.SpanDecodes != 1 || s.SpanResumes != 1 || s.DecodedBytes != 3600 {
		t.Fatalf("%+v", s)
	}
}

// TestReadersOfOneColdSpanShareOneChain: readers at different offsets
// of one cold span, arriving together, are served by one chain of
// decodes from the seek point to the furthest of them.
func TestReadersOfOneColdSpanShareOneChain(t *testing.T) {
	src := testSrc(64 << 10)
	codec := newPrefixCodec(32<<10, false)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	offs := []int64{20000, 300, 9000, 31000, 15000, 2, 27000, 9100}
	var wg sync.WaitGroup
	for _, off := range offs {
		wg.Add(1)
		go func() { defer wg.Done(); readAndCheck(t, e, src, 32<<10+off, 500) }()
	}
	wg.Wait()
	codec.requireChain(t, 32<<10, 31500)
	if s := e.Stats(); s.SpanDecodes != 1 || s.DecodedBytes != 31500 {
		t.Fatalf("%+v", s)
	}
}

// TestEvictedPrefixStartsOver: a prefix pushed out of the cache takes
// its parked decode with it; the next read of the span starts at the
// seek point.
func TestEvictedPrefixStartsOver(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newPrefixCodec(1<<10, false)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	readAndCheck(t, e, src, 3<<10, 100)
	readAndCheck(t, e, src, 9<<10, 100)
	readAndCheck(t, e, src, 12<<10, 100) // pushes span 3 out
	readAndCheck(t, e, src, 3<<10+500, 100)
	codec.mu.Lock()
	calls := codec.calls[3<<10]
	codec.mu.Unlock()
	if len(calls) != 2 || calls[0] != [2]int64{0, 100} || calls[1] != [2]int64{0, 600} {
		t.Fatalf("decode calls for the evicted span: %v", calls)
	}
	if s := e.Stats(); s.SpanDecodes != 4 || s.SpanResumes != 0 || s.SpanCacheEvictions != 2 || s.DecodedBytes != 900 {
		t.Fatalf("%+v", s)
	}
}

// TestFailedResumeDropsPrefix: a continuing decode that fails reports
// the error to its reader and leaves nothing behind; the next read
// starts over.
func TestFailedResumeDropsPrefix(t *testing.T) {
	src := testSrc(16 << 10)
	for name, pool := range map[string]*CachePool{"local": nil, "pool": NewCachePool(64 << 10)} {
		codec := newPrefixCodec(4<<10, false)
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		readAndCheck(t, e, src, 4<<10, 100)
		codec.failResume.Store(true)
		if _, err := e.ReadAt(make([]byte, 100), 4<<10+1000); !errors.Is(err, errResume) {
			t.Fatalf("%s: read that had to resume: %v", name, err)
		}
		e.mu.Lock()
		left := e.cache.Peek(1)
		e.mu.Unlock()
		if left != nil {
			t.Fatalf("%s: the prefix survived its failed resume", name)
		}
		if pool != nil && pool.Stats().UsedBytes != 0 {
			t.Fatalf("%s: %d bytes still charged", name, pool.Stats().UsedBytes)
		}
		readAndCheck(t, e, src, 4<<10+1000, 100)
		if s := e.Stats(); s.SpanDecodes != 2 || s.SpanResumes != 0 || s.DecodedBytes != 1200 {
			t.Fatalf("%s: %+v", name, s)
		}
		e.Close()
	}
}

// TestCloseDropsParkedState: Close with prefixes cached, and with a
// resume in flight, lets go of every parked decode and of the bytes
// charged for them.
func TestCloseDropsParkedState(t *testing.T) {
	src := testSrc(16 << 10)
	for name, pool := range map[string]*CachePool{"local": nil, "pool": NewCachePool(64 << 10)} {
		codec := newPrefixCodec(4<<10, true)
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		codec.gate <- struct{}{}
		codec.gate <- struct{}{}
		readAndCheck(t, e, src, 8<<10, 100) // then backwards: no stream, nothing prefetched
		readAndCheck(t, e, src, 0, 100)
		if pool != nil && pool.Stats().UsedBytes != 8<<10 {
			// A prefix is charged the buffer its decode continues in.
			t.Fatalf("%s: two prefixes in 4 KiB buffers charged %d bytes", name, pool.Stats().UsedBytes)
		}
		read := make(chan error, 1)
		go func() {
			_, err := e.ReadAt(make([]byte, 100), 2000)
			read <- err
		}()
		codec.await(t)
		codec.await(t)
		codec.await(t) // the resume is running
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
		codec.gate <- struct{}{}
		<-closed
		if err := <-read; err != nil {
			t.Fatalf("%s: the read that was resuming when Close came: %v", name, err)
		}
		if _, err := e.ReadAt(make([]byte, 10), 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: read after Close: %v", name, err)
		}
		if local, ok := e.cache.(*localStore); ok {
			for _, i := range local.c.Keys() {
				if ent, _ := local.c.Peek(i); ent.parked != nil {
					t.Fatalf("%s: span %d still parked after Close", name, i)
				}
			}
		} else if s := pool.Stats(); s.UsedBytes != 0 || s.Entries != 0 {
			t.Fatalf("%s: after Close: %+v", name, s)
		}
	}
}

// TestDecodeFailingAfterCloseIsErrClosed: a resume that a reader runs
// itself, overtaken by Close, reads from a source that may be closed
// under it and fails with whatever that gives; the reader is told the
// engine closed.
func TestDecodeFailingAfterCloseIsErrClosed(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newPrefixCodec(4<<10, true)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	codec.gate <- struct{}{}
	readAndCheck(t, e, src, 4<<10, 100) // a jump: nothing prefetched
	codec.failResume.Store(true)
	read := make(chan error, 1)
	go func() {
		_, err := e.ReadAt(make([]byte, 100), 4<<10+1000)
		read <- err
	}()
	codec.await(t)
	codec.await(t) // the resume is running on the reader
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
	codec.gate <- struct{}{}
	<-closed
	if err := <-read; !errors.Is(err, ErrClosed) {
		t.Fatalf("the read whose resume failed after Close: %v", err)
	}
}

// TestStreamDecodesWholeSpans: a reader the strategy has made out as a
// stream has its spans decoded to the end — its own decode stops at what
// it asked for and the rest of the span is continued on the pool, the
// spans ahead are prefetched whole — and a span ahead that is cached as
// a prefix is continued, not started over.
func TestStreamDecodesWholeSpans(t *testing.T) {
	src := testSrc(32 << 10)
	codec := newPrefixCodec(1<<10, false)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	settle := func() {
		until(func() bool {
			e.mu.Lock()
			defer e.mu.Unlock()
			return len(e.inflight) == 0
		})
	}
	readAndCheck(t, e, src, 10<<10, 300) // a jump: the front of span 10
	readAndCheck(t, e, src, 6<<10, 10)   // another
	readAndCheck(t, e, src, 7<<10, 10)   // one span on: not a stream yet
	if s := e.Stats(); s.DecodedBytes != 320 || s.PrefetchIssued != 0 {
		t.Fatalf("before the stream is made out: %+v", s)
	}
	readAndCheck(t, e, src, 8<<10, 10) // two on: a stream, span 9 prefetched, the rest of 8 continued
	settle()
	codec.requireChain(t, 8<<10, 1<<10)
	codec.requireChain(t, 9<<10, 1<<10)
	readAndCheck(t, e, src, 9<<10, 10) // proposes 10, cached as a prefix, and 11
	settle()
	codec.requireChain(t, 10<<10, 1<<10)
	codec.requireChain(t, 11<<10, 1<<10)
	codec.mu.Lock()
	calls := [2]int{len(codec.calls[8<<10]), len(codec.calls[10<<10])}
	codec.mu.Unlock()
	s := e.Stats()
	if calls != [2]int{2, 2} || s.SpanDecodes != 6 || s.SpanResumes != 2 || s.PrefetchIssued != 4 || s.DecodedBytes != 4<<10+20 {
		t.Fatalf("decode calls for spans 8 and 10: %v; %+v", calls, s)
	}
}

// TestWholeSpanReadCompletesPrefix: a read of a whole span being decoded
// in part joins that decode and then continues it to the span's end.
func TestWholeSpanReadCompletesPrefix(t *testing.T) {
	src := testSrc(16 << 10)
	codec := newPrefixCodec(4<<10, true)
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() { defer wg.Done(); readAndCheck(t, e, src, 4<<10, 100) }()
	codec.await(t)
	got := make(chan []byte, 1)
	go func() {
		data, err := spanBytes(e, 1)
		if err != nil {
			t.Error(err)
		}
		got <- data
	}()
	until(func() bool { return e.Stats().DemandJoined == 1 })
	codec.gate <- struct{}{}
	if upTo := codec.await(t); upTo != 4<<10 {
		t.Fatalf("the whole-span read continued the decode up to %d", upTo)
	}
	codec.gate <- struct{}{}
	if data := <-got; !bytes.Equal(data, src[4<<10:8<<10]) {
		t.Fatalf("the whole-span read returned %d bytes", len(data))
	}
	codec.requireChain(t, 4<<10, 4<<10)
}

// TestRandomPrefixReads: seeded random reads from several goroutines,
// half through ReadAt and half through WriteRangeTo, over a small cache,
// every byte checked; whatever the interleaving,
// each span's decodes between two evictions form chains from the seek
// point, so the bytes decoded are the sum of the chains' lengths.
func TestRandomPrefixReads(t *testing.T) {
	src := testSrc(64 << 10)
	for name, pool := range map[string]*CachePool{"local": nil, "pool": NewCachePool(20 << 10)} {
		codec := newPrefixCodec(4<<10, false)
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2, CacheSize: 4, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 300; i++ {
					n := 1 + rnd.Int63n(6<<10)
					if off := rnd.Int63n(int64(len(src)) - n); g%2 == 0 {
						readAndCheck(t, e, src, off, n)
					} else {
						writeAndCheck(t, e, src, off, n)
					}
				}
			}()
		}
		wg.Wait()
		// A prefetch may still be decoding: the codec has recorded its
		// call, the engine counts it when it returns. Close waits for it.
		e.Close()
		var decoded uint64
		codec.mu.Lock()
		for off, calls := range codec.calls {
			at := int64(0)
			for _, call := range calls {
				if call[0] != 0 && call[0] != at {
					t.Fatalf("%s: span at %d: call %v does not continue %d", name, off, call, at)
				}
				at = call[1]
				decoded += uint64(call[1] - call[0])
			}
		}
		codec.mu.Unlock()
		if s := e.Stats(); s.DecodedBytes != decoded {
			t.Fatalf("%s: DecodedBytes %d, the codec wrote %d", name, s.DecodedBytes, decoded)
		}
		if pool != nil {
			if s := pool.Stats(); s.PeakBytes > s.BudgetBytes || s.UsedBytes != 0 {
				t.Fatalf("%s: %+v", name, s)
			}
		}
	}
}
