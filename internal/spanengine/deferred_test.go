package spanengine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/filereader"
	"repro/internal/prefetch"
)

var errDamaged = errors.New("streamcodec: damaged stream")

// streamCodec is a format with the shape of multi-stream bzip2: a stream
// is 'S', the payload's length in four bytes, the payload and the XOR of
// its bytes; streams follow one another and nothing in the file says how
// much one decodes to. Scan proposes whatever starts the test gives it —
// false ones included — and DecodeSpan decodes the streams of an extent,
// failing on one that is cut short or does not add up. It records every
// decode by extent and can hold decodes at a gate.
type streamCodec struct {
	cands []int64 // extent starts Scan proposes, the first at 0
	sizes []int64 // decompressed sizes Scan declares, by extent; nil declares none
	merge bool    // the starts are candidates

	started chan int64              // when non-nil, receives the CompOff of each decode that begins
	gate    chan struct{}           // when non-nil, decodes wait for it to close
	hold    map[int64]chan struct{} // decodes from a key's offset wait for its channel to close

	mu      sync.Mutex
	decodes map[[2]int64]int
}

// buildStreams encodes payloads as consecutive streams and returns the
// file with the offset each stream starts at.
func buildStreams(payloads [][]byte) (src []byte, starts []int64) {
	for _, p := range payloads {
		starts = append(starts, int64(len(src)))
		src = append(src, 'S')
		src = binary.BigEndian.AppendUint32(src, uint32(len(p)))
		src = append(src, p...)
		var x byte
		for _, b := range p {
			x ^= b
		}
		src = append(src, x)
	}
	return src, starts
}

// testPayloads returns n payloads of different sizes around size. No byte
// of them is 'S', so an extent that starts inside one never decodes.
func testPayloads(n, size int) (payloads [][]byte, whole []byte) {
	for i := 0; i < n; i++ {
		p := make([]byte, size+37*i)
		for j := range p {
			p[j] = byte((i*131 + j*7) % 64)
		}
		payloads = append(payloads, p)
		whole = append(whole, p...)
	}
	return payloads, whole
}

func (c *streamCodec) FormatTag() string { return "strm" }

func (c *streamCodec) Scan(src filereader.FileReader) (ScanResult, error) {
	res := ScanResult{Candidates: c.merge, Flags: 0x21}
	for i, off := range c.cands {
		s := Span{CompOff: off, CompEnd: src.Size(), DecompSize: -1}
		if i+1 < len(c.cands) {
			s.CompEnd = c.cands[i+1]
		}
		if c.sizes != nil {
			s.DecompSize = c.sizes[i]
		}
		res.Spans = append(res.Spans, s)
	}
	return res, nil
}

func (c *streamCodec) DecodeSpan(src filereader.FileReader, s Span) ([]byte, error) {
	if c.started != nil {
		c.started <- s.CompOff
	}
	if c.gate != nil {
		<-c.gate
	}
	if h := c.hold[s.CompOff]; h != nil {
		<-h
	}
	c.mu.Lock()
	if c.decodes == nil {
		c.decodes = map[[2]int64]int{}
	}
	c.decodes[[2]int64{s.CompOff, s.CompEnd}]++
	c.mu.Unlock()
	ext, release, err := filereader.Extent(src, s.CompOff, s.CompEnd)
	if err != nil {
		return nil, err
	}
	defer release()
	out := []byte{}
	for p := 0; p < len(ext); {
		if ext[p] != 'S' || p+5 > len(ext) {
			return nil, errDamaged
		}
		n := int(binary.BigEndian.Uint32(ext[p+1:]))
		if p+5+n+1 > len(ext) {
			return nil, errDamaged
		}
		var x byte
		for _, b := range ext[p+5 : p+5+n] {
			x ^= b
		}
		if x != ext[p+5+n] {
			return nil, errDamaged
		}
		out = append(out, ext[p+5:p+5+n]...)
		p += 5 + n + 1
	}
	return out, nil
}

// decoded returns how often the extent [off, end) was decoded.
func (c *streamCodec) decoded(off, end int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decodes[[2]int64{off, end}]
}

// total returns the number of decodes so far.
func (c *streamCodec) total() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.decodes {
		n += k
	}
	return n
}

// readAll streams the whole file out of the engine.
func readAll(e *Engine) ([]byte, error) {
	var out bytes.Buffer
	_, err := e.WriteTo(&out, 0)
	return out.Bytes(), err
}

// noPrefetch proposes nothing: what gets decoded is what was asked for.
type noPrefetch struct{}

func (noPrefetch) Access(_, _ uint64)                    {}
func (noPrefetch) Prefetch(buf []uint64, _ int) []uint64 { return buf }

// propose hands the engine cands as if its strategy had proposed them;
// those past the table are guesses.
func propose(e *Engine, cands ...uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cands = append(e.cands[:0], cands...)
	e.issuePrefetches()
}

// running returns how many guesses the engine has running.
func running(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.guessing
}

// TestGuessesHaveOneOwner holds the engine's rules for speculation past
// the frontier, which it keeps for every grower: a slot is not guessed
// again while its guess runs or what it made is parked, and is once that
// is evicted; the extent the frontier is decoding is not guessed; and the
// step that completes the table waits for the guesses still running.
func TestGuessesHaveOneOwner(t *testing.T) {
	payloads, _ := testPayloads(10, 400)
	src, starts := buildStreams(payloads)
	open := func(t *testing.T, codec *streamCodec) *Engine {
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, maxPrefetch: 2, strategy: noPrefetch{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	idle := func(e *Engine) func() bool { return func() bool { return running(e) == 0 } }

	t.Run("guessed once until evicted", func(t *testing.T) {
		hold := make(chan struct{})
		codec := &streamCodec{cands: starts, hold: map[int64]chan struct{}{starts[3]: hold, starts[4]: hold}}
		e := open(t, codec)
		propose(e, 3)
		propose(e, 3, 4, 5)
		if n := running(e); n != 2 {
			t.Fatalf("%d guesses running for three slots, one proposed twice, at maxPrefetch 2", n)
		}
		close(hold)
		until(idle(e))
		propose(e, 3)
		if n := running(e); n != 0 || codec.decoded(starts[3], starts[4]) != 1 || codec.decoded(starts[5], starts[6]) != 0 {
			t.Fatalf("a parked slot was guessed again: %d running, %d decodes", n, codec.decoded(starts[3], starts[4]))
		}
		// Extent 4's result and three more fill the store, which holds
		// four, and push extent 3's out: its slot is re-armed.
		for k := uint64(4); k < 8; k++ {
			propose(e, k)
			until(idle(e))
		}
		propose(e, 3)
		until(idle(e))
		if n := codec.decoded(starts[3], starts[4]); n != 2 {
			t.Fatalf("extent 3 decoded %d times, want again after its eviction", n)
		}
		if st := e.Stats(); st.PrefetchIssued != 6 || st.SpanDecodes != 6 {
			t.Fatalf("%+v", st)
		}
	})

	t.Run("not the frontier's extent", func(t *testing.T) {
		hold := make(chan struct{})
		codec := &streamCodec{cands: starts, hold: map[int64]chan struct{}{starts[0]: hold}, started: make(chan int64, len(starts))} // room for every decode of the test
		e := open(t, codec)
		read := make(chan error)
		go func() {
			_, err := e.ReadAt(make([]byte, 10), 0)
			read <- err
		}()
		if off := <-codec.started; off != starts[0] {
			t.Fatalf("first decode at %d, want the frontier's at 0", off)
		}
		propose(e, 0, 1)
		close(hold)
		if err := <-read; err != nil {
			t.Fatal(err)
		}
		until(idle(e))
		if a, b := codec.decoded(starts[0], starts[1]), codec.decoded(starts[1], starts[2]); a != 1 || b != 1 {
			t.Fatalf("frontier extent decoded %d times, the one after it %d; want 1 and 1", a, b)
		}
	})

	t.Run("settled when the table completes", func(t *testing.T) {
		// A false start in the last stream: the frontier merges over it
		// and never asks for the guess made there.
		falseOff := starts[9] + 100
		hold := make(chan struct{})
		codec := &streamCodec{cands: append(slices.Clone(starts), falseOff), merge: true, hold: map[int64]chan struct{}{falseOff: hold}}
		e := open(t, codec)
		propose(e, 10)
		done := make(chan error)
		go func() { done <- e.EnsureComplete() }()
		until(e.Complete)
		select {
		case <-done:
			close(hold) // for Close
			t.Fatal("EnsureComplete returned with a guess running")
		default:
		}
		close(hold)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if n := running(e); n != 0 || codec.decoded(falseOff, int64(len(src))) != 1 {
			t.Fatalf("after EnsureComplete: %d guesses running, the false start decoded %d times", n, codec.decoded(falseOff, int64(len(src))))
		}
	})
}

// TestDeferredFalsePositiveMergesAway injects a candidate in the middle of
// a stream. The stream it cuts short fails to decode, is extended over it
// and decodes; what was decoded from the false start is never served.
func TestDeferredFalsePositiveMergesAway(t *testing.T) {
	payloads, whole := testPayloads(6, 900)
	src, starts := buildStreams(payloads)
	falseOff := starts[2] + 100
	cands := slices.Insert(slices.Clone(starts), 3, falseOff)
	for _, strategy := range []prefetch.Strategy{nil, prefetch.NewFixed(), noPrefetch{}} {
		codec := &streamCodec{cands: cands, merge: true}
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2, maxPrefetch: 8, cacheSize: 16, strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		out, err := readAll(e)
		if err != nil || !bytes.Equal(out, whole) {
			t.Fatalf("read %d bytes of %d, err %v", len(out), len(whole), err)
		}
		spans := e.CheckpointTable().Spans
		if len(spans) != len(starts) || !e.Complete() {
			t.Fatalf("%d spans for %d streams", len(spans), len(starts))
		}
		var off int64
		for i, s := range spans {
			end := int64(len(src))
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			if s.CompOff != starts[i] || s.CompEnd != end || s.DecompOff != off || s.DecompSize != int64(len(payloads[i])) {
				t.Fatalf("span %d = %+v, want stream [%d,%d) at %d", i, s, starts[i], end, off)
			}
			off += s.DecompSize
		}
		if a, b, c := codec.decoded(starts[2], falseOff), codec.decoded(starts[2], starts[3]), codec.decoded(falseOff, starts[3]); a != 1 || b != 1 || c > 1 {
			t.Fatalf("cut-short extent decoded %d times, merged %d, false start %d; want 1, 1, at most 1", a, b, c)
		}
		// One decode per stream, one that failed, and maybe the false start.
		st := e.Stats()
		if st.SpanDecodes != uint64(len(starts)) || st.DecodedBytes != uint64(len(whole)) || codec.total() > len(starts)+2 {
			t.Fatalf("%d decodes, stats %+v", codec.total(), st)
		}
		e.Close()
	}
}

// TestDeferredCorruptFrontier: a stream that does not decode fails the
// reads that need it with ErrCorrupt, once and for good, and everything
// before it is served.
func TestDeferredCorruptFrontier(t *testing.T) {
	payloads, whole := testPayloads(6, 700)
	good, starts := buildStreams(payloads)
	cases := []struct {
		name  string
		merge bool
		src   []byte
		bad   int // first stream that cannot be served
	}{
		{"truncated-last", true, good[:len(good)-9], 5},
		{"damaged-middle", true, nil, 3},
		{"damaged-middle-exact-starts", false, nil, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			if src == nil {
				src = slices.Clone(good)
				src[starts[tc.bad]+50] ^= 0x20
			}
			var sound int64
			for _, p := range payloads[:tc.bad] {
				sound += int64(len(p))
			}
			codec := &streamCodec{cands: starts, merge: tc.merge}
			e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			out, err := readAll(e)
			if !errors.Is(err, ErrCorrupt) || !errors.Is(err, errDamaged) {
				t.Fatalf("err = %v, want ErrCorrupt wrapping the codec's", err)
			}
			if !bytes.Equal(out, whole[:sound]) {
				t.Fatalf("served %d bytes before the damage, want %d", len(out), sound)
			}
			// A read that runs into it gets what precedes it, and the error.
			buf := make([]byte, 500)
			n, err := e.ReadAt(buf, sound-200)
			if n != 200 || !errors.Is(err, ErrCorrupt) || !bytes.Equal(buf[:n], whole[sound-200:sound]) {
				t.Fatalf("ReadAt into the damage = %d, %v", n, err)
			}
			if n, err := e.ReadAt(buf, 100); n != len(buf) || err != nil || !bytes.Equal(buf, whole[100:100+len(buf)]) {
				t.Fatalf("ReadAt before the damage = %d, %v", n, err)
			}
			// Once what was speculated on before the failure has landed,
			// asking again decodes nothing: not the frontier, not past it.
			until(func() bool { return running(e) == 0 })
			before := codec.total()
			if _, err := e.TotalSize(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("TotalSize = %v", err)
			}
			if e.Complete() || e.NumSpans() != tc.bad || codec.total() != before {
				t.Fatalf("after the failure: %d spans, %d more decodes", e.NumSpans(), codec.total()-before)
			}
		})
	}
}

// TestDeferredReadAheadAndSize: a ReadAt far ahead of an empty table grows
// to it, and TotalSize straight after New completes the table — each
// extent decoded once on the way, none twice for being read afterwards.
func TestDeferredReadAheadAndSize(t *testing.T) {
	payloads, whole := testPayloads(12, 600)
	src, starts := buildStreams(payloads)
	t.Run("ReadAt", func(t *testing.T) {
		codec := &streamCodec{cands: starts, merge: true}
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2, cacheSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if e.NumSpans() != 0 || e.Size() != 0 || codec.total() != 0 {
			t.Fatalf("a fresh engine has %d spans, %d decodes", e.NumSpans(), codec.total())
		}
		off := int64(len(whole)) * 3 / 4
		buf := make([]byte, 1000)
		if n, err := e.ReadAt(buf, off); n != len(buf) || err != nil || !bytes.Equal(buf, whole[off:off+1000]) {
			t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
		}
		if e.Complete() || e.Size() < off+1000 {
			t.Fatalf("table covers %d bytes, complete %v", e.Size(), e.Complete())
		}
		if n, err := e.ReadAt(buf, int64(len(whole))-10); n != 10 || err != io.EOF {
			t.Fatalf("ReadAt at the tail = %d, %v", n, err)
		}
		for i, s := range e.CheckpointTable().Spans {
			if n := codec.decoded(s.CompOff, s.CompEnd); n != 1 {
				t.Fatalf("extent %d decoded %d times", i, n)
			}
		}
	})
	t.Run("TotalSize", func(t *testing.T) {
		codec := &streamCodec{cands: starts, merge: true}
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		size, err := e.TotalSize()
		if err != nil || size != int64(len(whole)) || !e.Complete() || e.NumSpans() != len(starts) {
			t.Fatalf("TotalSize = %d, %v; %d spans", size, err, e.NumSpans())
		}
		if st := e.Stats(); st.SizingPasses != 1 || st.SpanDecodes != uint64(len(starts)) || st.DecodedBytes != uint64(size) {
			t.Fatalf("%+v", st)
		}
	})
}

// TestDeferredDeclaredSizes: an extent whose size the scan declares is
// appended without a decode; only the open ones are decoded to size them.
// A declared size that is wrong fails the reads of that span, not the
// table.
func TestDeferredDeclaredSizes(t *testing.T) {
	payloads, whole := testPayloads(8, 500)
	src, starts := buildStreams(payloads)
	sizes := make([]int64, len(starts))
	open := 0
	for i := range sizes {
		sizes[i] = int64(len(payloads[i]))
		if i%3 == 1 {
			sizes[i], open = -1, open+1
		}
	}
	sizes[5]++ // a header that lies: the whole table after it is off by one
	codec := &streamCodec{cands: starts, sizes: sizes}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 2, strategy: noPrefetch{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	size, err := e.TotalSize()
	if err != nil || size != int64(len(whole))+1 {
		t.Fatalf("TotalSize = %d, %v", size, err)
	}
	if codec.total() != open {
		t.Fatalf("%d decodes to size %d open extents among %d", codec.total(), open, len(starts))
	}
	for i := range starts {
		data, err := spanBytes(e, i)
		if i == 5 {
			if err == nil {
				t.Fatal("span with a wrong declared size was served")
			}
			continue
		}
		if err != nil || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("span %d: %v", i, err)
		}
	}
}

// TestDeferredDecodesOnceBeyondTheCache rules out the shortcut of keeping
// sizing outputs around: 16 streams through a cache of 2, and still every
// extent is read and decoded exactly once by a sequential pass.
func TestDeferredDecodesOnceBeyondTheCache(t *testing.T) {
	payloads, whole := testPayloads(16, 2000)
	src, starts := buildStreams(payloads)
	for _, threads := range []int{1, 2, 4} {
		codec := &streamCodec{cands: starts, merge: true}
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: threads, cacheSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := readAll(e)
		if err != nil || !bytes.Equal(out, whole) {
			t.Fatalf("threads %d: read %d bytes, %v", threads, len(out), err)
		}
		st := e.Stats()
		if st.DecodedBytes != uint64(e.Size()) || st.SpanDecodes != 16 || codec.total() != 16 || st.SourceReads != 16 || st.SourceBytesRead != uint64(len(src)) {
			t.Fatalf("threads %d: %d decodes, %+v", threads, codec.total(), st)
		}
		e.Close()
	}
}

// TestDeferredConcurrentReadersAndClose: eight readers grow the table
// between them while Close arrives with decodes held mid-flight. Every
// read returns the right bytes or ErrClosed, and nothing is left waiting.
func TestDeferredConcurrentReadersAndClose(t *testing.T) {
	payloads, whole := testPayloads(24, 800)
	src, starts := buildStreams(payloads)
	for _, closeEarly := range []bool{true, false} {
		codec := &streamCodec{cands: starts, merge: true, gate: make(chan struct{}), started: make(chan int64, 1024)} // room for every decode of the test
		e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 1500)
				for k := 0; k < 6; k++ {
					off := int64((g*5+k*11)%20) * 800
					n, err := e.ReadAt(buf, off)
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil || n != len(buf) || !bytes.Equal(buf, whole[off:off+int64(n)]) {
						t.Errorf("ReadAt(%d) = %d, %v", off, n, err)
						return
					}
				}
			}()
		}
		<-codec.started // growth is under way, its decodes held
		closed := make(chan struct{})
		if closeEarly {
			go func() {
				e.Close()
				close(closed)
			}()
			until(func() bool {
				e.mu.Lock()
				defer e.mu.Unlock()
				return e.closed
			})
		}
		close(codec.gate)
		wg.Wait()
		if !closeEarly {
			if size, err := e.TotalSize(); err != nil || size != int64(len(whole)) {
				t.Errorf("TotalSize = %d, %v", size, err)
			}
			e.Close()
			close(closed)
		}
		<-closed
		if _, err := e.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
			t.Errorf("ReadAt after Close = %v", err)
		}
	}
}

var errChain = errors.New("chaincodec: the check across spans fails")

// chainCodec is streamCodec with a check across its spans (Chained): the
// link of a span is the index of the stream it starts with, and the check
// fails at stream bad, and at a stream that comes out of order.
type chainCodec struct {
	*streamCodec
	bad int
}

func (c chainCodec) DecodeLinked(src filereader.FileReader, s Span) ([]byte, any, error) {
	data, err := c.DecodeSpan(src, s)
	return data, slices.Index(c.cands, s.CompOff), err
}

func (c chainCodec) Chain(state, link any) (any, error) {
	next, _ := state.(int)
	if link.(int) != next {
		return nil, errors.New("chaincodec: a span out of order")
	}
	if next == c.bad {
		return nil, errChain
	}
	return next + 1, nil
}

// TestChainedCheckRunsInTableOrder: a Chained codec's check runs over the
// spans as reads are handed them in table order, from a growing table and
// from a complete one alike. A pass fails at the span whose link fails the
// check, having served the spans before it, and fails there again; a read
// that jumps past the spans the check has reached is not checked.
func TestChainedCheckRunsInTableOrder(t *testing.T) {
	payloads, whole := testPayloads(6, 700)
	src, starts := buildStreams(payloads)
	const bad = 3
	var sound int64
	for _, p := range payloads[:bad] {
		sound += int64(len(p))
	}
	var table []Span
	for i, p := range payloads {
		s := Span{CompOff: starts[i], CompEnd: int64(len(src)), DecompSize: int64(len(p))}
		if i+1 < len(starts) {
			s.CompEnd = starts[i+1]
		}
		if i > 0 {
			s.DecompOff = table[i-1].DecompOff + table[i-1].DecompSize
		}
		table = append(table, s)
	}
	for _, mode := range []string{"growing", "complete"} {
		t.Run(mode, func(t *testing.T) {
			codec := chainCodec{&streamCodec{cands: starts, merge: true}, bad}
			open := func() *Engine {
				var e *Engine
				var err error
				if mode == "growing" {
					e, err = New(filereader.MemoryReader(src), codec, Config{Threads: 2})
				} else {
					e, err = NewFromCheckpoints(filereader.MemoryReader(src), codec, table, 0, Config{Threads: 2})
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { e.Close() })
				return e
			}
			e := open()
			for range 2 {
				out, err := readAll(e)
				if !errors.Is(err, ErrCorrupt) || !errors.Is(err, errChain) || !bytes.Equal(out, whole[:sound]) {
					t.Fatalf("a pass served %d bytes, %v; want %d and the check's failure", len(out), err, sound)
				}
			}
			e = open()
			last := table[len(table)-1]
			buf := make([]byte, 100)
			if n, err := e.ReadAt(buf, last.DecompOff); n != len(buf) || err != nil || !bytes.Equal(buf, whole[last.DecompOff:][:n]) {
				t.Fatalf("a jump to the last span = %d, %v", n, err)
			}
			if n, err := e.ReadAt(buf, table[bad].DecompOff); n != len(buf) || err != nil {
				t.Fatalf("a jump to span %d = %d, %v", bad, n, err)
			}
			// Reads in order from the start reach the span and fail there.
			var off int64
			for off < table[bad].DecompOff {
				n, err := e.ReadAt(buf[:min(int64(len(buf)), table[bad].DecompOff-off)], off)
				if err != nil {
					t.Fatalf("ReadAt(%d) = %v", off, err)
				}
				off += int64(n)
			}
			if _, err := e.ReadAt(buf, off); !errors.Is(err, errChain) {
				t.Fatalf("ReadAt(%d) into span %d = %v, want the check's failure", off, bad, err)
			}
		})
	}
}

// TestDeferredFrontierHelpsOneWorker: at one worker, the frontier that
// finds its extent's guess running on the worker decodes the next
// extent's queued guess itself rather than wait idle, so that two extents
// decode at a time; and nothing is decoded twice for it.
func TestDeferredFrontierHelpsOneWorker(t *testing.T) {
	payloads, whole := testPayloads(6, 400)
	src, starts := buildStreams(payloads)
	hold := make(chan struct{})
	codec := &streamCodec{cands: starts, started: make(chan int64, len(starts)), hold: map[int64]chan struct{}{starts[1]: hold}}
	e, err := New(filereader.MemoryReader(src), codec, Config{Threads: 1, maxPrefetch: 2, strategy: noPrefetch{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	buf := make([]byte, 10)
	if _, err := e.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if off := <-codec.started; off != starts[0] {
		t.Fatalf("the first decode began at %d", off)
	}
	propose(e, 1, 2) // extent 1 runs on the worker, held; extent 2 waits behind it
	if off := <-codec.started; off != starts[1] {
		t.Fatalf("the worker began at %d, want extent 1", off)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.ReadAt(buf, int64(len(payloads[0])))
		done <- err
	}()
	select {
	case off := <-codec.started:
		if off != starts[2] {
			t.Fatalf("the frontier began at %d, want extent 2", off)
		}
	case <-time.After(10 * time.Second):
		close(hold)
		t.Fatal("the frontier waited for the worker with extent 2 queued behind it")
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if out, err := readAll(e); err != nil || !bytes.Equal(out, whole) {
		t.Fatalf("%d bytes, %v", len(out), err)
	}
	if n := codec.total(); n != len(starts) {
		t.Fatalf("%d decodes of %d extents", n, len(starts))
	}
}
