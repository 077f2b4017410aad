package rapidgzip

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"testing"

	"repro/internal/spanengine"
	"repro/internal/workloads"
)

// TestColdPathProxyGates holds the index-less gzip path to what its
// deterministic proxies measured when the chunk scratch was pooled and
// the cell reads deduplicated: bytes allocated and compressed bytes
// read per pass, and the speculation counters of a one-worker pass,
// which the frontier's geometry fixes. Timing-free, so it can gate in
// any environment; the corpus, compressor and chunk size are the
// benchmark's gzip-seq-cold at half the length.
func TestColdPathProxyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 16 MiB seven times")
	}
	fx := build(t, "gzip-stdlib", workloads.SilesiaLike(16<<20, 1), 1<<20)
	plain, gz := fx.plain, fx.comp

	pass := func(parallelism int) (Stats, float64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := fx.open("file", WithChunkSize(1<<20), WithVerify(true), WithoutIndexDiscovery(), WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		check := &matchWriter{want: plain}
		n, err := a.WriteTo(check)
		runtime.ReadMemStats(&after)
		if err != nil || n != int64(len(plain)) || check.differs {
			t.Fatalf("cold pass at P=%d: %d bytes, err %v, output differs %v", parallelism, n, err, check.differs)
		}
		return a.Stats(), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}

	// The first pass of a process also allocates the scratch later passes
	// reuse, as the benchmark's warm-up does; and a collection that falls
	// between two passes empties the free lists, so the gate is on the
	// median of five.
	pass(2)
	var st Stats
	allocs := make([]float64, 5)
	for i := range allocs {
		st, allocs[i] = pass(2)
		if limit := uint64(1.15 * float64(len(gz))); st.SourceBytesRead > limit {
			t.Errorf("cold pass read %d source bytes of a %d-byte file, want <= %d (1.15x)", st.SourceBytesRead, len(gz), limit)
		}
	}
	sort.Float64s(allocs)
	t.Logf("P=2: %.2f B allocated per output byte (five passes %.2f), %d source bytes for a %d-byte file",
		allocs[2], allocs, st.SourceBytesRead, len(gz))
	if allocs[2] > 2.5 {
		t.Errorf("cold pass allocated %.2f B per output byte, want <= 2.5", allocs[2])
	}

	st, _ = pass(1)
	if st.GuessTasks != 3 || st.FinderProbes != 3 || st.OnDemandDecodes != 2 || st.GuessFalseStarts != 0 {
		t.Errorf("speculation counters at P=1 moved: GuessTasks=%d FinderProbes=%d OnDemandDecodes=%d GuessFalseStarts=%d, want 3 3 2 0",
			st.GuessTasks, st.FinderProbes, st.OnDemandDecodes, st.GuessFalseStarts)
	}
}

// matchWriter compares what is written to it with want, allocating
// nothing.
type matchWriter struct {
	want    []byte
	off     int
	differs bool
}

func (w *matchWriter) Write(p []byte) (int, error) {
	end := min(w.off+len(p), len(w.want))
	if !bytes.Equal(p, w.want[w.off:end]) {
		w.differs = true
	}
	w.off += len(p)
	return len(p), nil
}

// TestColdFirstRead: a cold one-byte Read waits for the file's first
// entry alone. It returns with one span confirmed, one on-demand decode
// begun, and no more decoded than a stream's first round and the match
// that crosses it — at one worker and at two, whose guesses ahead decode
// no span. Clock-free: what the first byte costs, counted.
func TestColdFirstRead(t *testing.T) {
	const chunk = 1 << 20
	fx := build(t, "gzip-stdlib", workloads.SilesiaLike(8<<20, 2), chunk)
	for _, p := range []int{1, 2} {
		a, err := fx.open("file", WithChunkSize(chunk), WithoutIndexDiscovery(), WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if n, err := a.Read(b[:]); n != 1 || err != nil || b[0] != fx.plain[0] {
			t.Fatalf("P=%d: Read = %d, %v", p, n, err)
		}
		st, spans := a.Stats(), a.(*archive).cur.Load().eng.NumSpans()
		a.Close()
		if most := uint64(spanengine.FirstRound + 258); spans != 1 || st.OnDemandDecodes != 1 || st.DecodedBytes > most {
			t.Fatalf("P=%d: a one-byte read confirmed %d spans, began %d on-demand decodes and decoded %d bytes, want 1, 1 and <= %d",
				p, spans, st.OnDemandDecodes, st.DecodedBytes, most)
		}
	}
}

// TestColdIndexRepeats: the index a cold pass builds does not depend on
// the parallelism or on the run: which cells were guessed and when, and
// the first entry confirmed ahead of its unit, leave no trace in it.
func TestColdIndexRepeats(t *testing.T) {
	const chunk = 128 << 10
	fx := build(t, "gzip-stdlib", workloads.SilesiaLike(4<<20, 3), chunk)
	export := func(p int) []byte {
		t.Helper()
		a, err := fx.open("file", WithChunkSize(chunk), WithoutIndexDiscovery(), WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if n, err := a.WriteTo(io.Discard); err != nil || n != int64(len(fx.plain)) {
			t.Fatalf("P=%d: cold pass %d bytes, %v", p, n, err)
		}
		var buf bytes.Buffer
		if err := a.ExportIndex(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export(1)
	for _, p := range []int{4, 1, 4} {
		if !bytes.Equal(export(p), first) {
			t.Fatalf("the index exported after a cold pass at P=%d differs from the first one, at P=1", p)
		}
	}
}

// TestSingleBlockDecodedOnce holds a cold pass over the paper's worst
// case, one Dynamic block for the whole file (igzip -0), to decoding each
// byte once. Every frontier unit pauses inside the block about half a
// cell past the end of the cell it began in, so what it confirms fits
// the span cache. While the frontier stands in the block, no cell is
// guessed; the guesses issued before it got there scan 256 KiB of their
// cells each (4 of them, 1,048,575 bytes, at both parallelisms). The
// index the pass builds does not depend on the parallelism. Clock-free.
func TestSingleBlockDecodedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 16 MiB twice")
	}
	const (
		chunk = 1 << 20
		// A unit pauses at the first point it records past its cap, and
		// points are a sixteenth of a chunk of output apart.
		pastStop    = chunk/2 + chunk/16
		finderBytes = 1_048_575 * 3 / 2
		// A guess reads the cell behind what its finder scanned only for a
		// candidate: 1.3944 source bytes per compressed byte, and 1.7425
		// while every guess read its whole cell.
		readRatio = 1.3944 * 1.05
	)
	fx := build(t, "gzip-single-block", workloads.SilesiaLike(16<<20, 1), chunk)
	var indexes [][]byte
	for _, p := range []int{1, 2} {
		a, err := fx.open("file", WithChunkSize(chunk), WithoutIndexDiscovery(), WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		check := &matchWriter{want: fx.plain}
		n, err := a.WriteTo(check)
		if err != nil || n != int64(len(fx.plain)) || check.differs {
			a.Close()
			t.Fatalf("P=%d: cold pass %d bytes, err %v, output differs %v", p, n, err, check.differs)
		}
		st, spans := a.Stats(), uint64(a.(*archive).cur.Load().eng.NumSpans())
		var ix bytes.Buffer
		err = a.ExportIndex(&ix)
		a.Close()
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, ix.Bytes())
		decoded := float64(st.DecodedBytes) / float64(n)
		read := float64(st.SourceBytesRead) / float64(len(fx.comp))
		t.Logf("P=%d: %d spans, %.4f decoded B per delivered B, %d evictions, %d guesses, %d finder bytes for %d compressed, %.4f B read per compressed B, a unit %d B past its stop at most",
			p, spans, decoded, st.SpanCacheEvictions, st.GuessTasks, st.FinderBytes, len(fx.comp), read, st.MaxPastStop)
		if decoded > 1.02 {
			t.Errorf("P=%d: decoded %.4f B per delivered B, want <= 1.02", p, decoded)
		}
		if st.SpanCacheEvictions > spans {
			t.Errorf("P=%d: %d evictions for %d spans", p, st.SpanCacheEvictions, spans)
		}
		if st.MaxPastStop > pastStop {
			t.Errorf("P=%d: a unit reached %d B past its stop, want <= %d", p, st.MaxPastStop, pastStop)
		}
		if st.FinderBytes > finderBytes {
			t.Errorf("P=%d: the finder scanned %d B, want <= %d", p, st.FinderBytes, finderBytes)
		}
		if read > readRatio {
			t.Errorf("P=%d: read %.4f source B per compressed B, want <= %.4f", p, read, readRatio)
		}
	}
	if !bytes.Equal(indexes[0], indexes[1]) {
		t.Error("the index exported after a cold pass at P=2 differs from the one at P=1")
	}
}
