package rapidgzip

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"sort"
	"testing"

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
	plain := workloads.SilesiaLike(16<<20, 1)
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := writeTempFile(t, t.TempDir(), "corpus.gz", gz.Bytes())

	pass := func(parallelism int) (Stats, float64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := Open(path, WithChunkSize(1<<20), WithVerify(true), WithoutIndexDiscovery(), WithParallelism(parallelism))
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
		if limit := uint64(1.15 * float64(gz.Len())); st.SourceBytesRead > limit {
			t.Errorf("cold pass read %d source bytes of a %d-byte file, want <= %d (1.15x)", st.SourceBytesRead, gz.Len(), limit)
		}
	}
	sort.Float64s(allocs)
	t.Logf("P=2: %.2f B allocated per output byte (five passes %.2f), %d source bytes for a %d-byte file",
		allocs[2], allocs, st.SourceBytesRead, gz.Len())
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
