package rapidgzip

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workloads"
)

// indexedGzip compresses a SilesiaLike corpus with the standard library
// and exports its index at the given chunk size; it returns the corpus,
// the path of the gzip file and the path of the index.
func indexedGzip(t *testing.T, size, chunk int) (plain []byte, gzPath, idxPath string) {
	t.Helper()
	plain = workloads.SilesiaLike(size, 1)
	gzPath = writeTempFile(t, t.TempDir(), "corpus.gz", gzipBytes(t, plain))
	a, err := Open(gzPath, WithChunkSize(chunk), WithoutIndexDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	idxPath = gzPath + IndexSuffix
	if err := ExportIndexFile(a, idxPath); err != nil {
		t.Fatal(err)
	}
	return plain, gzPath, idxPath
}

// TestRandomReadAtDecodesWhatItTouches is the benchmark's
// gzip-rand-indexed in small: seeded uniform 64 KiB ReadAts through an
// index, one worker. A random read costs the spans it covers — less
// what the cache still holds, plus the few a chance run of neighbouring
// reads gets prefetched — not a second span decoded on speculation.
func TestRandomReadAtDecodesWhatItTouches(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 8 MiB about seven times")
	}
	plain, gzPath, idxPath := indexedGzip(t, 8<<20, 256<<10)
	a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ix := a.(*Reader).pr.Index()
	starts := make([]int64, ix.Len())
	for i := range starts {
		starts[i] = int64(ix.Point(i).UncompressedOffset)
	}
	spanOf := func(off int64) int {
		return sort.Search(len(starts), func(i int) bool { return starts[i] > off }) - 1
	}

	const reads = 200
	rnd := rand.New(rand.NewSource(1))
	buf := make([]byte, 64<<10)
	touched := 0
	for i := 0; i < reads; i++ {
		off := rnd.Int63n(int64(len(plain) - len(buf)))
		if _, err := a.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf, plain[off:off+int64(len(buf))]) {
			t.Fatalf("ReadAt(%d): wrong bytes", off)
		}
		touched += spanOf(off+int64(len(buf))-1) - spanOf(off) + 1
	}
	s := a.Stats()
	t.Logf("%d spans; %d reads touched %d: %d decodes, %d prefetches issued, %d of them unused so far",
		len(starts), reads, touched, s.SpanDecodes, s.PrefetchIssued, s.PrefetchUnused)
	if limit := uint64(touched + touched/10); s.SpanDecodes > limit {
		t.Errorf("%d span decodes for reads touching %d spans, want <= %d", s.SpanDecodes, touched, limit)
	}
	if s.PrefetchIssued > reads/10 {
		t.Errorf("%d prefetches issued for %d random reads, want <= %d", s.PrefetchIssued, reads, reads/10)
	}
}

// TestAlternatingCursorsThroughIndex: one goroutine reading two halves
// of an indexed gzip file in turns is two streams on one engine; each is
// prefetched for and every span decodes exactly once.
func TestAlternatingCursorsThroughIndex(t *testing.T) {
	plain, gzPath, idxPath := indexedGzip(t, 4<<20, 128<<10)
	// The cache holds the file: a prefetch that reaches past the first
	// half finds the second cursor's spans still there.
	a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(2), WithAccessCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	spans := a.(*Reader).pr.Index().Len()
	half := int64(len(plain) / 2)
	buf := make([]byte, 32<<10)
	for pos := int64(0); pos < half; pos += int64(len(buf)) {
		for _, off := range []int64{pos, half + pos} {
			if _, err := a.ReadAt(buf, off); err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if !bytes.Equal(buf, plain[off:off+int64(len(buf))]) {
				t.Fatalf("ReadAt(%d): wrong bytes", off)
			}
		}
	}
	s := a.Stats()
	if s.SpanDecodes != uint64(spans) || s.PrefetchIssued == 0 {
		t.Fatalf("%d spans read by two cursors in turns: %d decodes, %d prefetches issued", spans, s.SpanDecodes, s.PrefetchIssued)
	}
}
