package rapidgzip

import (
	"bytes"
	"io"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gzindex"
	"repro/internal/workloads"
)

// seekPoints returns the seek-point index of an open gzip archive.
func seekPoints(a Archive) *gzindex.Index {
	ix, err := a.(*archive).cur.Load().eng.Codec().(seekIndexer).SeekIndex()
	if err != nil {
		panic(err)
	}
	return ix
}

// indexedGzip compresses a SilesiaLike corpus with the standard library
// and exports its index at the given chunk size; it returns the corpus,
// the path of the gzip file and the path of the index.
func indexedGzip(t *testing.T, size, chunk int) (plain []byte, gzPath, idxPath string) {
	t.Helper()
	fx := build(t, "gzip-stdlib", workloads.SilesiaLike(size, 1), chunk)
	return fx.plain, fx.path, fx.indexPath(t)
}

// TestRandomReadAtDecodesWhatItTouches is the benchmark's
// gzip-rand-indexed in small: seeded uniform 64 KiB ReadAts through an
// index, one worker. A random read costs the spans it covers — less
// what the cache still holds, plus the few a chance run of neighbouring
// reads gets prefetched — not a second span decoded on speculation. The
// spans are cut about every chunk of output, inside blocks where the
// compressor's blocks are longer, so a read costs bytes in proportion to
// the chunk size, not to the blocks.
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
	ix := seekPoints(a)
	starts := make([]int64, ix.Len())
	for i := range starts {
		starts[i] = int64(ix.Point(i).UncompressedOffset)
	}
	spanOf := func(off int64) int {
		return sort.Search(len(starts), func(i int) bool { return starts[i] > off }) - 1
	}

	spanSize := func(i int) int64 {
		if i+1 < len(starts) {
			return starts[i+1] - starts[i]
		}
		return int64(len(plain)) - starts[i]
	}
	inBlock := 0
	for i := range starts {
		if limit := int64(256<<10) * 3 / 2; spanSize(i) > limit+258 {
			t.Errorf("span %d holds %d bytes, want <= 1.5 chunks and a match", i, spanSize(i))
		}
		if ix.Point(i).BlockHeaderBit != 0 {
			inBlock++
		}
	}
	if inBlock == 0 {
		t.Error("no seek point inside a block")
	}

	const reads = 200
	rnd := rand.New(rand.NewSource(1))
	buf := make([]byte, 64<<10)
	touched, touchedBytes := 0, int64(0)
	for i := 0; i < reads; i++ {
		off := rnd.Int63n(int64(len(plain) - len(buf)))
		if _, err := a.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf, plain[off:off+int64(len(buf))]) {
			t.Fatalf("ReadAt(%d): wrong bytes", off)
		}
		for sp := spanOf(off); sp <= spanOf(off+int64(len(buf))-1); sp++ {
			touched++
			touchedBytes += spanSize(sp)
		}
	}
	s := a.Stats()
	t.Logf("%d spans; %d reads touched %d (%d bytes): %d decodes, %d resumes, %d bytes decoded (%.2f of the touched spans, %.1f per byte delivered), %d prefetches issued, %d of them unused so far",
		len(starts), reads, touched, touchedBytes, s.SpanDecodes, s.SpanResumes, s.DecodedBytes,
		float64(s.DecodedBytes)/float64(touchedBytes), float64(s.DecodedBytes)/float64(reads*len(buf)), s.PrefetchIssued, s.PrefetchUnused)
	if limit := uint64(touched + touched/10); s.SpanDecodes > limit {
		t.Errorf("%d span decodes for reads touching %d spans, want <= %d", s.SpanDecodes, touched, limit)
	}
	if s.PrefetchIssued > reads/10 {
		t.Errorf("%d prefetches issued for %d random reads, want <= %d", s.PrefetchIssued, reads, reads/10)
	}
	// A read costs the bytes from its seek point to its own end, not its
	// spans: over uniform offsets that is about half of them, plus the
	// read itself.
	if limit := uint64(0.65 * float64(touchedBytes)); s.DecodedBytes > limit {
		t.Errorf("%d bytes decoded for reads touching spans of %d bytes, want <= %d", s.DecodedBytes, touchedBytes, limit)
	}
	// Cut at block starts only, this file's blocks made it 3.5.
	if perByte := float64(s.DecodedBytes) / float64(reads*len(buf)); perByte > 2.8 {
		t.Errorf("%.2f bytes decoded per byte delivered, want <= 2.8", perByte)
	}
}

// TestSequentialReadAtFromSeekPointDecodesWhatItReads: 32 KiB ReadAts in
// sequence from a seek point decode the bytes they read and no more —
// each continues where the one before parked, and a pause overshoots by
// less than one match. The first trial starts at a point inside a block,
// the others at seeded ones.
func TestSequentialReadAtFromSeekPointDecodesWhatItReads(t *testing.T) {
	plain, gzPath, idxPath := indexedGzip(t, 4<<20, 256<<10)
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		ix := seekPoints(a)
		// Not the first: a reader that starts at offset 0 is taken for a
		// whole-file pass at once.
		i := 1 + rnd.Intn(ix.Len()-3)
		if trial == 0 {
			for i = 1; i < ix.Len() && ix.Point(i).BlockHeaderBit == 0; i++ {
			}
			if i+2 >= ix.Len() {
				t.Fatal("no seek point inside a block with two spans behind it")
			}
		}
		start := int64(ix.Point(i).UncompressedOffset)
		buf := make([]byte, 32<<10)
		const reads = 5 // short of a third span, where a stream would be prefetched for
		for i := int64(0); i < reads; i++ {
			off := start + i*int64(len(buf))
			if _, err := a.ReadAt(buf, off); err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if !bytes.Equal(buf, plain[off:off+int64(len(buf))]) {
				t.Fatalf("ReadAt(%d): wrong bytes", off)
			}
		}
		s := a.Stats()
		a.Close()
		if read := uint64(reads * len(buf)); s.PrefetchIssued != 0 || s.SpanResumes < reads-2 || s.DecodedBytes < read || s.DecodedBytes > read+258*s.SpanResumes {
			t.Fatalf("from seek point %d: %d bytes read, %d decoded, %d decodes, %d resumes, %d prefetches",
				start, read, s.DecodedBytes, s.SpanDecodes, s.SpanResumes, s.PrefetchIssued)
		}
	}
}

// TestSmallVerifiedReadsThroughIndex: WithVerify and Read with a 4 KiB
// buffer from offset 0 is a stream from its first read: every span
// decodes whole and once, as it did before reads could stop short, and
// the member checksums verify.
func TestSmallVerifiedReadsThroughIndex(t *testing.T) {
	plain, gzPath, idxPath := indexedGzip(t, 2<<20, 128<<10)
	// The cache holds the file, so the counts below are exact.
	a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(2), WithVerify(true), WithSharedPool(NewCachePool(64<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var got bytes.Buffer
	if _, err := io.CopyBuffer(struct{ io.Writer }{&got}, struct{ io.Reader }{a}, make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), plain) {
		t.Fatal("wrong bytes")
	}
	if ok, fails := crcVerified(a); !ok || fails != 0 {
		t.Fatalf("CRCVerified: ok=%v fails=%d", ok, fails)
	}
	s := a.Stats()
	if spans := uint64(seekPoints(a).Len()); s.ChunksConsumed != spans || s.SpanDecodes != spans || s.SpanResumes != 0 || s.DecodedBytes != uint64(len(plain)) {
		t.Fatalf("%d spans: %+v", spans, s)
	}
}

// TestAlternatingCursorsThroughIndex: one goroutine reading two halves
// of an indexed gzip file in turns is two streams on one engine; each is
// prefetched for and every span decodes exactly once.
func TestAlternatingCursorsThroughIndex(t *testing.T) {
	plain, gzPath, idxPath := indexedGzip(t, 4<<20, 128<<10)
	// The cache holds the file: a prefetch that reaches past the first
	// half finds the second cursor's spans still there.
	a, err := Open(gzPath, WithIndexFile(idxPath), WithParallelism(2), WithSharedPool(NewCachePool(64<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	spans := seekPoints(a).Len()
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
