package blockfinder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/deflate"
	"repro/internal/gzipw"
)

func textData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"wood", "chuck", "would", "how", "much", "if", "a", "the", "quick", "brown"}
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, words[rng.Intn(len(words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

func randomData(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// groundTruth returns the offsets of non-final findable blocks (dynamic
// and stored) from compressor metadata.
func groundTruth(meta *gzipw.Meta) map[uint64]deflate.BlockType {
	want := map[uint64]deflate.BlockType{}
	for _, b := range meta.Blocks {
		if b.Final || b.Type == deflate.BlockFixed {
			continue
		}
		want[b.Bit] = b.Type
	}
	return want
}

func TestFindersLocateAllRealBlocks(t *testing.T) {
	data := textData(1, 600_000)
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := groundTruth(meta)
	if len(want) < 10 {
		t.Fatalf("test needs many blocks, got %d", len(want))
	}
	finders := map[string]Finder{
		"rapidgzip": NewDynamicFinder(),
		"skipLUT":   NewSkipLUTFinder(),
		"custom":    NewTrialCustomFinder(),
		"pugz":      NewPugzFinder(),
		"combined":  NewCombinedFinder(),
	}
	for name, f := range finders {
		got := map[uint64]bool{}
		for _, off := range ScanAll(f, comp, 0) {
			got[off] = true
		}
		for off, typ := range want {
			if typ == deflate.BlockStored && name != "combined" {
				continue // dynamic-only finders do not see stored blocks
			}
			if !got[off] {
				t.Errorf("%s: missed real block at bit %d (%v)", name, off, typ)
			}
		}
	}
}

func TestStoredFinderLocatesStoredBlocks(t *testing.T) {
	data := randomData(2, 400_000) // incompressible -> stored blocks
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := groundTruth(meta)
	stored := 0
	for _, typ := range want {
		if typ == deflate.BlockStored {
			stored++
		}
	}
	if stored == 0 {
		t.Fatal("expected stored blocks for random data")
	}
	got := map[uint64]bool{}
	for _, off := range ScanAll(StoredFinder{}, comp, 0) {
		got[off] = true
	}
	for off, typ := range want {
		if typ == deflate.BlockStored && !got[off] {
			t.Errorf("missed stored block at bit %d", off)
		}
	}
}

func TestPigzStyleEmptyStoredBlocksFound(t *testing.T) {
	// pigz's empty stored sync blocks are key parallelization points.
	data := textData(3, 500_000)
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6, IndependentChunks: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f := NewCombinedFinder()
	got := map[uint64]bool{}
	for _, off := range ScanAll(f, comp, 0) {
		got[off] = true
	}
	for off, typ := range groundTruth(meta) {
		if !got[off] {
			t.Errorf("combined finder missed %v block at bit %d", typ, off)
		}
	}
}

func TestStoredFinderFalsePositiveRate(t *testing.T) {
	// Paper §3.4.1: on random data the stored finder fires about once
	// every (514 +- 23) KiB. Allow a generous band.
	data := randomData(4, 8<<20)
	n := len(ScanAll(StoredFinder{}, data, 0))
	perMiB := float64(n) / 8
	if perMiB < 0.5 || perMiB > 8 {
		t.Fatalf("false positive rate %.2f/MiB outside expected band (~2/MiB)", perMiB)
	}
}

func TestDynamicFinderFalsePositivesAreRare(t *testing.T) {
	// Paper Table 1: ~202 valid headers per 10^12 positions. On 4 MiB
	// (3.3*10^7 positions) expect ~0; allow a few.
	data := randomData(5, 4<<20)
	n := len(ScanAll(NewDynamicFinder(), data, 0))
	if n > 20 {
		t.Fatalf("%d dynamic false positives in 4 MiB of random data", n)
	}
}

func TestSkipLUTMatchesExplicitChecks(t *testing.T) {
	f := func(v uint16) bool {
		v14 := uint32(v) & 0x3FFF
		lutSaysCandidate := skipLUT[v14] == 0
		explicit := v14&1 == 0 && v14>>1&3 == 2 && v14>>4&0xF != 0xF
		return lutSaysCandidate == explicit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipLUTNeverSkipsPastCandidate(t *testing.T) {
	// Property: for every 14-bit window, no position strictly before
	// LUT[v] passes the prefix checks.
	for v := uint32(0); v < 1<<14; v++ {
		s := skipLUT[v]
		for p := uint(0); p < uint(s); p++ {
			if prefixOK(v, p) {
				t.Fatalf("LUT[%#x]=%d but prefix passes at %d", v, s, p)
			}
		}
	}
}

func TestPackedHistogram(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		var bits uint64
		var want [8]int
		for i := 0; i < n; i++ {
			cl := rng.Intn(8)
			bits |= uint64(cl) << (3 * i)
			want[cl]++
		}
		hist := packedHistogram(bits, n)
		for l := 1; l < 8; l++ {
			if int(hist>>(5*l)&31) != want[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramCheckLUTMatchesLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var bits uint64
		n := 4 + rng.Intn(16)
		for i := 0; i < n; i++ {
			bits |= uint64(rng.Intn(8)) << (3 * i)
		}
		hist := packedHistogram(bits, n)
		return checkPackedHistogramLUT(hist) == checkPackedHistogramLoop(hist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFunnelRatios(t *testing.T) {
	// The first funnel stages have analytically known rates on random
	// data: 1/2 final, 3/8 type, (1/8)*(2/32) HLIT (paper Table 1).
	data := randomData(6, 2<<20)
	f := ScanFunnel(data, 1<<24)
	if f.Tested < 1<<20 {
		t.Fatalf("tested too few positions: %d", f.Tested)
	}
	tot := float64(f.Tested)
	checks := []struct {
		reason deflate.RejectReason
		want   float64
		tol    float64
	}{
		{deflate.RejectFinalBlock, 0.5, 0.01},
		{deflate.RejectBlockType, 0.375, 0.01},
		{deflate.RejectCodeCount, 0.0078125, 0.002},
	}
	for _, c := range checks {
		got := float64(f.Counts[c.reason]) / tot
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%v rate %.5f want %.5f±%.3f", c.reason, got, c.want, c.tol)
		}
	}
	// Everything must be accounted for.
	var sum uint64
	for _, c := range f.Counts {
		sum += c
	}
	if sum+f.Valid != f.Tested {
		t.Fatalf("funnel does not sum: %d + %d != %d", sum, f.Valid, f.Tested)
	}
	// Valid headers in random data are vanishingly rare (202 per 10^12).
	if f.Valid > 5 {
		t.Fatalf("%d valid headers in %d random positions", f.Valid, f.Tested)
	}
	t.Logf("\n%s", f)
}

func TestAllFindersAgreeOnFirstCandidate(t *testing.T) {
	data := textData(7, 100_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Start the search after the first block header so the first hit is
	// a genuine mid-stream block.
	from := uint64(200)
	r1, ok1 := NewDynamicFinder().Next(comp, from)
	r2, ok2 := NewSkipLUTFinder().Next(comp, from)
	r3, ok3 := NewTrialCustomFinder().Next(comp, from)
	r4, ok4 := NewPugzFinder().Next(comp, from)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("some finder found nothing")
	}
	if r1 != r2 || r1 != r3 || r1 != r4 {
		t.Fatalf("finders disagree: %d %d %d %d", r1, r2, r3, r4)
	}
}

func TestNextRespectsFromBit(t *testing.T) {
	data := textData(8, 200_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f := NewCombinedFinder()
	all := ScanAll(f, comp, 0)
	if len(all) < 3 {
		t.Skip("too few candidates")
	}
	for _, start := range []uint64{all[1], all[1] + 1, all[2] - 1} {
		got, ok := f.Next(comp, start)
		if !ok {
			t.Fatalf("no candidate from %d", start)
		}
		if got < start {
			t.Fatalf("candidate %d before fromBit %d", got, start)
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	finders := []Finder{
		NewDynamicFinder(), NewSkipLUTFinder(), NewTrialCustomFinder(),
		NewPugzFinder(), StoredFinder{}, NewCombinedFinder(), NewTrialFlateFinder(),
	}
	for _, f := range finders {
		if _, ok := f.Next(nil, 0); ok {
			t.Fatalf("%T found candidate in empty input", f)
		}
		if _, ok := f.Next([]byte{0x05}, 0); ok {
			t.Fatalf("%T found candidate in 1-byte input", f)
		}
	}
}

func TestTrialFlateFindsRealBlock(t *testing.T) {
	data := textData(9, 200_000)
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var firstDyn uint64
	for _, b := range meta.Blocks {
		if !b.Final && b.Type == deflate.BlockDynamic && b.Bit > 200 {
			firstDyn = b.Bit
			break
		}
	}
	if firstDyn == 0 {
		t.Skip("no mid-stream dynamic block")
	}
	f := NewTrialFlateFinder()
	got, ok := f.Next(comp, firstDyn-40)
	if !ok {
		t.Fatal("flate finder found nothing")
	}
	if got > firstDyn {
		t.Fatalf("flate finder skipped the real block: got %d want <= %d", got, firstDyn)
	}
}

// --- Table 2 benchmark: block finder bandwidths -------------------------

func benchFinder(b *testing.B, f Finder, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(0)
		for {
			bit, ok := f.Next(data, off)
			if !ok {
				break
			}
			off = bit + 1
		}
	}
}

func BenchmarkDBFRapidgzip(b *testing.B) {
	benchFinder(b, NewDynamicFinder(), randomData(10, 1<<20))
}

func BenchmarkDBFSkipLUT(b *testing.B) {
	benchFinder(b, NewSkipLUTFinder(), randomData(10, 1<<20))
}

func BenchmarkDBFCustom(b *testing.B) {
	benchFinder(b, NewTrialCustomFinder(), randomData(10, 256<<10))
}

func BenchmarkDBFPugz(b *testing.B) {
	benchFinder(b, NewPugzFinder(), randomData(10, 512<<10))
}

func BenchmarkDBFFlate(b *testing.B) {
	benchFinder(b, NewTrialFlateFinder(), randomData(10, 16<<10))
}

func BenchmarkNBF(b *testing.B) {
	benchFinder(b, StoredFinder{}, randomData(10, 4<<20))
}

func BenchmarkPrecodeCheckLUT(b *testing.B) {
	hists := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(11))
	for i := range hists {
		var bits uint64
		for t := 0; t < 19; t++ {
			bits |= uint64(rng.Intn(8)) << (3 * t)
		}
		hists[i] = packedHistogram(bits, 19)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkPackedHistogramLUT(hists[i&1023])
	}
}

func BenchmarkPrecodeCheckLoop(b *testing.B) {
	hists := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(11))
	for i := range hists {
		var bits uint64
		for t := 0; t < 19; t++ {
			bits |= uint64(rng.Intn(8)) << (3 * t)
		}
		hists[i] = packedHistogram(bits, 19)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkPackedHistogramLoop(hists[i&1023])
	}
}

// recordingStored is the stored finder, noting the length of every
// buffer it is given.
type recordingStored struct{ lens []int }

func (r *recordingStored) Next(data []byte, fromBit uint64) (uint64, bool) {
	r.lens = append(r.lens, len(data))
	return StoredFinder{}.Next(data, fromBit)
}

// unboundedCombined is the combination without the bound on the stored
// scan: both finders over the whole buffer, the lower candidate wins.
type unboundedCombined struct{}

func (unboundedCombined) Next(data []byte, fromBit uint64) (uint64, bool) {
	d, okd := NewDynamicFinder().Next(data, fromBit)
	s, oks := StoredFinder{}.Next(data, fromBit)
	if oks && (!okd || s < d) {
		return s, true
	}
	return d, okd
}

// TestCombinedBoundsStoredScan: once the dynamic finder has a candidate,
// the stored scan stops within 8 bytes of it, and the combination finds
// the same candidates as scanning both over everything, on a file with
// stored blocks before and after dynamic ones.
func TestCombinedBoundsStoredScan(t *testing.T) {
	var data []byte
	for i := int64(0); i < 2; i++ {
		data = append(data, randomData(10+i, 150_000)...)
		data = append(data, textData(20+i, 150_000)...)
	}
	comp, meta, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var firstDynamic, lastDynamic uint64
	var storedBefore, storedAfter bool
	for _, b := range meta.Blocks {
		if b.Type == deflate.BlockDynamic {
			if firstDynamic == 0 {
				firstDynamic = b.Bit
			}
			lastDynamic = b.Bit
		}
	}
	for _, b := range meta.Blocks {
		if b.Type == deflate.BlockStored {
			storedBefore = storedBefore || b.Bit < firstDynamic
			storedAfter = storedAfter || b.Bit > firstDynamic && b.Bit < lastDynamic
		}
	}
	if firstDynamic == 0 || !storedBefore || !storedAfter {
		t.Fatalf("fixture needs stored blocks before and between dynamic ones: %d blocks", len(meta.Blocks))
	}

	rec := &recordingStored{}
	f := &CombinedFinder{Dynamic: NewDynamicFinder(), Stored: rec}
	dyn := NewDynamicFinder()
	for _, from := range []uint64{0, firstDynamic - 1, firstDynamic + 1, uint64(len(comp)) * 4} {
		rec.lens = rec.lens[:0]
		f.Next(comp, from)
		want := len(comp)
		if d, ok := dyn.Next(comp, from); ok {
			want = min(want, int(d/8)+8)
		}
		if len(rec.lens) != 1 || rec.lens[0] != want {
			t.Errorf("from bit %d: stored scan over %v bytes, want %d", from, rec.lens, want)
		}
	}

	got := ScanAll(NewCombinedFinder(), comp, 0)
	want := ScanAll(unboundedCombined{}, comp, 0)
	if len(got) != len(want) {
		t.Fatalf("%d candidates, unbounded finds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d at bit %d, unbounded finds %d", i, got[i], want[i])
		}
	}
}
