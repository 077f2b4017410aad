package rapidgzip

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// TestDeferredSizeProxyGates holds the two formats whose sizes only
// decoding tells — bzip2 and zstd frames without a content size — to
// decoding a file once, without a clock: over a file-backed Open and
// WriteTo, compressed bytes read per compressed byte (the scan, plus one
// read per extent), decodes per span, and bytes allocated per output byte
// against what the commit before the growing table measured on the same
// files (it decoded both at Open and again to serve them).
func TestDeferredSizeProxyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 10 MiB twelve times")
	}
	bzPlain := workloads.SilesiaLike(2<<20, 1)
	bz, err := bzip2x.Compress(bzPlain, bzip2x.WriterOptions{Level: 1, StreamSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	zsPlain := workloads.SilesiaLike(8<<20, 1)
	cases := []struct {
		name  string
		plain []byte
		comp  []byte
		spans uint64
		// parentAlloc is allocated B per output B at 39f0c11, median of
		// five passes at P=2; parentRead its source B per compressed B.
		parentAlloc, parentRead float64
	}{
		{"bzip2", bzPlain, bz, 8, 8.28, 3.00},
		{"zstd-unsized", zsPlain, zstdx.CompressFrames(zsPlain, zstdx.FrameOptions{Level: 1, FrameSize: 1 << 20, OmitContentSize: true}), 8, 6.57, 2.39},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTempFile(t, t.TempDir(), "corpus", tc.comp)
			pass := func() (Stats, float64) {
				t.Helper()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				a, err := Open(path, WithVerify(true), WithoutIndexDiscovery(), WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				if st := a.Stats(); st.DecodedBytes != 0 || st.SpanDecodes != 0 {
					t.Fatalf("Open decoded: %+v", st)
				}
				check := &matchWriter{want: tc.plain}
				n, err := a.WriteTo(check)
				runtime.ReadMemStats(&after)
				if err != nil || n != int64(len(tc.plain)) || check.differs {
					t.Fatalf("%d bytes, err %v, output differs %v", n, err, check.differs)
				}
				return a.Stats(), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
			}
			pass() // fills the extent scratch pool, as a warm-up does
			var st Stats
			allocs := make([]float64, 5)
			for i := range allocs {
				st, allocs[i] = pass()
				if st.SpanDecodes != tc.spans || st.DecodedBytes != uint64(len(tc.plain)) {
					t.Errorf("%d decodes of %d bytes for %d spans of %d", st.SpanDecodes, st.DecodedBytes, tc.spans, len(tc.plain))
				}
				if read := float64(st.SourceBytesRead) / float64(len(tc.comp)); read > 2.05 {
					t.Errorf("read %.2f source bytes per compressed byte, want <= 2.05 (scan + one read per extent; was %.2f)", read, tc.parentRead)
				}
			}
			sort.Float64s(allocs)
			t.Logf("%.2f B allocated per output byte (five passes %.2f; was %.2f), %.2f source B per compressed B (was %.2f), %d decodes",
				allocs[2], allocs, tc.parentAlloc, float64(st.SourceBytesRead)/float64(len(tc.comp)), tc.parentRead, st.SpanDecodes)
			if allocs[2] > 1.1*tc.parentAlloc {
				t.Errorf("allocated %.2f B per output byte, want <= %.2f (what decoding twice did, +10%%)", allocs[2], 1.1*tc.parentAlloc)
			}
		})
	}
}
