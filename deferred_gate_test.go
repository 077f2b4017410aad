package rapidgzip

import (
	"bytes"
	"compress/bzip2"
	"errors"
	"io"
	"runtime"
	"sort"
	"testing"

	"repro/internal/workloads"
)

// TestDeferredSizeProxyGates holds the two formats whose sizes only
// decoding tells — bzip2 and zstd frames without a content size — to
// decoding a file once, without a clock: over a file-backed Open and
// WriteTo, compressed bytes read per compressed byte (the scan, plus one
// read per extent), decodes per span, and bytes allocated per output byte.
// zstd's allocation bound is what the commit before the growing table
// measured on the same file (it decoded at Open and again to serve),
// +10 %. bzip2's is set from its own block decoder, which allocates a
// span's output and nothing else: 1.23 B/B median, bounded at 1.5; the
// compress/bzip2 delegate it replaced allocated 6.45.
func TestDeferredSizeProxyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 10 MiB twelve times")
	}
	cases := []struct {
		name  string
		size  int
		span  int
		spans uint64
		// maxAlloc bounds the median allocated B per output B of five
		// passes at P=2; wasAlloc is the median the row was last set
		// against, and wasRead the source B per compressed B at 39f0c11.
		maxAlloc, wasAlloc, wasRead float64
	}{
		{"bzip2", 2 << 20, 256 << 10, 24, 1.5, 6.45, 3.00}, // eight streams of three level-1 blocks
		{"zstd-unsized", 8 << 20, 1 << 20, 8, 1.1 * 6.57, 6.57, 2.39},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := build(t, tc.name, workloads.SilesiaLike(tc.size, 1), tc.span)
			pass := func() (Stats, float64) {
				t.Helper()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				a, err := fx.open("file", WithVerify(true), WithoutIndexDiscovery(), WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				if st := a.Stats(); st.DecodedBytes != 0 || st.SpanDecodes != 0 {
					t.Fatalf("Open decoded: %+v", st)
				}
				check := &matchWriter{want: fx.plain}
				n, err := a.WriteTo(check)
				runtime.ReadMemStats(&after)
				if err != nil || n != int64(len(fx.plain)) || check.differs {
					t.Fatalf("%d bytes, err %v, output differs %v", n, err, check.differs)
				}
				return a.Stats(), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
			}
			pass() // fills the extent scratch pool, as a warm-up does
			var st Stats
			allocs := make([]float64, 5)
			for i := range allocs {
				st, allocs[i] = pass()
				if st.SpanDecodes != tc.spans || st.DecodedBytes != uint64(len(fx.plain)) {
					t.Errorf("%d decodes of %d bytes for %d spans of %d", st.SpanDecodes, st.DecodedBytes, tc.spans, len(fx.plain))
				}
				if read := float64(st.SourceBytesRead) / float64(len(fx.comp)); read > 2.05 {
					t.Errorf("read %.2f source bytes per compressed byte, want <= 2.05 (scan + one read per extent; was %.2f)", read, tc.wasRead)
				}
			}
			sort.Float64s(allocs)
			t.Logf("%.2f B allocated per output byte (five passes %.2f; was %.2f), %.2f source B per compressed B (was %.2f), %d decodes",
				allocs[2], allocs, tc.wasAlloc, float64(st.SourceBytesRead)/float64(len(fx.comp)), tc.wasRead, st.SpanDecodes)
			if allocs[2] > tc.maxAlloc {
				t.Errorf("allocated %.2f B per output byte, want <= %.2f", allocs[2], tc.maxAlloc)
			}
		})
	}
}

// TestSingleStreamBzip2IsParallel holds a bzip2 file of one stream, as the
// bzip2 CLI writes one — 8 MiB at level 9, ten blocks — to what a span a
// block promises, without a clock: parallel decode and random access at
// Open; a cold WriteTo that decodes each block once, all of them, to the
// bytes compress/bzip2 makes of the file, and whose first Write waits for
// the first block alone; and, reopened through its export, no sizing pass
// and a read at the end that decodes no more than two blocks.
func TestSingleStreamBzip2IsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses 8 MiB at level 9")
	}
	fx := build(t, "bzip2-9", workloads.SilesiaLike(8<<20, 1), 0)
	want, err := io.ReadAll(bzip2.NewReader(bytes.NewReader(fx.comp)))
	if err != nil {
		t.Fatal(err)
	}
	blocks, _ := bzip2Magics(fx.comp)
	if len(blocks) != 10 {
		t.Fatalf("fixture has %d blocks, want 10", len(blocks))
	}
	open := func() Archive {
		a, err := fx.open("file", WithoutIndexDiscovery(), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		return a
	}

	a := open()
	if c := a.Capabilities(); !c.Parallel || !c.RandomAccess {
		t.Fatalf("capabilities at Open: %+v", c)
	}
	var first firstWrite
	if _, err := a.WriteTo(&first); !errors.Is(err, errFirstWrite) {
		t.Fatalf("WriteTo = %v, want the writer's failure", err)
	}
	span0 := a.(*archive).cur.Load().eng.CheckpointTable().Spans[0]
	if n := len(first.p); n != int(span0.DecompSize) || !bytes.Equal(first.p, want[:n]) {
		t.Fatalf("first Write of %d bytes, want the first block's %d", n, span0.DecompSize)
	}

	a = open()
	check := &matchWriter{want: want}
	if n, err := a.WriteTo(check); err != nil || n != int64(len(want)) || check.differs {
		t.Fatalf("cold WriteTo: %d bytes, %v, output differs %v", n, err, check.differs)
	}
	st := a.Stats()
	if st.SpanDecodes != uint64(len(blocks)) || st.DecodedBytes != uint64(len(want)) || st.SpanResumes != 0 {
		t.Fatalf("cold WriteTo: %d decodes (%d resumed) of %d bytes; want %d of %d", st.SpanDecodes, st.SpanResumes, st.DecodedBytes, len(blocks), len(want))
	}
	var index bytes.Buffer
	if err := a.ExportIndex(&index); err != nil {
		t.Fatal(err)
	}

	b := open()
	if err := b.ImportIndex(&index); err != nil {
		t.Fatal(err)
	}
	if err := checkReadAt(b, want, int64(len(want))-64<<10, 64<<10); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.SizingPasses != 0 || st.SpanDecodes > 2 {
		t.Fatalf("a 64 KiB read at the end through the export: %d sizing passes, %d decodes; want 0 and at most 2", st.SizingPasses, st.SpanDecodes)
	}
	t.Logf("%d blocks; first Write %d bytes; cold pass %d decodes; through the export a read at the end decoded %d", len(blocks), len(first.p), st.SpanDecodes, b.Stats().SpanDecodes)
}
