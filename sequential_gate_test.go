package rapidgzip

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// TestSequentialPassDecodesOnce holds a streamed file to one decode per
// span under the default cache, without a clock: the span being read,
// the one handed over and the prefetched ones must all fit, or an unread
// prefetch is evicted and decoded again (with as many slots as prefetches
// a 16-span pass took 17.4 decodes on average, up to 24). Twenty passes
// each, because whether a prefetch is evicted depends on which worker
// finishes first.
func TestSequentialPassDecodesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 4 MiB a hundred and sixty times")
	}
	const spanBytes, spans = 256 << 10, 16
	plain := workloads.SilesiaLike(spans*spanBytes, 1)
	for _, name := range []string{"lz4-nochecksum", "zstd", "bgzf", "bzip2"} {
		fx := build(t, name, plain, spanBytes)
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", fx.row.format, p), func(t *testing.T) {
				for run := 0; run < 20; run++ {
					a, err := fx.open("file", WithoutIndexDiscovery(), WithParallelism(p), WithChunkSize(spanBytes))
					if err != nil {
						t.Fatal(err)
					}
					check := &matchWriter{want: plain}
					n, err := a.WriteTo(check)
					st, have := a.Stats(), a.(*archive).cur.Load().eng.NumSpans()
					a.Close()
					if err != nil || n != int64(len(plain)) || check.differs {
						t.Fatalf("run %d: %d bytes, err %v, output differs %v", run, n, err, check.differs)
					}
					// BGZF closes a span at the first member past the chunk
					// size, so its spans are a little larger and fewer.
					if have < spans-2 || have > spans {
						t.Fatalf("file has %d spans, want about %d", have, spans)
					}
					if st.SpanDecodes != uint64(have) || st.DecodedBytes != uint64(len(plain)) || st.PrefetchUnused != 0 {
						t.Errorf("run %d: %d decodes of %d bytes, %d prefetches unused; want %d decodes of %d bytes, none unused",
							run, st.SpanDecodes, st.DecodedBytes, st.PrefetchUnused, have, len(plain))
					}
				}
			})
		}
	}
}
