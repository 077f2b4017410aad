package rapidgzip

import (
	"fmt"
	"testing"

	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/workloads"
	"repro/internal/zstdx"
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
	bz, err := bzip2x.Compress(plain, bzip2x.WriterOptions{Level: 1, StreamSize: spanBytes})
	if err != nil {
		t.Fatal(err)
	}
	bgzf, _, err := gzipw.Compress(plain, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		name string
		comp []byte
	}{
		{"lz4", lz4x.CompressFrames(plain, lz4x.FrameOptions{FrameSize: spanBytes})},
		{"zstd", zstdx.CompressFrames(plain, zstdx.FrameOptions{Level: 1, FrameSize: spanBytes, ContentChecksum: true})},
		{"bgzf", bgzf},
		{"bzip2", bz},
	}
	for _, f := range files {
		path := writeTempFile(t, t.TempDir(), "corpus", f.comp)
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", f.name, p), func(t *testing.T) {
				for run := 0; run < 20; run++ {
					a, err := Open(path, WithoutIndexDiscovery(), WithParallelism(p), WithChunkSize(spanBytes))
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
