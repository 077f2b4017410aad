package rapidgzip

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/workloads"
)

// TestSequentialPassDecodesOnce holds a streamed file to one decode per
// span under the default cache, without a clock: the span being read,
// the one handed over and the prefetched ones must all fit, or an unread
// prefetch is evicted and decoded again (with as many slots as prefetches
// a 16-span pass took 17.4 decodes on average, up to 24). Twenty passes
// each, because whether a prefetch is evicted depends on which worker
// finishes first. gzip through its index is read by Read loops, whose
// first decode stops at its request and goes on as a continuation, so it
// is held to one decode of every byte: a depth of 4P under a cache of
// 2P + 4 decoded spans twice at P=4.
func TestSequentialPassDecodesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 4 MiB a hundred and sixty times")
	}
	const spanBytes, spans = 256 << 10, 16
	plain := workloads.SilesiaLike(spans*spanBytes, 1)
	// bzip2 at level 9, so that a stream of 256 KiB is one block and so
	// one span, as a frame is in the other rows.
	for _, name := range []string{"lz4-nochecksum", "zstd", "bgzf", "bzip2-9"} {
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
					// size, so its spans are a little larger and fewer, and
					// the EOF member joins the last of them.
					if have < spans-3 || have > spans {
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

	fx := build(t, "gzip", plain, spanBytes)
	index := fx.indexPath(t)
	for _, p := range []int{2, 4} {
		for _, loop := range []int{4 << 10, 128 << 10} {
			t.Run(fmt.Sprintf("gzip-indexed/P%d/Read%dK", p, loop>>10), func(t *testing.T) {
				for run := 0; run < 20; run++ {
					a, err := fx.open("file", WithIndexFile(index), WithParallelism(p))
					if err != nil {
						t.Fatal(err)
					}
					check := &matchWriter{want: plain}
					n, err := io.CopyBuffer(struct{ io.Writer }{check}, struct{ io.Reader }{a}, make([]byte, loop))
					st := a.Stats()
					a.Close()
					if err != nil || n != int64(len(plain)) || check.differs {
						t.Fatalf("run %d: %d bytes, err %v, output differs %v", run, n, err, check.differs)
					}
					if st.DecodedBytes != uint64(len(plain)) || st.PrefetchUnused != 0 {
						t.Errorf("run %d: %d decodes of %d bytes, %d prefetches unused; want %d bytes, none unused",
							run, st.SpanDecodes, st.DecodedBytes, st.PrefetchUnused, len(plain))
					}
				}
			})
		}
	}
}

// TestReadLoopReadsEachExtentOnce: a 4 KiB Read loop through the sidecar
// of a Create'd file reads the file once, an extent a span, and span 0's
// in two: the window its first Read decodes from, and the rest of its
// extent when that decode is continued to the span's end, in one read
// rather than a window at a time. At one worker and two.
func TestReadLoopReadsEachExtentOnce(t *testing.T) {
	const spanBytes, spans = 512 << 10, 8
	plain := workloads.SilesiaLike(spans*spanBytes, 3)
	path := filepath.Join(t.TempDir(), "created.gz")
	w, err := Create(path, WithShardSize(spanBytes), WithWriterParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			for run := 0; run < 5; run++ {
				a, err := Open(path, WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				check := &matchWriter{want: plain}
				n, err := io.CopyBuffer(struct{ io.Writer }{check}, struct{ io.Reader }{a}, make([]byte, 4<<10))
				st, have := a.Stats(), a.(*archive).cur.Load().eng.NumSpans()
				a.Close()
				if err != nil || n != int64(len(plain)) || check.differs {
					t.Fatalf("run %d: %d bytes, err %v, output differs %v", run, n, err, check.differs)
				}
				if st.SizingPasses != 0 || have != spans {
					t.Fatalf("run %d: %d spans, %d sizing passes; want %d spans through the sidecar", run, have, st.SizingPasses, spans)
				}
				if st.SourceReads > spans+1 {
					t.Errorf("run %d: %d reads of the file for %d spans, want %d at most", run, st.SourceReads, spans, spans+1)
				}
			}
		})
	}
}

// firstWrite keeps the first Write it is handed and fails it, which ends
// the WriteTo that made it: what a cold WriteTo decoded before its first
// bytes went out.
type firstWrite struct{ p []byte }

var errFirstWrite = errors.New("the first write is all this writer takes")

func (w *firstWrite) Write(p []byte) (int, error) {
	if w.p == nil {
		w.p = bytes.Clone(p)
	}
	return 0, errFirstWrite
}

// TestFirstWriteWaitsForOneBlock: a cold WriteTo, which the strategy
// calls a stream from its first access, makes its first Write after a
// decode of what its bounded first round reaches, not of its first span
// — clock-free, at one worker and two. A gzip span (BGZF, or gzip through
// its index) pauses at the first element past 32 KiB, and a cold gzip
// file's first entry is that long; an LZ4 or zstd frame without a
// content checksum stops at the first block boundary past it. A frame
// with one goes out whole, checked before any of its bytes.
func TestFirstWriteWaitsForOneBlock(t *testing.T) {
	const spanBytes = 256 << 10
	plain := workloads.SilesiaLike(4*spanBytes, 4)
	for _, tc := range []struct {
		name    string // the row's, if empty
		row     string
		most    int  // the first Write's length at most
		whole   bool // and at least
		indexed bool // open through the index a cold pass exports
	}{
		{row: "bgzf", most: 32<<10 + 258},
		{row: "gzip", most: 32<<10 + 258, indexed: true},
		{name: "gzip-cold", row: "gzip", most: 32<<10 + 258},
		{row: "lz4-nochecksum", most: 64 << 10},   // the encoder's block
		{row: "zstd-nochecksum", most: 128 << 10}, // the format's largest block
		{row: "lz4", most: spanBytes, whole: true},
		{row: "zstd", most: spanBytes, whole: true},
	} {
		fx := build(t, tc.row, plain, spanBytes)
		opts := []Option{WithoutIndexDiscovery(), WithChunkSize(spanBytes)}
		if tc.indexed {
			opts = append(opts, WithIndexFile(fx.indexPath(t)))
		}
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/P%d", cmp.Or(tc.name, tc.row), p), func(t *testing.T) {
				a, err := fx.open("file", append(opts, WithParallelism(p))...)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				var w firstWrite
				if _, err := a.WriteTo(&w); !errors.Is(err, errFirstWrite) {
					t.Fatalf("WriteTo = %v, want the writer's failure", err)
				}
				n := len(w.p)
				if n == 0 || n > tc.most || tc.whole && n != tc.most || !bytes.Equal(w.p, plain[:n]) {
					t.Fatalf("first Write of %d bytes, want the file's first bytes, %d at most (whole: %v)", n, tc.most, tc.whole)
				}
				t.Logf("first Write: %d bytes", n)
			})
		}
	}
}
