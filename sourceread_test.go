package rapidgzip

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/filereader"
	"repro/internal/workloads"
)

// bandSource fails, once armed, every read of its file that touches the
// bytes [lo, hi), as a disk with a bad stretch does: it returns what lies
// before the stretch, and its own error.
type bandSource struct {
	filereader.FileReader
	lo, hi int64
	armed  atomic.Bool
}

var errBadStretch = errors.New("a bad stretch of the disk")

func (b *bandSource) ReadAt(p []byte, off int64) (int, error) {
	if !b.armed.Load() || off >= b.hi || off+int64(len(p)) <= b.lo {
		return b.FileReader.ReadAt(p, off)
	}
	n := 0
	if off < b.lo {
		n, _ = b.FileReader.ReadAt(p[:b.lo-off], off)
	}
	return n, errBadStretch
}

// TestReadFailureIsErrSourceRead: a read of the compressed file that
// fails after Open is ErrSourceRead, carrying the source's own error —
// never a verdict on the data, however the decode that needed it reads
// the file. A read of one byte of span 1 decodes a prefix of it (gzip
// through a window at a time, LZ4 from its extent), a read of the whole
// span decodes its extent whole, and a ranged write does the same
// through the engine's other path; the bad stretch lies in span 1's
// first compressed bytes, which every decode of it needs. With the stretch readable again the same read
// returns the file's bytes: a failed decode is not kept. gzip through its
// index, and LZ4 frames without a checksum, an exact-span format whose
// decodes stop in a span too.
func TestReadFailureIsErrSourceRead(t *testing.T) {
	const spanBytes = 128 << 10
	plain := workloads.SilesiaLike(4*spanBytes, 5)
	for _, tc := range []struct {
		row     string
		indexed bool
	}{{"gzip", true}, {"lz4-nochecksum", false}} {
		fx := build(t, tc.row, plain, spanBytes)
		opts := []Option{WithoutIndexDiscovery(), WithChunkSize(spanBytes), WithParallelism(1)}
		if tc.indexed {
			opts = append(opts, WithIndexFile(fx.indexPath(t)))
		}
		for _, read := range []string{"prefix", "whole", "range"} {
			t.Run(fmt.Sprintf("%s/%s", tc.row, read), func(t *testing.T) {
				cfg, err := resolve(opts)
				if err != nil {
					t.Fatal(err)
				}
				f, err := filereader.OpenFile(fx.path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				src := &bandSource{FileReader: f}
				a, err := openArchive(src, fx.path, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				spans := a.cur.Load().eng.CheckpointTable().Spans
				if len(spans) < 3 {
					t.Fatalf("%d spans, want 4", len(spans))
				}
				s := spans[1]
				src.lo, src.hi = s.CompOff, s.CompOff+16
				buf := make([]byte, s.DecompSize)
				if read == "prefix" {
					buf = buf[:1]
				}
				do := func() error {
					if read == "range" {
						_, err := a.WriteRangeTo(context.Background(), io.Discard, s.DecompOff, s.DecompSize)
						return err
					}
					_, err := a.ReadAt(buf, s.DecompOff)
					return err
				}

				src.armed.Store(true)
				err = do()
				if !errors.Is(err, ErrSourceRead) || !errors.Is(err, errBadStretch) {
					t.Fatalf("a %s read over a bad stretch = %v, want ErrSourceRead with the source's error", read, err)
				}
				src.armed.Store(false)
				if err := do(); err != nil {
					t.Fatalf("the same read with the stretch readable: %v", err)
				}
				if read != "range" && string(buf) != string(plain[s.DecompOff:s.DecompOff+int64(len(buf))]) {
					t.Fatal("the same read with the stretch readable returned other bytes")
				}
			})
		}
	}
}
