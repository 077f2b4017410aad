package gzindex_test

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
	"testing"

	rapidgzip "repro"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/workloads"
)

// TestColdExportWindowsInflateLikeFlate: every window of a cold export
// of each gzip row of the format matrix — the writer's sharded gzip,
// BGZF, and compress/gzip's one member — inflates with the kernel to
// what compress/flate makes of the same bytes.
func TestColdExportWindowsInflateLikeFlate(t *testing.T) {
	plain := workloads.SilesiaLike(1<<20, 64)
	for _, row := range []struct {
		name     string
		compress func([]byte) ([]byte, error)
	}{
		{"gzip", func(p []byte) ([]byte, error) {
			comp, _, err := gzipw.Compress(p, gzipw.Options{Level: 6})
			return comp, err
		}},
		{"bgzf", func(p []byte) ([]byte, error) {
			comp, _, err := gzipw.Compress(p, gzipw.Options{Level: 6, BGZF: true})
			return comp, err
		}},
		{"gzip-stdlib", func(p []byte) ([]byte, error) {
			var buf bytes.Buffer
			w, _ := gzip.NewWriterLevel(&buf, 6) // a valid level
			_, err := w.Write(p)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			return buf.Bytes(), err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			comp, err := row.compress(plain)
			if err != nil {
				t.Fatal(err)
			}
			a, err := rapidgzip.OpenBytes(comp, rapidgzip.WithChunkSize(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var exported bytes.Buffer
			if err := a.ExportIndex(&exported); err != nil {
				t.Fatal(err)
			}
			ix, err := gzindex.Read(&exported)
			if err != nil {
				t.Fatal(err)
			}
			windows := 0
			for i := 0; i < ix.Len(); i++ {
				p := ix.Point(i)
				w, ok := ix.Window(p.CompressedBitOffset)
				if !ok {
					continue
				}
				windows++
				stored, rawLen := w.Stored()
				want := make([]byte, rawLen)
				if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(stored)), want); err != nil {
					t.Fatalf("point %d: compress/flate: %v", i, err)
				}
				got, err := w.Bytes()
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("point %d: the kernel inflates %d bytes, %v; compress/flate %d", i, len(got), err, len(want))
				}
			}
			t.Logf("%d points, %d windows", ix.Len(), windows)
		})
	}
}
