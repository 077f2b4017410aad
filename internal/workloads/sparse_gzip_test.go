package workloads

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSparseGzipDecodesWithStdlib validates the gzip/BGZF sparse
// framings against an independent decoder: the emitted file must
// decode byte-exactly with compress/gzip (which also verifies every
// member's CRC32 and ISIZE — including the O(log n) zero-hole CRCs)
// and match the plan's ExpectedAt regeneration.
func TestSparseGzipDecodesWithStdlib(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, format   string
		content, frame int64
		blockSize      int
		seed           uint64
		dataFrames     []int
	}{
		{"gzip", "gzip", 1 << 20, 256 << 10, 60_000, 99, []int{0, 2}},
		{"gzip-ragged-tail", "gzip", 1<<20 - 12345, 256 << 10, 65535, 7, []int{3}},
		{"bgzf", "bgzf", 600_000, 65280, 0, 41, []int{0, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := os.Create(filepath.Join(dir, tc.name))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			plan, err := WriteSparse(f, tc.format, tc.content, tc.frame, tc.blockSize, tc.seed, tc.dataFrames)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != plan.CompressedSize {
				t.Fatalf("file is %d bytes, plan says %d", fi.Size(), plan.CompressedSize)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(zr)
			if err != nil {
				t.Fatalf("stdlib decode: %v", err)
			}
			if int64(len(got)) != plan.ContentSize {
				t.Fatalf("decoded %d bytes, want %d", len(got), plan.ContentSize)
			}
			if want := plan.ExpectedAt(0, int(plan.ContentSize)); !bytes.Equal(got, want) {
				t.Fatal("decoded content does not match the generation plan")
			}
		})
	}
}
