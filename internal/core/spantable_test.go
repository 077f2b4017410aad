package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/filereader"
)

// stdGzip compresses data with compress/gzip at level 9.
func stdGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTinyChunksReadBack reads zeros at chunk sizes far below a deflate
// block: a match of zeros is a bit or two of input for 258 bytes of
// output, so several spans start inside one compressed byte. A span is
// its seek point, named by bits, so a cold pass serves the file. Its
// export imports and serves the same bytes, with their CRCs: the
// engine's byte extent of a span that shares its byte with the next is
// empty, which it takes from a codec that addresses bits.
//
// Below 1 KiB the file is the first MiB of the zeros: each span keeps a
// 32 KiB window while the index is built, and 4 MiB there are 16,000
// spans, over 600 MiB of windows.
func TestTinyChunksReadBack(t *testing.T) {
	if testing.Short() {
		t.Skip("confirms 26,000 spans, over a minute under the race detector")
	}
	zeros := make([]byte, 4<<20)
	for _, chunk := range []int{64, 256, 1 << 10, 4 << 10} {
		data := zeros
		if chunk < 1<<10 {
			data = zeros[:1<<20]
		}
		comp := stdGzip(t, data)
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("chunk=%d/P=%d", chunk, p), func(t *testing.T) {
				cfg := Config{Parallelism: p, ChunkSize: chunk, VerifyChecksums: true}
				r, err := NewReader(filereader.MemoryReader(comp), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out, ix bytes.Buffer
				_, err = r.WriteTo(&out)
				if err == nil {
					err = r.exportIndex(&ix)
				}
				spans := r.eng.NumSpans()
				r.Close()
				if err != nil || !bytes.Equal(out.Bytes(), data) {
					t.Fatalf("cold pass: %d of %d bytes, err %v", out.Len(), len(data), err)
				}

				back, err := NewReader(filereader.MemoryReader(comp), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer back.Close()
				if err := back.ImportIndex(&ix); err != nil {
					t.Fatalf("%d spans: import refused: %v", spans, err)
				}
				out.Reset()
				if _, err := back.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
					t.Fatalf("through the index: %d of %d bytes, err %v", out.Len(), len(data), err)
				}
				if ok, fails := back.gz().CRCStatus(); !ok || fails > 0 {
					t.Fatalf("CRC through the index: %v %d", ok, fails)
				}
				t.Logf("%d spans: the import serves the file", spans)
			})
		}
	}
}

// TestFailedUnitCommitsNothing reads a file whose second member's ISIZE
// is wrong. The unit that confirms both members fails, and it leaves the
// codec as it found it: every later read fails the same way, at the
// member that is wrong, rather than blaming the first member for a
// member start the failed unit had already moved.
func TestFailedUnitCommitsNothing(t *testing.T) {
	first, second := mkText(1, 12000), mkText(2, 12012)
	comp := append(stdGzip(t, first), stdGzip(t, second)...)
	comp[len(comp)-1] ^= 0x80 // the second footer's ISIZE
	r := open(t, comp, Config{Parallelism: 2})
	const want = "ISIZE mismatch at offset 24012"
	for pass := range 3 {
		_, err := r.WriteTo(io.Discard)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("pass %d: %v, want an error containing %q", pass, err, want)
		}
		buf := make([]byte, 100)
		if _, err := r.ReadAt(buf, 20000); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("pass %d: ReadAt: %v, want an error containing %q", pass, err, want)
		}
	}
	if n := r.eng.NumSpans(); n != 0 {
		t.Fatalf("the failed unit left %d spans", n)
	}
}
