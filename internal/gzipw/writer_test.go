package gzipw_test

// The sharded gzip writer is the root package's Writer with
// FormatGzip: its shard loop joins this package's AppendHeader,
// AppendShard and AppendTrailer. These tests drive it through the
// public API and tie its output to those encoders.

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	rapidgzip "repro"
	"repro/internal/crc32x"
	"repro/internal/gzformat"
	"repro/internal/gzipw"
)

// testPayload builds compressible-but-varied input.
func testPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dogs", "0123456789"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(4) == 0 {
			b.WriteByte(byte(rng.Intn(256)))
		}
		b.WriteByte(' ')
	}
	return b.Bytes()[:n]
}

func newGzipWriter(t *testing.T, out io.Writer, level, shard, p int) rapidgzip.Writer {
	t.Helper()
	w, err := rapidgzip.NewWriter(out, rapidgzip.WithWriterFormat(rapidgzip.FormatGzip),
		rapidgzip.WithLevel(level), rapidgzip.WithShardSize(shard), rapidgzip.WithWriterParallelism(p))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

func gunzip(t *testing.T, comp []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	dec, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

// TestWriterRoundTrip verifies parallel-sharded output decodes
// byte-exact with the stdlib across sizes straddling shard boundaries.
func TestWriterRoundTrip(t *testing.T) {
	shard := 8 << 10
	for _, n := range []int{0, 1, shard - 1, shard, shard + 1, 5*shard + 321} {
		for _, level := range []int{0, 1, 6} {
			data := testPayload(n, int64(n))
			var out bytes.Buffer
			w := newGzipWriter(t, &out, level, shard, 3)
			if _, err := w.Write(data); err != nil {
				t.Fatalf("n=%d level=%d Write: %v", n, level, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("n=%d level=%d Close: %v", n, level, err)
			}
			if got := w.Stats().CompressedBytes; got != uint64(out.Len()) {
				t.Fatalf("CompressedBytes = %d, wrote %d", got, out.Len())
			}
			if dec := gunzip(t, out.Bytes()); !bytes.Equal(dec, data) {
				t.Fatalf("n=%d level=%d round trip mismatch (%d vs %d bytes)", n, level, len(dec), len(data))
			}
		}
	}
}

// TestWriterReadFrom checks the io.ReaderFrom path matches Write.
func TestWriterReadFrom(t *testing.T) {
	data := testPayload(100_000, 7)
	var viaWrite, viaReadFrom bytes.Buffer
	w := newGzipWriter(t, &viaWrite, 6, 16<<10, 2)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = newGzipWriter(t, &viaReadFrom, 6, 16<<10, 2)
	n, err := w.ReadFrom(bytes.NewReader(data))
	if err != nil || n != int64(len(data)) {
		t.Fatalf("ReadFrom = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if dec := gunzip(t, viaReadFrom.Bytes()); !bytes.Equal(dec, data) {
		t.Fatal("round trip failed")
	}
	if !bytes.Equal(viaReadFrom.Bytes(), viaWrite.Bytes()) {
		t.Fatalf("ReadFrom wrote %d bytes, Write %d, or different ones", viaReadFrom.Len(), viaWrite.Len())
	}
}

// TestWriterCheckpoints asserts the shard segments tile the output
// exactly: the writer's bytes are the header, one AppendShard segment
// per shard and the 13-byte trailer; each segment starts byte-aligned
// and inflates on its own to its shard, with the CRC AppendShard
// reported; and the footer CRC is the GF(2) combination of those. The
// second case's shards are longer than DefaultBlockSize, so each
// segment holds several non-final blocks, as at the default shard size.
func TestWriterCheckpoints(t *testing.T) {
	const level = 6
	for _, tc := range []struct{ shard, n, shards int }{
		{10 << 10, 4*(10<<10) + 99, 5},
		{2*gzipw.DefaultBlockSize + 1<<10, 2*(2*gzipw.DefaultBlockSize+1<<10) + 99, 3},
	} {
		data := testPayload(tc.n, 3)
		var out bytes.Buffer
		w := newGzipWriter(t, &out, level, tc.shard, 4)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats().Shards; got != uint64(tc.shards) {
			t.Fatalf("shard %d: got %d shards, want %d", tc.shard, got, tc.shards)
		}

		want := gzipw.AppendHeader(nil)
		var crc uint32
		for off := 0; off < len(data); off += tc.shard {
			chunk := data[off:min(off+tc.shard, len(data))]
			start := len(want)
			var shardCRC uint32
			var err error
			if want, shardCRC, err = gzipw.AppendShard(want, chunk, level); err != nil {
				t.Fatal(err)
			}
			if len(want) <= start {
				t.Fatalf("shard at %d has an empty compressed extent", off)
			}
			if wantCRC := gzformat.UpdateCRC(0, chunk); shardCRC != wantCRC {
				t.Fatalf("shard at %d CRC %08x, want %08x", off, shardCRC, wantCRC)
			}
			got := make([]byte, len(chunk)+1)
			n, _ := io.ReadFull(flate.NewReader(bytes.NewReader(want[start:])), got)
			if !bytes.Equal(got[:n], chunk) {
				t.Fatalf("shard at %d does not inflate on its own to its %d bytes", off, len(chunk))
			}
			crc = crc32x.Combine(crc, shardCRC, int64(len(chunk)))
		}
		if crc != gzformat.UpdateCRC(0, data) {
			t.Fatalf("combined CRC %08x, want %08x", crc, gzformat.UpdateCRC(0, data))
		}
		want = gzipw.AppendTrailer(want, crc, int64(len(data)))
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("shard %d: writer output (%d bytes) is not header, shard segments and trailer (%d bytes)", tc.shard, out.Len(), len(want))
		}
		if got := binary.LittleEndian.Uint32(out.Bytes()[out.Len()-8:]); got != crc {
			t.Fatalf("footer CRC %08x, want %08x", got, crc)
		}
		if dec := gunzip(t, out.Bytes()); !bytes.Equal(dec, data) {
			t.Fatalf("shard %d: round trip mismatch (%d vs %d bytes)", tc.shard, len(dec), len(data))
		}
	}
}

// TestWriterErrors covers invalid options and write-after-close.
func TestWriterErrors(t *testing.T) {
	if _, err := rapidgzip.NewWriter(io.Discard, rapidgzip.WithLevel(10)); err == nil {
		t.Fatal("level 10 accepted")
	}
	if _, err := rapidgzip.NewWriter(io.Discard, rapidgzip.WithShardSize(-1)); err == nil {
		t.Fatal("negative shard size accepted")
	}
	w := newGzipWriter(t, io.Discard, 1, 0, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, rapidgzip.ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
