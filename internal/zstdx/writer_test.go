package zstdx_test

// The sharded zstd writer is the root package's Writer with
// FormatZstd: its shard loop encodes each shard as one sized frame
// with this package's AppendFrames. These tests drive it through the
// public API and check its output with this package's decoder and
// frame scan.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	rapidgzip "repro"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/zstdx"
)

func writerPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(5) == 0 {
			b.WriteByte(byte(rng.Intn(256)))
		}
	}
	return b.Bytes()[:n]
}

func newZstdWriter(t *testing.T, out io.Writer, opts ...rapidgzip.WriterOption) rapidgzip.Writer {
	t.Helper()
	w, err := rapidgzip.NewWriter(out, append([]rapidgzip.WriterOption{rapidgzip.WithWriterFormat(rapidgzip.FormatZstd)}, opts...)...)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

// TestZstdWriterRoundTrip checks parallel multi-frame output decodes
// byte-exact with this package's own decoder across boundary sizes.
func TestZstdWriterRoundTrip(t *testing.T) {
	shard := 8 << 10
	for _, n := range []int{0, 1, shard - 1, shard, shard + 1, 4*shard + 77} {
		for _, level := range []int{0, 1} {
			data := writerPayload(n, int64(n+level))
			var out bytes.Buffer
			w := newZstdWriter(t, &out, rapidgzip.WithLevel(level), rapidgzip.WithShardSize(shard),
				rapidgzip.WithWriterParallelism(3), rapidgzip.WithContentChecksum(true))
			if _, err := w.Write(data); err != nil {
				t.Fatalf("n=%d Write: %v", n, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("n=%d Close: %v", n, err)
			}
			dec, err := zstdx.Decompress(out.Bytes())
			if err != nil {
				t.Fatalf("n=%d level=%d decode: %v", n, level, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("n=%d level=%d round trip mismatch", n, level)
			}
		}
	}
}

// TestZstdWriterSized asserts the output is metadata-sized: the codec's
// scan recovers the full decode plan from headers alone — one frame per
// shard, tiling the output and the input — and no frame claims a
// checksum that was not asked for. The exported index carries the same
// frame table, flagged metadata-sized, and checksummed exactly when the
// frames are.
func TestZstdWriterSized(t *testing.T) {
	shard := 10 << 10
	data := writerPayload(3*shard+123, 9)
	for _, checksum := range []bool{false, true} {
		var out bytes.Buffer
		w := newZstdWriter(t, &out, rapidgzip.WithLevel(1), rapidgzip.WithShardSize(shard),
			rapidgzip.WithWriterParallelism(4), rapidgzip.WithContentChecksum(checksum))
		if _, err := w.ReadFrom(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		scan, err := zstdx.Codec{}.Scan(filereader.MemoryReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if scan.Flags&zstdx.FlagMetadataSized == 0 {
			t.Fatal("output not metadata-sized: a frame omitted its content size")
		}
		st := w.Stats()
		if len(scan.Spans) != int(st.Shards) || st.Shards != 4 {
			t.Fatalf("scan found %d frames, writer encoded %d shards, want 4", len(scan.Spans), st.Shards)
		}
		var comp, decomp int64
		for i, f := range scan.Spans {
			size := int64(min(shard, len(data)-int(decomp)))
			if f.CompOff != comp || f.DecompOff != decomp || f.DecompSize != size || f.CompEnd <= f.CompOff {
				t.Fatalf("frame %d %+v, want it at (%d,%d) holding %d bytes", i, f, comp, decomp, size)
			}
			// Bit 2 of the frame header descriptor, after the 4-byte
			// magic, is the content-checksum flag.
			if has := out.Bytes()[f.CompOff+4]&(1<<2) != 0; has != checksum {
				t.Fatalf("checksum=%v: frame %d has checksum %v", checksum, i, has)
			}
			comp, decomp = f.CompEnd, decomp+f.DecompSize
		}
		if comp != int64(out.Len()) || decomp != int64(len(data)) {
			t.Fatalf("frames cover (%d,%d), want (%d,%d)", comp, decomp, out.Len(), len(data))
		}
		if st.CompressedBytes != uint64(out.Len()) || st.UncompressedBytes != uint64(len(data)) {
			t.Fatalf("sizes (%d,%d), want (%d,%d)", st.CompressedBytes, st.UncompressedBytes, out.Len(), len(data))
		}

		var raw bytes.Buffer
		if err := w.ExportIndex(&raw); err != nil {
			t.Fatal(err)
		}
		ix, err := gzindex.Read(&raw)
		if err != nil {
			t.Fatal(err)
		}
		ct := ix.Checkpoints
		if ct == nil || ct.Format != zstdx.FormatTag {
			t.Fatalf("exported index has checkpoint table %+v, want a %q one", ct, zstdx.FormatTag)
		}
		wantFlags := zstdx.FlagMetadataSized
		if checksum {
			wantFlags |= zstdx.FlagChecksummed
		}
		if ct.Flags != wantFlags {
			t.Fatalf("checksum=%v: index flags %#x, want %#x", checksum, ct.Flags, wantFlags)
		}
		if len(ct.Spans) != len(scan.Spans) {
			t.Fatalf("index holds %d spans, scan %d frames", len(ct.Spans), len(scan.Spans))
		}
		for i, f := range scan.Spans {
			if ct.Spans[i] != gzindex.Checkpoint(f) {
				t.Fatalf("index span %d %+v, scan frame %+v", i, ct.Spans[i], f)
			}
		}
	}
}

// TestZstdWriterEmpty checks an empty input still yields one valid
// sized frame.
func TestZstdWriterEmpty(t *testing.T) {
	var out bytes.Buffer
	w := newZstdWriter(t, &out, rapidgzip.WithLevel(1))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("empty input produced no frame")
	}
	dec, err := zstdx.Decompress(out.Bytes())
	if err != nil || len(dec) != 0 {
		t.Fatalf("decode = %d bytes, %v", len(dec), err)
	}
	scan, err := zstdx.Codec{}.Scan(filereader.MemoryReader(out.Bytes()))
	if err != nil || len(scan.Spans) != 1 || scan.Flags&zstdx.FlagMetadataSized == 0 || w.Stats().Shards != 1 {
		t.Fatalf("scan %+v, %v with %d shards; want one sized frame", scan, err, w.Stats().Shards)
	}
}

// TestZstdWriterErrors covers invalid options and write-after-close.
func TestZstdWriterErrors(t *testing.T) {
	if _, err := rapidgzip.NewWriter(io.Discard, rapidgzip.WithWriterFormat(rapidgzip.FormatZstd), rapidgzip.WithShardSize(-1)); err == nil {
		t.Fatal("negative shard size accepted")
	}
	w := newZstdWriter(t, io.Discard)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, rapidgzip.ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
}
