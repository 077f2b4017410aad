package rapidgzip

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/gzipw"
	"repro/internal/zstdx"
)

// FuzzWriterRoundTrip drives the write side with arbitrary payloads
// and option combinations, and requires every archive it produces to
// decode byte-exact through Open. The writer must never emit an
// archive its own reader rejects — that invariant is the whole point
// of a symmetric Create/Open surface. BGZF and zstd output must also
// equal what gzipw.Compress and zstdx.CompressFrames make of the same
// input, since the writer shares their encoders.
func FuzzWriterRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), uint8(0), uint16(64), uint8(6))
	f.Add([]byte{}, uint8(1), uint16(1), uint8(0))
	f.Add(bytes.Repeat([]byte("abc"), 5000), uint8(2), uint16(512), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 255}, uint8(2), uint16(2), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, formatSel uint8, shardKiB uint16, level uint8) {
		format := []Format{FormatGzip, FormatBGZF, FormatZstd}[int(formatSel)%3]
		// Small shards exercise many boundaries; cap the count so a
		// large fuzz payload cannot explode the shard table.
		shard, lvl := max(int(shardKiB)*64, 1024), int(level)%10
		opts := []WriterOption{
			WithWriterFormat(format),
			WithWriterParallelism(2),
			WithShardSize(shard),
			WithLevel(lvl),
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts...)
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		a, err := OpenBytes(buf.Bytes(), WithParallelism(2))
		if err != nil {
			t.Fatalf("OpenBytes rejected our own output: %v", err)
		}
		defer a.Close()
		got, err := io.ReadAll(a)
		if err != nil {
			t.Fatalf("decoding our own output: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: wrote %d bytes, read %d", len(data), len(got))
		}
		var want []byte
		switch format {
		case FormatBGZF:
			want = gzipw.BGZFEOFMarker // an empty input is the EOF member alone
			if len(data) == 0 {
				break
			}
			if want, _, err = gzipw.Compress(data, gzipw.Options{Level: lvl, BGZF: true}); err != nil {
				t.Fatal(err)
			}
		case FormatZstd:
			want = zstdx.CompressFrames(data, zstdx.FrameOptions{FrameSize: shard, Level: lvl})
		default:
			return
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v output (%d bytes) differs from its encoder's (%d bytes)", format, buf.Len(), len(want))
		}
	})
}
