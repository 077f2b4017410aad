package lz4x

import (
	"bytes"
	"testing"

	"repro/internal/filereader"
	"repro/internal/workloads"
)

// FuzzDecompress hardens the header walk an Archive opens an LZ4 file
// with, which the serial Decompress takes its frames from: arbitrary
// bytes, and encoder output cut short or with a bit flipped, must produce
// an error or a decode, never a panic or a hang. Whatever decodes, the
// codec's scan accepts, and the sizes its frames declare sum to the
// output.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x22, 0x4D, 0x18})
	f.Add(CompressFrames(nil, FrameOptions{}))
	f.Add(CompressFrames(bytes.Repeat([]byte{9}, 1000), FrameOptions{}))
	comp := CompressFrames(workloads.SilesiaLike(20000, 3), FrameOptions{
		BlockSize: 4 << 10, FrameSize: 7000, BlockChecksums: true, ContentChecksum: true,
	})
	f.Add(comp)
	for _, cut := range []int{5, 15, len(comp) / 3, len(comp) - 4} {
		f.Add(comp[:cut])
	}
	for _, bit := range []int{4*8 + 3, 6*8 + 1, 15 * 8, len(comp) * 4, len(comp)*8 - 5} {
		flipped := bytes.Clone(comp)
		flipped[bit>>3] ^= 1 << (bit & 7)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data)
		if err != nil {
			return
		}
		scan, serr := Codec{}.Scan(filereader.MemoryReader(data))
		if serr != nil {
			t.Fatalf("Decompress accepted what Codec.Scan rejects: %v", serr)
		}
		var total int64
		for _, s := range scan.Spans {
			total += s.DecompSize
		}
		if total != int64(len(out)) {
			t.Fatalf("declared sizes sum to %d, decoded %d bytes", total, len(out))
		}
	})
}
