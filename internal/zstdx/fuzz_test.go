package zstdx

import (
	"bytes"
	"testing"

	"repro/internal/workloads"
)

// FuzzDecompress hardens the newest parser in the tree: arbitrary
// bytes must produce an error or a decode, never a panic or a hang, and
// the sequence loop's window path must make of them exactly what the
// checked reader alone makes.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x28, 0xB5, 0x2F, 0xFD})
	f.Add(CompressFrames([]byte("seed data seed data seed data"), FrameOptions{Level: 1, ContentChecksum: true}))
	f.Add(CompressFrames(bytes.Repeat([]byte{9}, 1000), FrameOptions{}))
	f.Add(AppendSkippable(nil, []byte("skip")))
	f.Add(CompressFrames(workloads.SilesiaLike(20000, 3), FrameOptions{Level: 1, BlockSize: 5000}))
	for _, c := range craftedOutcomes {
		f.Add(c.frame())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := sameDecode(t, "input", data)
		if err != nil {
			return
		}
		// Whatever decoded must round-trip through the scanner's sizes.
		scan, serr := ScanFrames(data)
		if serr != nil {
			t.Fatalf("Decompress accepted what ScanFrames rejects: %v", serr)
		}
		if scan.Sized {
			var total int64
			for _, fr := range scan.Frames {
				total += fr.ContentSize
			}
			if total != int64(len(out)) {
				t.Fatalf("declared sizes sum to %d, decoded %d bytes", total, len(out))
			}
		}
	})
}
