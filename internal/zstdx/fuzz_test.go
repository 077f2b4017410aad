package zstdx

import (
	"bytes"
	"testing"

	"repro/internal/filereader"
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
		scan, serr := Codec{}.Scan(filereader.MemoryReader(data))
		if serr != nil {
			t.Fatalf("Decompress accepted what Codec.Scan rejects: %v", serr)
		}
		if scan.Flags&FlagMetadataSized != 0 {
			var total int64
			for _, s := range scan.Spans {
				total += s.DecompSize
			}
			if total != int64(len(out)) {
				t.Fatalf("declared sizes sum to %d, decoded %d bytes", total, len(out))
			}
		}
	})
}

// FuzzEncode holds the encoder to the decoder: any input, cut into
// frames and blocks of any size, at level 0 or 1, with or without
// checksums and content sizes, decodes to itself — through the sequence
// loop's window path and its checked reader alike.
func FuzzEncode(f *testing.F) {
	f.Add([]byte("seed data seed data seed data"), uint32(0), uint16(0), uint8(1))
	f.Add(bytes.Repeat([]byte("abcab"), 400), uint32(700), uint16(100), uint8(3))
	f.Add(workloads.SilesiaLike(20000, 3), uint32(0), uint16(2000), uint8(1))
	f.Add(workloads.SilesiaLike(30000, 4), uint32(12000), uint16(3000), uint8(5))
	f.Add(workloads.FASTQ(20000, 6), uint32(0), uint16(4096), uint8(3))
	f.Add(workloads.Random(5000, 2), uint32(0), uint16(1000), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, frameSize uint32, blockSize uint16, flags uint8) {
		opts := FrameOptions{
			FrameSize:       int(frameSize),
			BlockSize:       int(blockSize),
			Level:           int(flags & 1),
			ContentChecksum: flags&2 != 0,
			OmitContentSize: flags&4 != 0,
		}
		got, err := sameDecode(t, "encoded", CompressFrames(data, opts))
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%+v: decoded %d bytes of %d, or they differ", opts, len(got), len(data))
		}
	})
}
