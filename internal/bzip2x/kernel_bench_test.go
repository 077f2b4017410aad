package bzip2x

import (
	"slices"
	"testing"

	"repro/internal/workloads"
)

// crcSink keeps the CRC stage's result alive.
var crcSink uint32

// BenchmarkBzip2Block times the block decoder over the repo benchmark's
// corpus.bz2 shape — 1 MiB of SilesiaLike text at seed 1, level 1, four
// streams — stage by stage: the symbol loop (block header, tables,
// Huffman, MTF/RLE2 into the block's bytes), the inverse BWT and RLE1
// (with a copy of the block's bytes, which the walks overwrite), and the
// block CRC; and the whole decode as DecodeSpan runs it, output
// allocation included. Every stage reports MB/s of decoded output. It
// refuses a fixture of one block, or one whose symbols hold no RUNA/RUNB
// run, which would leave a stage unmeasured.
func BenchmarkBzip2Block(b *testing.B) {
	plain := workloads.SilesiaLike(1<<20, 1)
	comp, err := Compress(plain, WriterOptions{Level: 1, StreamSize: 1 << 18})
	if err != nil {
		b.Fatal(err)
	}
	// Every block of the file: where its header starts, its stream's
	// block size, its symbols as the loop leaves them, and its bytes.
	type fixtureBlock struct {
		pos, size int
		blk       block
		out       []byte
	}
	var blocks []fixtureBlock
	d := new(decoder)
	br := newBitReader(comp, 0)
	for br.bitPos() < len(comp)*8 {
		br.read(24) // "BZh"
		size := (int(br.read(8)) - '0') * 100_000
		for br.read(48) == blockMagic {
			fb := fixtureBlock{pos: br.bitPos(), size: size}
			if fb.blk, err = d.readBlock(&br, size); err != nil {
				b.Fatal(err)
			}
			fb.blk.ll = slices.Clone(fb.blk.ll)
			blk := fb.blk
			blk.ll = slices.Clone(blk.ll) // unBWT leaves the text in it
			fb.out = unBWT(nil, make([]uint32, len(blk.ll)), make([]uint32, len(blk.ll)), &blk)
			blocks = append(blocks, fb)
		}
		br.read(32)
		br.align()
	}
	runs := false
	for _, fb := range blocks {
		for i := 1; i < len(fb.blk.ll) && !runs; i++ {
			runs = fb.blk.ll[i] == fb.blk.ll[i-1]
		}
	}
	if len(blocks) < 2 || !runs {
		b.Fatalf("fixture has %d blocks, RUNA/RUNB runs %v: it would not measure every stage", len(blocks), runs)
	}

	b.Run("symbols", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fb := range blocks {
				br := newBitReader(comp, fb.pos)
				if _, err := d.readBlock(&br, fb.size); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("unbwt", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		out, tt, lf, ll := make([]byte, 0, 1<<18), make([]uint32, 100_000), make([]uint32, 100_000), make([]byte, 100_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, fb := range blocks {
				n := len(fb.blk.ll)
				blk := fb.blk
				blk.ll = ll[:n]
				copy(blk.ll, fb.blk.ll)
				out = unBWT(out[:0], tt[:n], lf[:n], &blk)
			}
		}
	})
	b.Run("crc", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fb := range blocks {
				crcSink = blockCRC(fb.out)
			}
		}
	})
	b.Run("span", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decode(comp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
