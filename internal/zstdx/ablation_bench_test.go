package zstdx

// Micro-benchmarks isolating the three kernels of the zstd decode path:
// Huffman symbol decode (decodeStream's wide-window loop), match copy
// (copyMatch's stepped stores and doubling memmoves), and the sequence
// loop (decodeSequences, literals and tables already decoded).
// BenchmarkDecodeFrames is the end-to-end composition the CI bench
// suite's zstd rows measure.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/workloads"
)

func huffStreamFixture(b *testing.B, n int) (*huffTable, []byte, []byte) {
	b.Helper()
	lit := workloads.SilesiaLike(n, 23)
	var freq [256]int
	for _, c := range lit {
		freq[c]++
	}
	lens := buildHuffLengths(&freq)
	if lens == nil {
		b.Fatal("degenerate fixture: fewer than two distinct symbols")
	}
	_, table, err := lengthsToTable(lens)
	if err != nil {
		b.Fatal(err)
	}
	return table, table.appendStream(nil, lit), lit
}

// BenchmarkHuffDecodeStream isolates symbol decode: one long stream,
// table already built, output buffer reused.
func BenchmarkHuffDecodeStream(b *testing.B) {
	table, stream, lit := huffStreamFixture(b, 1<<20)
	dst := make([]byte, len(lit))
	b.SetBytes(int64(len(lit)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := table.decodeStream(stream, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(dst, lit) {
		b.Fatal("round trip mismatch")
	}
}

// BenchmarkCopyMatch isolates match copy at the offset classes the
// copy kernel branches on: wide non-overlapping, overlapping dist<8
// (RLE-like), and overlapping dist just under the match length.
func BenchmarkCopyMatch(b *testing.B) {
	cases := []struct {
		name       string
		offset, ml int
	}{
		{"off64KiB-len32", 64 << 10, 32},
		{"off1-len64", 1, 64},
		{"off3-len64", 3, 64},
		{"off7-len300", 7, 300},
		{"off12-len18", 12, 18},
		{"off48-len64", 48, 64},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			seed := workloads.SilesiaLike(128<<10, 5)
			buf := append(seed, make([]byte, c.ml*1024+copySlack)...)
			p := len(seed)
			b.SetBytes(int64(c.ml))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p+c.ml+copySlack > len(buf) {
					p = len(seed)
				}
				copyMatch(buf, p, c.offset, c.ml)
				p += c.ml
			}
		})
	}
}

// BenchmarkDecodeFrames is the end-to-end kernel composition: decode a
// multi-frame archive produced by the package's own encoder.
func BenchmarkDecodeFrames(b *testing.B) {
	data := workloads.SilesiaLike(8<<20, 17)
	comp := CompressFrames(data, FrameOptions{Level: 1})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Decompress(comp)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(data) {
			b.Fatal("size mismatch")
		}
	}
}

// seqBlock is one compressed block of a frame stopped in front of its
// sequence loop: the decoder state, literals and bitstream the loop
// starts from, and where in the frame's output it appends.
type seqBlock struct {
	d        frameDecoder
	lit, seq []byte
	nbSeq    int
	outPos   int
}

// seqBlocks decodes frame (one frame with a declared content size) and
// returns its output, with the slack the loop reserves, and every block
// that has sequences.
func seqBlocks(tb testing.TB, frame []byte) (full []byte, blocks []seqBlock) {
	tb.Helper()
	h, err := parseFrameHeader(frame)
	if err != nil {
		tb.Fatal(err)
	}
	d := newFrameDecoder()
	d.limit = int(h.contentSize)
	full = make([]byte, 0, d.limit+copySlack)
	for p, last := h.headerLen, false; !last; {
		bh := uint32(frame[p]) | uint32(frame[p+1])<<8 | uint32(frame[p+2])<<16
		p += 3
		last = bh&1 != 0
		bsize := int(bh >> 3)
		switch bh >> 1 & 3 {
		case 0:
			full = append(full, frame[p:p+bsize]...)
			p += bsize
		case 1:
			full = append(full, bytes.Repeat(frame[p:p+1], bsize)...)
			p++
		default:
			lit, seq, nbSeq, err := d.blockSections(frame[p : p+bsize])
			if err != nil {
				tb.Fatal(err)
			}
			if nbSeq > 0 {
				// The block's tables live in storage the next block
				// rebuilds; its copy of the state keeps its own.
				c := *d
				c.ll, c.of, c.ml = cloneSeqTable(d.ll), cloneSeqTable(d.of), cloneSeqTable(d.ml)
				blocks = append(blocks, seqBlock{c, bytes.Clone(lit), seq, nbSeq, len(full)})
			}
			if full, err = d.decodeBlock(frame[p:p+bsize], full); err != nil {
				tb.Fatal(err)
			}
			p += bsize
		}
	}
	return full, blocks
}

func cloneSeqTable(t *seqTable) *seqTable {
	return &seqTable{log: t.log, cells: slices.Clone(t.cells)}
}

// BenchmarkSeqDecode times the sequence loop alone — literals decoded,
// tables built — over one 1 MiB frame of the bench corpus, compressed
// as the repository benchmark compresses it. It refuses a frame without
// a block that has sequences: there would be nothing to time.
func BenchmarkSeqDecode(b *testing.B) {
	data := workloads.SilesiaLike(1<<20, 1)
	full, blocks := seqBlocks(b, CompressFrames(data, FrameOptions{Level: 1, ContentChecksum: true}))
	if !bytes.Equal(full, data) {
		b.Fatal("round trip mismatch")
	}
	var seqs, produced int
	for i, blk := range blocks {
		seqs += blk.nbSeq
		end := len(full)
		if i+1 < len(blocks) {
			end = blocks[i+1].outPos
		}
		produced += end - blk.outPos
	}
	if seqs == 0 {
		b.Fatal("bench-corpus frame has no compressed block with sequences")
	}
	b.SetBytes(int64(produced))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			d := blk.d
			if _, err := d.decodeSequences(blk.seq, blk.lit, blk.nbSeq, full[:blk.outPos]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*seqs), "ns/seq")
	b.ReportMetric(float64(produced)/float64(seqs), "B/seq")
}
