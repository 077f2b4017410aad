package deflate

// Micro-benchmarks isolating the costs the chunk-level ablation rows
// (ablation_bench_test.go) blend together: back-reference copies off the
// fast path (appendCopyWithin), pure symbol decode on a match-free
// stream, the table builds in front of every Dynamic block, and — in
// internal/bitio — the wide-refill discipline itself
// (BenchmarkViewCommitRefill). Together they localise a chunk-decode
// regression to one kernel without profiling.

import (
	"bytes"
	"compress/flate"
	"fmt"
	"testing"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/workloads"
)

// BenchmarkAppendCopyWithin sweeps the copy kernel's regimes: long
// non-overlapping memmoves, the dist < 8 run-replication path that the
// 8-byte-wide copies must keep overlap-safe, and short in-between
// distances.
func BenchmarkAppendCopyWithin(b *testing.B) {
	cases := []struct{ dist, length int }{
		{32 << 10, 64}, // far history: single memmove
		{1, 64},        // RLE: maximal overlap
		{3, 64},        // dist < 8, non-power-of-two pattern
		{7, 300},       // dist < 8, long replication
		{48, 64},       // short but non-overlapping
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("dist=%d,len=%d", c.dist, c.length), func(b *testing.B) {
			base := make([]byte, 64<<10, 8<<20)
			for i := range base {
				base[i] = byte(i * 31)
			}
			out := base
			b.SetBytes(int64(c.length))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(out)+c.length > cap(out) {
					out = out[:64<<10]
				}
				out = appendCopyWithin(out, c.dist, c.length)
			}
		})
	}
}

// BenchmarkSymbolDecode decodes a match-free deflate stream
// (flate.HuffmanOnly never emits back-references), so the measured loop
// is exactly table lookup + literal store + refill — the symbol-decode
// kernel with the copy kernel ablated away. The input is FASTQ text,
// whose skewed byte distribution Huffman coding shrinks: bytes it cannot
// shrink come out as stored blocks, and the benchmark would time a
// memcpy. It fails rather than do that.
func BenchmarkSymbolDecode(b *testing.B) {
	// Sixteen of the writer's blocks of 65535 bytes: a shorter tail would
	// be stored as well.
	data := workloads.FASTQ(16*65535, 99)
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.HuffmanOnly)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		b.Fatal(err)
	}
	// DecodeChunk expects a gzip footer after the final block; zero pad
	// stands in for one (the decode stops at the final block first).
	stream := append(comp.Bytes(), make([]byte, 8)...)
	decode := func() *ChunkResult {
		var dec Decoder
		cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(stream), ChunkConfig{
			Stop: StopAtEOF, SizeHint: len(data),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cr.TotalOut() != uint64(len(data)) {
			b.Fatalf("decoded %d, want %d", cr.TotalOut(), len(data))
		}
		return cr
	}
	// Every block Huffman-coded, and not one symbol a match.
	var dec Decoder
	br := bitio.NewBitReaderBytes(stream)
	dec.Reset(br)
	for _, bs := range decode().BlockStarts {
		if bs.Final && bs.DecompOffset == uint64(len(data)) {
			break // the empty stored block the writer closes the stream with
		}
		if bs.Type != BlockDynamic {
			b.Fatalf("block at bit %d is %v: the benchmark must decode symbols, not copy stored bytes", bs.Bit, bs.Type)
		}
		if err := br.SeekBits(bs.Bit + 3); err != nil {
			b.Fatal(err)
		}
		if r := dec.ParseDynamicHeader(); r != RejectNone {
			b.Fatal(r)
		}
		lit, _ := dec.codes()
		for {
			e, err := lit.DecodeEntry(br)
			if err != nil {
				b.Fatal(err)
			}
			if e&huffman.EndOfBlock != 0 {
				break
			}
			if e&huffman.Literal == 0 {
				b.Fatalf("block at bit %d holds a match", bs.Bit)
			}
		}
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// BenchmarkTableBuild parses the Dynamic block headers of the bench
// corpus (bench/: SilesiaLike through compress/gzip at level 6) one after
// the other: the precode, the code lengths and both table builds, which
// is what a block costs before its first symbol.
func BenchmarkTableBuild(b *testing.B) {
	comp := gzipCompress(b, workloads.SilesiaLike(4<<20, 1), 6)
	_, cr := decodeAll(b, comp)
	var headers []uint64
	for _, bs := range cr.BlockStarts {
		if bs.Type == BlockDynamic {
			headers = append(headers, bs.Bit+3)
		}
	}
	if len(headers) < 10 {
		b.Fatalf("%d dynamic blocks", len(headers))
	}
	var dec Decoder
	br := bitio.NewBitReaderBytes(comp)
	dec.Reset(br)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.SeekBits(headers[i%len(headers)]); err != nil {
			b.Fatal(err)
		}
		if r := dec.ParseDynamicHeader(); r != RejectNone {
			b.Fatal(r)
		}
	}
}
