package zstdx

import (
	"fmt"
	"math"

	"repro/internal/filereader"
)

// decompressTailOnly is Decompress with every sequence of every block
// read field by field through the checked reader — the definition the
// window path of decodeSequences is held to.
func decompressTailOnly(data []byte) ([]byte, error) {
	scan, err := Codec{}.Scan(filereader.MemoryReader(data))
	if err != nil {
		return nil, err
	}
	var out []byte
	for i, s := range scan.Spans {
		data := data[s.CompOff:s.CompEnd]
		fr, err := startFrame(data, s.DecompSize)
		if err == nil {
			fr.d.tailOnly = true
			_, err = fr.decode(data, 0, math.MaxInt)
		}
		if err != nil {
			return nil, fmt.Errorf("zstdx: frame %d: %w", i, err)
		}
		out = append(out, fr.out...)
	}
	return out, nil
}

// blockShape is what the encoder made of one block: its type (0 raw,
// 1 RLE, 2 compressed) and, for a compressed one, its number of
// sequences, the compression modes of its literal-length, offset and
// match-length tables, and how many of its sequences code a repeat
// offset with no literals before them.
type blockShape struct {
	btype, nbSeq int
	modes        [3]byte
	repNoLit     int
}

// encodeShapes runs CompressFrames' block loop over one frame of
// content and reports every block's shape.
func encodeShapes(content []byte, opts FrameOptions) []blockShape {
	opts = opts.withDefaults()
	e := getFrameEncoder(content, len(content))
	defer putFrameEncoder(e)
	var shapes []blockShape
	for start := 0; ; start += opts.BlockSize {
		end := min(start+opts.BlockSize, len(content))
		last := end == len(content)
		hdr := e.appendBlock(nil, start, end, last, opts.Level != 0)
		sh := blockShape{btype: int(hdr[0] >> 1 & 3)}
		if sh.btype == 2 {
			sh.nbSeq = len(e.seqs)
			if sh.nbSeq > 0 {
				sh.modes = [3]byte{e.ll.mode, e.of.mode, e.ml.mode}
			}
			for _, s := range e.seqs {
				if s.ll == 0 && s.offVal <= 3 {
					sh.repNoLit++
				}
			}
		}
		shapes = append(shapes, sh)
		if last {
			return shapes
		}
	}
}

// countShapes sums encodeShapes: blocks of each type, tables in each
// mode, and repeat offsets coded with no literals before them.
func countShapes(content []byte, opts FrameOptions) (types [3]int, modes [4]int, repNoLit int) {
	for _, sh := range encodeShapes(content, opts) {
		types[sh.btype]++
		if sh.nbSeq > 0 {
			for _, m := range sh.modes {
				modes[m]++
			}
		}
		repNoLit += sh.repNoLit
	}
	return types, modes, repNoLit
}
