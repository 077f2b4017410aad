package zstdx

import (
	"fmt"
	"math"
)

// decompressTailOnly is Decompress with every sequence of every block
// read field by field through the checked reader — the definition the
// window path of decodeSequences is held to.
func decompressTailOnly(data []byte) ([]byte, error) {
	scan, err := ScanFrames(data)
	if err != nil {
		return nil, err
	}
	var out []byte
	for i, f := range scan.Frames {
		data := data[f.Offset:f.End]
		fr, err := startFrame(data, f.ContentSize)
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
