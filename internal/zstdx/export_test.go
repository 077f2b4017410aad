package zstdx

import "fmt"

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
		d := newFrameDecoder()
		d.tailOnly = true
		content, err := d.decodeFrame(data[f.Offset:f.End])
		if err != nil {
			return nil, fmt.Errorf("zstdx: frame %d: %w", i, err)
		}
		out = append(out, content...)
	}
	return out, nil
}
