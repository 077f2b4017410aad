// Package bzip2x is the bzip2 leg of the reproduction: a from-scratch
// bzip2 compressor (RLE1 → BWT → MTF/RLE2 → Huffman, validated against
// the standard library's decompressor), a block decoder of its own
// (decode.go: Huffman → MTF/RLE2 → inverse BWT → RLE1, held to
// compress/bzip2 by differential tests), and Codec, which splits
// multi-stream files at stream magics so that the shared span engine
// decodes the streams concurrently — the lbzip2 scheme. The package has
// no reader of its own: the root package opens a bzip2 file as
// spanengine.New(src, Codec{}, cfg).
//
// The paper's Figure 5 notes that the rapidgzip chunk-fetcher
// architecture had already been instantiated for bzip2
// (Bzip2BlockFetcher), and Table 4 benchmarks lbzip2 as the bzip2
// analog of parallel gzip decompression. bzip2 is a far easier target
// than gzip: blocks are self-contained (no LZ window crosses a block
// boundary), so no two-stage decoding or marker replacement is needed —
// which is precisely why the gzip problem required the paper.
//
// Random access runs on the shared span engine in its growing mode:
// opening a file scans it for stream magics and decodes nothing,
// the span table grows as streams are first decoded — a false-positive
// magic is merged away when the stream it cut short fails to decode — and
// a first pass over the file therefore decodes it exactly once.
package bzip2x

import (
	"errors"
	"fmt"
)

// WriterOptions configures Compress.
type WriterOptions struct {
	// Level selects the block size, level * 100 kB, like bzip2 -1..-9.
	// Zero means 9.
	Level int
	// StreamSize > 0 splits the input into independent bzip2 streams of
	// this many uncompressed bytes each — the structure pbzip2/lbzip2
	// produce and the unit of parallel decompression. Zero emits a
	// single stream (possibly with many blocks).
	StreamSize int
}

func (o WriterOptions) withDefaults() (WriterOptions, error) {
	if o.Level == 0 {
		o.Level = 9
	}
	if o.Level < 1 || o.Level > 9 {
		return o, fmt.Errorf("bzip2x: invalid level %d", o.Level)
	}
	return o, nil
}

// Compress produces a bzip2 file (one or more concatenated streams).
func Compress(data []byte, opts WriterOptions) ([]byte, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	streamSize := opts.StreamSize
	if streamSize <= 0 {
		streamSize = len(data)
	}
	var out []byte
	for start := 0; ; start += streamSize {
		end := start + streamSize
		if end > len(data) {
			end = len(data)
		}
		stream, err := compressStream(data[start:end], opts.Level)
		if err != nil {
			return nil, err
		}
		out = append(out, stream...)
		if end == len(data) {
			break
		}
	}
	return out, nil
}

// compressStream emits one complete bzip2 stream.
func compressStream(data []byte, level int) ([]byte, error) {
	w := &msbWriter{}
	w.writeBits(uint64('B'), 8)
	w.writeBits(uint64('Z'), 8)
	w.writeBits(uint64('h'), 8)
	w.writeBits(uint64('0'+level), 8)

	// The block limit applies to the post-RLE1 length; reserve the
	// safety margin bzlib uses.
	limit := level*100_000 - 20
	combined := uint32(0)
	for len(data) > 0 {
		p := rle1SplitPoint(data, limit)
		if p == 0 {
			return nil, errors.New("bzip2x: block split made no progress")
		}
		crc, err := encodeBlock(w, data[:p])
		if err != nil {
			return nil, err
		}
		combined = combineCRC(combined, crc)
		data = data[p:]
	}
	w.writeBits(footerMagic, 48)
	w.writeBits(uint64(combined), 32)
	w.align()
	return w.bytes(), nil
}
