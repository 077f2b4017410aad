// Package zstdx decompresses Zstandard (RFC 8878) with frame-level
// parallelism and checkpointed random access — the fifth Archive
// format, and the paper's §4.9 best case: pzstd-style multi-frame
// files carry their decompressed extents in frame metadata, so the
// planning pass that gzip needs speculative block finding for is a
// header walk here, exactly as in the LZ4 backend. Frames that omit
// their content size are found by the same walk and sized by their first
// decode: the span engine grows their table as a first pass decodes it
// (spanengine's deferred sizes), so opening a file never decodes. Both
// run on the shared span engine through Codec (a header walk and a
// one-frame decode that can stop between blocks); the package has no
// reader of its own — the root package opens a zstd file as
// spanengine.New(src, Codec{}, cfg) — and the serial Decompress is the
// reference.
//
// The decoder is self-contained (FSE, Huffman, sequence execution,
// xxHash64) and handles the full single-pass format: raw/RLE/
// compressed blocks, all literal modes including treeless repeats,
// predefined/RLE/FSE/repeat sequence tables, repeat offsets, skippable
// frames and content checksums. Dictionaries are not supported.
package zstdx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/filereader"
	"repro/internal/xxhash"
)

// FrameMagic introduces every Zstandard frame.
const FrameMagic = 0xFD2FB528

// skippableMagicBase begins the 16-magic range of skippable frames
// (0x184D2A50 … 0x184D2A5F).
const skippableMagicBase = 0x184D2A50

// ErrNotZstd reports a missing frame magic.
var ErrNotZstd = errors.New("zstdx: not a Zstandard frame")

// ErrCorrupt reports malformed frame content. Test with errors.Is.
var ErrCorrupt = errors.New("zstdx: corrupt input")

// ErrChecksum reports a failed xxHash64 content-checksum verification.
var ErrChecksum = errors.New("zstdx: checksum mismatch")

func errCorrupt(detail string) error { return fmt.Errorf("%w: %s", ErrCorrupt, detail) }

// frameHeader is the parsed fixed part of one frame (§3.1.1.1).
type frameHeader struct {
	headerLen     int
	contentSize   int64 // -1 when the header omits it
	windowSize    int64
	dictID        uint32
	hasChecksum   bool
	singleSegment bool
}

func parseFrameHeader(data []byte) (frameHeader, error) {
	var h frameHeader
	if len(data) < 5 {
		return h, ErrNotZstd
	}
	if binary.LittleEndian.Uint32(data) != FrameMagic {
		return h, ErrNotZstd
	}
	fhd := data[4]
	if fhd&(1<<3) != 0 {
		return h, errCorrupt("reserved frame header bit set")
	}
	h.singleSegment = fhd&(1<<5) != 0
	h.hasChecksum = fhd&(1<<2) != 0
	fcsFlag := int(fhd >> 6)
	didFlag := int(fhd & 3)
	p := 5
	if !h.singleSegment {
		if len(data) < p+1 {
			return h, errCorrupt("truncated window descriptor")
		}
		wd := data[p]
		p++
		windowBase := int64(1) << (10 + wd>>3)
		h.windowSize = windowBase + windowBase/8*int64(wd&7)
	}
	didLen := [4]int{0, 1, 2, 4}[didFlag]
	if len(data) < p+didLen {
		return h, errCorrupt("truncated dictionary ID")
	}
	for i := 0; i < didLen; i++ {
		h.dictID |= uint32(data[p+i]) << (8 * i)
	}
	p += didLen
	fcsLen := [4]int{0, 2, 4, 8}[fcsFlag]
	if fcsFlag == 0 && h.singleSegment {
		fcsLen = 1
	}
	if len(data) < p+fcsLen {
		return h, errCorrupt("truncated frame content size")
	}
	switch fcsLen {
	case 0:
		h.contentSize = -1
	case 1:
		h.contentSize = int64(data[p])
	case 2:
		h.contentSize = int64(binary.LittleEndian.Uint16(data[p:])) + 256
	case 4:
		h.contentSize = int64(binary.LittleEndian.Uint32(data[p:]))
	case 8:
		u := binary.LittleEndian.Uint64(data[p:])
		if u > 1<<62 {
			return h, errCorrupt("absurd frame content size")
		}
		h.contentSize = int64(u)
	}
	p += fcsLen
	if h.singleSegment {
		h.windowSize = h.contentSize
	}
	h.headerLen = p
	return h, nil
}

// skipBlocks walks the block chain of one frame without decoding,
// returning the offset just past the last block and the most content the
// blocks can make: the size a raw or RLE block states,
// Block_Maximum_Size for a compressed one.
func skipBlocks(data []byte, p int) (end int, hold int64, err error) {
	for {
		if p+3 > len(data) {
			return 0, 0, errCorrupt("truncated block header")
		}
		bh := uint32(data[p]) | uint32(data[p+1])<<8 | uint32(data[p+2])<<16
		p += 3
		last := bh&1 != 0
		btype := bh >> 1 & 3
		bsize := int(bh >> 3)
		switch btype {
		case 0: // raw: payload is bsize bytes
			p += bsize
			hold += int64(bsize)
		case 1: // RLE: one byte regenerates bsize
			p++
			hold += int64(bsize)
		case 2: // compressed: payload is bsize bytes
			p += bsize
			hold += maxBlockSize
		default:
			return 0, 0, errCorrupt("reserved block type")
		}
		if p > len(data) {
			return 0, 0, errCorrupt("truncated block payload")
		}
		if last {
			return p, hold, nil
		}
	}
}

// frame is one frame's decode in progress: its header, the state its
// blocks share, the content so far and the frame-relative offset of the
// next block header. A frame without a content checksum can stop between
// blocks and go on later from there; nothing of the source is held
// meanwhile.
type frame struct {
	h    frameHeader
	d    *frameDecoder
	out  []byte
	size int64 // the content size, -1 while nobody has declared it
	p    int
}

// startFrame parses the header at the start of data, a frame's bytes, and
// returns the decode of that frame. size is its content size as a span
// table has it, or negative where the table leaves it to the decode; the
// header's own, where it has one, must agree. A known size allocates the
// content once, after a size the frame's blocks cannot hold is refused.
func startFrame(data []byte, size int64) (*frame, error) {
	h, err := parseFrameHeader(data)
	if err != nil {
		return nil, err
	}
	if h.dictID != 0 {
		return nil, fmt.Errorf("zstdx: frame requires dictionary %#x (dictionaries unsupported)", h.dictID)
	}
	switch {
	case size < 0:
		size = h.contentSize
	case h.contentSize >= 0 && h.contentSize != size:
		return nil, fmt.Errorf("%w: frame declares %d bytes, table says %d", ErrCorrupt, h.contentSize, size)
	}
	f := &frame{h: h, d: newFrameDecoder(), size: size, p: h.headerLen}
	f.d.blockMax = int(min(h.windowSize, maxBlockSize))
	if size >= 0 {
		if _, hold, err := skipBlocks(data, h.headerLen); err != nil {
			return nil, err
		} else if size > hold {
			return nil, errCorrupt("declared content size exceeds what the frame's blocks hold")
		}
		// The slack lets the last block's sequences store in place.
		f.out = make([]byte, 0, size+copySlack)
		f.d.limit = int(min(size, math.MaxInt))
		f.d.blockMax = min(f.d.blockMax, f.d.limit)
	}
	return f, nil
}

// decode runs f's blocks through data, the frame's bytes from frame
// offset off on, to the end of the frame, or in a frame without a content
// checksum until upTo bytes of content exist at a block boundary short of
// the declared end. A frame's content checksum is checked before any of
// its content is returned. It reports whether the frame is complete.
func (f *frame) decode(data []byte, off, upTo int) (done bool, err error) {
	d := f.d
	p := f.p - off
	for {
		if !f.h.hasChecksum && len(f.out) >= upTo && len(f.out) < d.limit {
			f.p = off + p
			return false, nil
		}
		if p+3 > len(data) {
			return false, errCorrupt("truncated block header")
		}
		bh := uint32(data[p]) | uint32(data[p+1])<<8 | uint32(data[p+2])<<16
		p += 3
		last := bh&1 != 0
		btype := bh >> 1 & 3
		bsize := int(bh >> 3)
		switch btype {
		case 0:
			if p+bsize > len(data) {
				return false, errCorrupt("truncated raw block")
			}
			if bsize > d.limit-len(f.out) {
				return false, errCorrupt("raw block past the frame's content size")
			}
			f.out = append(f.out, data[p:p+bsize]...)
			p += bsize
		case 1:
			if p >= len(data) || bsize > maxBlockSize {
				return false, errCorrupt("bad RLE block")
			}
			if bsize > d.limit-len(f.out) {
				return false, errCorrupt("RLE block past the frame's content size")
			}
			b := data[p]
			p++
			f.out = append(f.out, make([]byte, bsize)...)
			tail := f.out[len(f.out)-bsize:]
			for i := range tail {
				tail[i] = b
			}
		case 2:
			if p+bsize > len(data) {
				return false, errCorrupt("truncated compressed block")
			}
			if f.out, err = d.decodeBlock(data[p:p+bsize], f.out); err != nil {
				return false, err
			}
			p += bsize
		default:
			return false, errCorrupt("reserved block type")
		}
		if last {
			break
		}
	}
	if f.h.hasChecksum {
		if p+4 > len(data) {
			return false, errCorrupt("truncated content checksum")
		}
		if uint32(xxhash.Sum64(f.out, 0)) != binary.LittleEndian.Uint32(data[p:]) {
			return false, ErrChecksum
		}
	}
	if f.size >= 0 && int64(len(f.out)) != f.size {
		return false, fmt.Errorf("%w: frame decoded %d bytes, header declared %d", ErrCorrupt, len(f.out), f.size)
	}
	return true, nil
}

// Decompress inflates a (possibly multi-frame) Zstandard file
// serially, concatenating frame contents like `zstd -d`. Its frames come
// from the codec's scan, the header walk an Archive opens a file with.
func Decompress(data []byte) ([]byte, error) {
	scan, err := Codec{}.Scan(filereader.MemoryReader(data))
	if err != nil {
		return nil, err
	}
	var out []byte
	if scan.Flags&FlagMetadataSized != 0 {
		total := int64(0)
		for _, s := range scan.Spans {
			total += s.DecompSize
		}
		out = make([]byte, 0, min(total, 64<<20))
	}
	for i, s := range scan.Spans {
		data := data[s.CompOff:s.CompEnd]
		fr, err := startFrame(data, s.DecompSize)
		if err == nil {
			_, err = fr.decode(data, 0, math.MaxInt)
		}
		if err != nil {
			return nil, fmt.Errorf("zstdx: frame %d: %w", i, err)
		}
		out = append(out, fr.out...)
	}
	return out, nil
}
