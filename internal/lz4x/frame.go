package lz4x

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/filereader"
	"repro/internal/xxhash"
)

// FrameMagic introduces every LZ4 frame.
const FrameMagic = 0x184D2204

// ErrNotLZ4 reports a missing frame magic.
var ErrNotLZ4 = errors.New("lz4x: not an LZ4 frame")

// ErrChecksum reports a failed xxHash32 verification.
var ErrChecksum = errors.New("lz4x: checksum mismatch")

// FLG bits (frame descriptor).
const (
	flgVersion      = 1 << 6
	flgBlockIndep   = 1 << 5
	flgBlockCheck   = 1 << 4
	flgContentSize  = 1 << 3
	flgContentCheck = 1 << 2
)

// FrameOptions configures CompressFrames.
type FrameOptions struct {
	// BlockSize is the uncompressed bytes per block (max 4 MiB); zero
	// selects 64 KiB. It is rounded up to the nearest frame-format
	// block-maximum class (64K/256K/1M/4M).
	BlockSize int
	// FrameSize splits the input into independent frames of this many
	// uncompressed bytes. Zero writes a single frame. Multi-frame files
	// are the pzstd-style trivially parallelizable structure (§4.9:
	// "For pzstd, Zstandard files with more than one frame are
	// required").
	FrameSize int
	// BlockChecksums appends an xxHash32 to every block.
	BlockChecksums bool
	// ContentChecksum appends an xxHash32 of the whole frame content.
	ContentChecksum bool
}

func (o FrameOptions) withDefaults() FrameOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.BlockSize > 4<<20 {
		o.BlockSize = 4 << 20
	}
	return o
}

// bdClass returns the BD byte value and actual maximum for a block size.
func bdClass(blockSize int) (byte, int) {
	switch {
	case blockSize <= 64<<10:
		return 4 << 4, 64 << 10
	case blockSize <= 256<<10:
		return 5 << 4, 256 << 10
	case blockSize <= 1<<20:
		return 6 << 4, 1 << 20
	default:
		return 7 << 4, 4 << 20
	}
}

// CompressFrames compresses data into one or more LZ4 frames. Every
// frame carries its uncompressed content size, which is what allows
// the scanner to plan parallel decompression without decoding.
func CompressFrames(data []byte, opts FrameOptions) []byte {
	opts = opts.withDefaults()
	frameSize := opts.FrameSize
	if frameSize <= 0 {
		frameSize = len(data)
	}
	var out []byte
	for start := 0; ; start += frameSize {
		end := start + frameSize
		if end > len(data) {
			end = len(data)
		}
		out = appendFrame(out, data[start:end], opts)
		if end == len(data) {
			break
		}
	}
	return out
}

func appendFrame(out, content []byte, opts FrameOptions) []byte {
	out = binary.LittleEndian.AppendUint32(out, FrameMagic)
	flg := byte(flgVersion | flgBlockIndep | flgContentSize)
	if opts.BlockChecksums {
		flg |= flgBlockCheck
	}
	if opts.ContentChecksum {
		flg |= flgContentCheck
	}
	bd, _ := bdClass(opts.BlockSize)
	descStart := len(out)
	out = append(out, flg, bd)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(content)))
	out = append(out, byte(xxhash.Sum32(out[descStart:], 0)>>8)) // HC byte

	for off := 0; off < len(content) || (off == 0 && len(content) == 0); off += opts.BlockSize {
		end := off + opts.BlockSize
		if end > len(content) {
			end = len(content)
		}
		raw := content[off:end]
		comp := CompressBlock(raw, nil)
		if len(comp) >= len(raw) && len(raw) > 0 {
			// Store incompressible blocks with the high bit set.
			out = binary.LittleEndian.AppendUint32(out, uint32(len(raw))|1<<31)
			out = append(out, raw...)
			if opts.BlockChecksums {
				out = binary.LittleEndian.AppendUint32(out, xxhash.Sum32(raw, 0))
			}
		} else {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(comp)))
			out = append(out, comp...)
			if opts.BlockChecksums {
				out = binary.LittleEndian.AppendUint32(out, xxhash.Sum32(comp, 0))
			}
		}
		if len(content) == 0 {
			break
		}
	}
	out = binary.LittleEndian.AppendUint32(out, 0) // EndMark
	if opts.ContentChecksum {
		out = binary.LittleEndian.AppendUint32(out, xxhash.Sum32(content, 0))
	}
	return out
}

// frameHeader is the parsed fixed part of a frame.
type frameHeader struct {
	flg, bd     byte
	contentSize int
	headerLen   int
}

func parseFrameHeader(data []byte) (frameHeader, error) {
	var h frameHeader
	if len(data) < 7 {
		return h, ErrNotLZ4
	}
	if binary.LittleEndian.Uint32(data) != FrameMagic {
		return h, ErrNotLZ4
	}
	h.flg = data[4]
	h.bd = data[5]
	if h.flg&0xC0 != flgVersion {
		return h, fmt.Errorf("lz4x: unsupported frame version %#x", h.flg>>6)
	}
	p := 6
	if h.flg&flgContentSize != 0 {
		if len(data) < p+9 {
			return h, ErrNotLZ4
		}
		h.contentSize = int(binary.LittleEndian.Uint64(data[p:]))
		p += 8
	} else {
		h.contentSize = -1
	}
	hc := data[p]
	p++
	if byte(xxhash.Sum32(data[4:p-1], 0)>>8) != hc {
		return h, fmt.Errorf("lz4x: header checksum mismatch")
	}
	h.headerLen = p
	return h, nil
}

// blockMaxes maps a frame descriptor's block-maximum class to its size
// (zero: a class the format does not define).
var blockMaxes = [8]int{4: 64 << 10, 5: 256 << 10, 6: 1 << 20, 7: 4 << 20}

// frame is one frame's decode in progress: its header, its content (out,
// allocated once at the declared size), how much of that exists, and the
// frame-relative offset of the next block's size field. A frame without
// a content checksum can stop between blocks and go on later from there;
// nothing of the source is held meanwhile.
type frame struct {
	h   frameHeader
	out []byte
	dp  int
	p   int64
}

// startFrame parses the header at the start of data, a frame's bytes, and
// returns the decode of that frame into out.
func startFrame(data, out []byte) (*frame, error) {
	h, err := parseFrameHeader(data)
	if err != nil {
		return nil, err
	}
	if blockMaxes[(h.bd>>4)&7] == 0 {
		return nil, fmt.Errorf("lz4x: invalid BD byte %#x", h.bd)
	}
	return &frame{h: h, out: out, p: int64(h.headerLen)}, nil
}

// decode runs f's blocks through data, the frame's bytes from frame
// offset off on, to the end of the frame, or in a frame without a content
// checksum until upTo bytes of content exist at a block boundary short of
// the end. A block's checksum is checked before the block is decoded, and
// a frame's content checksum before any of its content is returned. It
// reports whether the frame is complete.
func (f *frame) decode(data []byte, off int64, upTo int) (done bool, err error) {
	blockMax := blockMaxes[(f.h.bd>>4)&7]
	pausable := f.h.flg&flgContentCheck == 0
	dst := f.out
	p := int(f.p - off)
	for {
		if pausable && f.dp >= upTo && f.dp < len(dst) {
			f.p = off + int64(p)
			return false, nil
		}
		if p+4 > len(data) {
			return false, ErrCorrupt
		}
		bsize := binary.LittleEndian.Uint32(data[p:])
		p += 4
		if bsize == 0 {
			break
		}
		stored := bsize&(1<<31) != 0
		n := int(bsize &^ (1 << 31))
		if n > blockMax+blockMax/255+16 || p+n > len(data) {
			return false, ErrCorrupt
		}
		payload := data[p : p+n]
		p += n
		if f.h.flg&flgBlockCheck != 0 {
			if p+4 > len(data) {
				return false, ErrCorrupt
			}
			if binary.LittleEndian.Uint32(data[p:]) != xxhash.Sum32(payload, 0) {
				return false, ErrChecksum
			}
			p += 4
		}
		if stored {
			if f.dp+n > len(dst) {
				return false, ErrCorrupt
			}
			copy(dst[f.dp:], payload)
			f.dp += n
		} else {
			// A compressed block inflates to at most blockMax bytes and
			// never past the declared content size.
			end := min(f.dp+blockMax, len(dst))
			// Linked blocks: matches may reach back into earlier blocks
			// of the same frame, so the frame output so far is history.
			hist := 0
			if f.h.flg&flgBlockIndep == 0 {
				hist = f.dp
			}
			out, err := decodeBlock(payload, dst[f.dp-hist:end], hist)
			if err != nil {
				return false, err
			}
			f.dp += out
		}
	}
	if !pausable {
		if p+4 > len(data) {
			return false, ErrCorrupt
		}
		if binary.LittleEndian.Uint32(data[p:]) != xxhash.Sum32(dst[:f.dp], 0) {
			return false, ErrChecksum
		}
	}
	if f.dp != len(dst) {
		return false, fmt.Errorf("lz4x: frame decoded %d bytes, header declared %d", f.dp, len(dst))
	}
	return true, nil
}

// Decompress inflates a (possibly multi-frame) LZ4 file serially. Its
// frames come from the codec's scan, the header walk an Archive opens a
// file with.
func Decompress(data []byte) ([]byte, error) {
	scan, err := Codec{}.Scan(filereader.MemoryReader(data))
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range scan.Spans {
		total += s.DecompSize
	}
	out := make([]byte, total)
	for _, s := range scan.Spans {
		data := data[s.CompOff:s.CompEnd]
		f, err := startFrame(data, out[s.DecompOff:s.DecompOff+s.DecompSize])
		if err == nil {
			_, err = f.decode(data, 0, len(f.out))
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
