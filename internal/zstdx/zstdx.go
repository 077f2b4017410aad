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

// FrameInfo locates one data frame inside a (possibly multi-frame,
// possibly skippable-frame-interleaved) Zstandard file. Fields are
// int64: the scan also runs over positional readers, where offsets are
// not bounded by a slice length (files can exceed 2 GiB on 32-bit
// platforms).
type FrameInfo struct {
	// Offset is the byte position of the frame magic; End is just past
	// the frame (including any content checksum).
	Offset, End int64
	// ContentSize is the declared decompressed size, or -1 when the
	// frame header omits it (the frame's first decode sizes it).
	ContentSize int64
	// ContentStart is the decompressed offset of this frame's content.
	ContentStart int64
	// HasChecksum reports a trailing xxHash64 content checksum.
	HasChecksum bool
}

// ScanResult is the outcome of the planning pass over a file.
type ScanResult struct {
	Frames []FrameInfo
	// Skippable counts skippable frames (they carry no content).
	Skippable int
	// Sized reports that every frame declares its content size, the
	// precondition for parallel decode and metadata-only ReadAt plans.
	Sized bool
}

// ScanFramesReader is ScanFrames over a positional reader: frame and
// block headers are read one read each, and block payloads (plus
// skippable frames) are skipped without reading them, so sizing a
// multi-gigabyte file touches only its metadata bytes. Memory-backed
// sources take the zero-copy whole-buffer path.
func ScanFramesReader(src filereader.FileReader) (ScanResult, error) {
	if data, ok := filereader.Bytes(src); ok {
		return ScanFrames(data)
	}
	w := filereader.NewWalker(src)
	res := ScanResult{Sized: true}
	var contentPos int64
	for w.Remaining() > 0 {
		pos := w.Pos()
		// The fixed header is at most 18 bytes (magic, FHD, window
		// descriptor, 4-byte dict ID, 8-byte content size), and the
		// first block header usually follows within them; peek what the
		// file still has and let the parser report truncation.
		hdr, err := w.Peek(int(min(18, w.Remaining())))
		if err != nil {
			return res, fmt.Errorf("frame %d at offset %d: %w", len(res.Frames), pos, err)
		}
		if len(hdr) >= 8 && binary.LittleEndian.Uint32(hdr)&^0xF == skippableMagicBase {
			w.Skip(8 + int64(binary.LittleEndian.Uint32(hdr[4:])))
			if w.Remaining() < 0 {
				return res, errCorrupt("truncated skippable frame")
			}
			res.Skippable++
			continue
		}
		h, err := parseFrameHeader(hdr)
		if err != nil {
			return res, fmt.Errorf("frame %d at offset %d: %w", len(res.Frames), pos, err)
		}
		w.Skip(int64(h.headerLen))
		for {
			bh3, err := w.Next(3)
			if err != nil {
				// A pread failure is a storage problem, not corrupt data:
				// pass it through with its filereader.ErrIO mark intact and
				// reserve ErrCorrupt for genuine truncation.
				if errors.Is(err, filereader.ErrIO) {
					return res, fmt.Errorf("block header at offset %d: %w", w.Pos(), err)
				}
				return res, fmt.Errorf("%w: truncated block header: %w", ErrCorrupt, err)
			}
			bh := uint32(bh3[0]) | uint32(bh3[1])<<8 | uint32(bh3[2])<<16
			switch bh >> 1 & 3 {
			case 0, 2: // raw, compressed: payload is bsize bytes
				w.Skip(int64(bh >> 3))
			case 1: // RLE: one byte regenerates bsize
				w.Skip(1)
			default:
				return res, errCorrupt("reserved block type")
			}
			if w.Remaining() < 0 {
				return res, errCorrupt("truncated block payload")
			}
			if bh&1 != 0 {
				break
			}
		}
		if h.hasChecksum {
			w.Skip(4)
			if w.Remaining() < 0 {
				return res, errCorrupt("truncated content checksum")
			}
		}
		end := w.Pos()
		// Same forged-header bound as the in-memory scan: an RLE block
		// is the densest construct, 4 bytes regenerating 128 KiB.
		if h.contentSize > (end-pos)*(maxBlockSize/4)+maxBlockSize {
			return res, errCorrupt("declared content size exceeds maximum expansion")
		}
		f := FrameInfo{
			Offset:      pos,
			End:         end,
			ContentSize: h.contentSize,
			HasChecksum: h.hasChecksum,
		}
		if h.contentSize < 0 || !res.Sized {
			res.Sized = false
			f.ContentStart = -1
			if h.contentSize < 0 {
				f.ContentSize = -1
			}
		} else {
			f.ContentStart = contentPos
			contentPos += h.contentSize
		}
		res.Frames = append(res.Frames, f)
	}
	return res, nil
}

// ScanFrames walks a Zstandard file without decompressing: frame
// headers plus per-block size fields locate every frame boundary, and
// frames that carry Frame_Content_Size yield their decompressed
// extents for free — the §4.9 "trivially parallelizable" metadata.
func ScanFrames(data []byte) (ScanResult, error) {
	res := ScanResult{Sized: true}
	pos, contentPos := 0, 0
	for pos < len(data) {
		if len(data)-pos >= 8 {
			magic := binary.LittleEndian.Uint32(data[pos:])
			if magic&^0xF == skippableMagicBase {
				size := int(binary.LittleEndian.Uint32(data[pos+4:]))
				if pos+8+size > len(data) {
					return res, errCorrupt("truncated skippable frame")
				}
				pos += 8 + size
				res.Skippable++
				continue
			}
		}
		h, err := parseFrameHeader(data[pos:])
		if err != nil {
			return res, fmt.Errorf("frame %d at offset %d: %w", len(res.Frames), pos, err)
		}
		end, _, err := skipBlocks(data[pos:], h.headerLen)
		if err != nil {
			return res, fmt.Errorf("frame %d at offset %d: %w", len(res.Frames), pos, err)
		}
		if h.hasChecksum {
			end += 4
			if pos+end > len(data) {
				return res, errCorrupt("truncated content checksum")
			}
		}
		// An RLE block is the format's densest construct: 4 bytes
		// regenerate at most 128 KiB. A declared size beyond that bound
		// is a forged header — reject it before anyone allocates for it.
		if h.contentSize > int64(end)*(maxBlockSize/4)+maxBlockSize {
			return res, errCorrupt("declared content size exceeds maximum expansion")
		}
		f := FrameInfo{
			Offset:      int64(pos),
			End:         int64(pos + end),
			ContentSize: h.contentSize,
			HasChecksum: h.hasChecksum,
		}
		if h.contentSize < 0 || !res.Sized {
			res.Sized = false
			f.ContentStart = -1
			if h.contentSize < 0 {
				f.ContentSize = -1
			}
		} else {
			f.ContentStart = int64(contentPos)
			contentPos += int(h.contentSize)
		}
		res.Frames = append(res.Frames, f)
		pos += end
	}
	return res, nil
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
// serially, concatenating frame contents like `zstd -d`.
func Decompress(data []byte) ([]byte, error) {
	scan, err := ScanFrames(data)
	if err != nil {
		return nil, err
	}
	var out []byte
	if scan.Sized {
		total := int64(0)
		for _, f := range scan.Frames {
			total += int64(f.ContentSize)
		}
		out = make([]byte, 0, min(total, 64<<20))
	}
	for i, f := range scan.Frames {
		data := data[f.Offset:f.End]
		fr, err := startFrame(data, f.ContentSize)
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
