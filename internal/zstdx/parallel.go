package zstdx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/filereader"
	"repro/internal/spanengine"
)

// FormatTag identifies Zstandard checkpoint tables in persisted
// indexes.
const FormatTag = "zstd"

// Codec capability flags persisted alongside the checkpoint table.
const (
	// FlagChecksummed marks files whose every data frame carries an
	// xxHash64 content checksum, i.e. every decode verifies integrity.
	FlagChecksummed uint8 = 1 << 0
	// FlagMetadataSized marks files whose every frame header declared
	// its content size — the checkpoint table came from metadata alone
	// (§4.9's trivially parallelizable shape).
	FlagMetadataSized uint8 = 1 << 1
)

// Codec is the Zstandard half of the shared span engine. Scan is a pure
// header-and-block walk that decodes nothing. When every frame declares
// its content size the table it returns is complete (the §4.9 metadata
// fast path); a frame without one leaves its size open, and the engine
// grows the table from the first decode of each such frame (spanengine's
// deferred sizes). A span is one frame, and a read that needs only the
// front of a sized one decodes its blocks only that far
// (DecodeSpanPrefix).
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec: the §4.9 metadata planning pass, a
// walk over frame and block headers that reads each header once, with
// filereader.Walker, and never reads a block payload or a skippable
// frame, so sizing a multi-gigabyte file touches only its metadata
// bytes, whether the file is held in memory or not. A skippable frame
// leaves a gap between two spans. A frame that omits its content size
// leaves its span's DecompSize, and the DecompOff of it and every span
// after it, negative: the engine sizes them by decoding.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	w := filereader.NewWalker(src)
	res := spanengine.ScanResult{Flags: FlagMetadataSized | FlagChecksummed}
	var contentPos int64
	for w.Remaining() > 0 {
		pos := w.Pos()
		// The fixed header is at most 18 bytes (magic, FHD, window
		// descriptor, 4-byte dict ID, 8-byte content size); peek what
		// the file still has and let the parser report truncation.
		hdr, err := w.Peek(int(min(18, w.Remaining())))
		if err != nil {
			return spanengine.ScanResult{}, fmt.Errorf("frame %d at offset %d: %w", len(res.Spans), pos, err)
		}
		if len(hdr) >= 8 && binary.LittleEndian.Uint32(hdr)&^0xF == skippableMagicBase {
			w.Skip(8 + int64(binary.LittleEndian.Uint32(hdr[4:])))
			if w.Remaining() < 0 {
				return spanengine.ScanResult{}, errCorrupt("truncated skippable frame")
			}
			continue
		}
		h, err := parseFrameHeader(hdr)
		if err != nil {
			return spanengine.ScanResult{}, fmt.Errorf("frame %d at offset %d: %w", len(res.Spans), pos, err)
		}
		w.Skip(int64(h.headerLen))
		for {
			bh3, err := w.Next(3)
			if err != nil {
				// A pread failure is a storage problem, not corrupt data:
				// pass it through with its filereader.ErrIO mark intact and
				// reserve ErrCorrupt for genuine truncation.
				if errors.Is(err, filereader.ErrIO) {
					return spanengine.ScanResult{}, fmt.Errorf("block header at offset %d: %w", w.Pos(), err)
				}
				return spanengine.ScanResult{}, fmt.Errorf("%w: truncated block header: %w", ErrCorrupt, err)
			}
			bh := uint32(bh3[0]) | uint32(bh3[1])<<8 | uint32(bh3[2])<<16
			switch bh >> 1 & 3 {
			case 0, 2: // raw, compressed: payload is bsize bytes
				w.Skip(int64(bh >> 3))
			case 1: // RLE: one byte regenerates bsize
				w.Skip(1)
			default:
				return spanengine.ScanResult{}, errCorrupt("reserved block type")
			}
			if w.Remaining() < 0 {
				return spanengine.ScanResult{}, errCorrupt("truncated block payload")
			}
			if bh&1 != 0 {
				break
			}
		}
		if h.hasChecksum {
			w.Skip(4)
			if w.Remaining() < 0 {
				return spanengine.ScanResult{}, errCorrupt("truncated content checksum")
			}
		} else {
			res.Flags &^= FlagChecksummed
		}
		s := spanengine.Span{CompOff: pos, CompEnd: w.Pos(), DecompOff: -1, DecompSize: h.contentSize}
		// An RLE block is the format's densest construct: 4 bytes
		// regenerate at most 128 KiB. A declared size beyond that bound
		// is a forged header — reject it before anyone allocates for it.
		if s.DecompSize > (s.CompEnd-s.CompOff)*(maxBlockSize/4)+maxBlockSize {
			return spanengine.ScanResult{}, errCorrupt("declared content size exceeds maximum expansion")
		}
		if h.contentSize < 0 {
			res.Flags &^= FlagMetadataSized
		}
		if res.Flags&FlagMetadataSized != 0 {
			s.DecompOff = contentPos
			contentPos += h.contentSize
		}
		res.Spans = append(res.Spans, s)
	}
	if len(res.Spans) == 0 {
		res.Flags &^= FlagChecksummed
	}
	return res, nil
}

// DecodeSpan implements spanengine.Codec: one span is one data frame,
// decoded whole through DecodeSpanPrefix — to its end wherever that is,
// for a frame whose size the span table leaves open.
func (c Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	upTo := s.DecompSize
	if upTo < 0 {
		upTo = math.MaxInt64
	}
	data, _, err := c.DecodeSpanPrefix(src, s, nil, upTo)
	return data, err
}

// DecodeSpanPrefix implements spanengine.PrefixDecoder. A frame without a
// content checksum stops at the first block boundary at or past upTo and
// parks its decode (a *frame: the content so far, in a buffer allocated
// once at the span's size, the offset of the next block and the state
// the blocks share); a call with that state reads the frame again from
// that block on. A frame with a content checksum decodes whole, so none
// of its bytes go out unchecked. Each call reads what is left of the
// frame with one pread and releases it before it returns.
func (Codec) DecodeSpanPrefix(src filereader.FileReader, s spanengine.Span, parked any, upTo int64) ([]byte, any, error) {
	f, _ := parked.(*frame)
	from := s.CompOff
	if f != nil {
		from += int64(f.p)
	}
	ext, release, err := filereader.Extent(src, from, s.CompEnd)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	if f == nil {
		f, err = startFrame(ext, s.DecompSize)
	}
	done := false
	if err == nil {
		done, err = f.decode(ext, int(from-s.CompOff), int(min(upTo, math.MaxInt)))
	}
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("zstdx: frame at offset %d: %w", s.CompOff, err)
	case done:
		return f.out, nil, nil
	}
	return f.out, f, nil
}
