package lz4x

import (
	"encoding/binary"
	"fmt"

	"repro/internal/filereader"
	"repro/internal/spanengine"
)

// FormatTag identifies LZ4 checkpoint tables in persisted indexes.
const FormatTag = "lz4 "

// Codec capability flags persisted alongside the checkpoint table.
const (
	// FlagChecksummed marks files whose frames carry xxHash32 block or
	// content checksums, i.e. decoding verifies payload integrity.
	FlagChecksummed uint8 = 1 << 0
	// FlagBlockIndep marks files whose every frame declares independent
	// blocks.
	FlagBlockIndep uint8 = 1 << 1
)

// Codec is the LZ4 half of the shared span engine. LZ4 is the paper's
// best case, degenerate in the right way: every frame header declares
// its content size, so Scan is a pure header walk — zero sizing
// decodes — and the whole checkpoint table comes from metadata. A span
// is one frame, and a read that needs only its front decodes the frame's
// blocks only that far (DecodeSpanPrefix).
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec: the §4.9 metadata planning pass, a
// walk over frame and block headers that reads each header once, with
// filereader.Walker, and never reads a block payload, so sizing a
// multi-gigabyte file touches only its metadata bytes, whether the file
// is held in memory or not. It fails on anything the walk cannot plan:
// a frame that omits the content-size field, or declares more content
// than its blocks can hold.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	w := filereader.NewWalker(src)
	res := spanengine.ScanResult{Flags: FlagBlockIndep}
	var contentPos int64
	for w.Remaining() > 0 {
		pos := w.Pos()
		// The fixed header is at most 19 bytes (magic, FLG, BD, 8-byte
		// content size, HC); peek what the file still has and let the
		// parser report truncation.
		hdr, err := w.Peek(int(min(19, w.Remaining())))
		if err != nil {
			return spanengine.ScanResult{}, fmt.Errorf("lz4x: frame %d at offset %d: %w", len(res.Spans), pos, err)
		}
		h, err := parseFrameHeader(hdr)
		if err != nil {
			return spanengine.ScanResult{}, fmt.Errorf("lz4x: frame %d at offset %d: %w", len(res.Spans), pos, err)
		}
		if h.contentSize < 0 {
			return spanengine.ScanResult{}, fmt.Errorf("lz4x: frame %d lacks a content size; cannot parallelize", len(res.Spans))
		}
		w.Skip(int64(h.headerLen))
		for {
			b, err := w.Next(4)
			if err != nil {
				return spanengine.ScanResult{}, fmt.Errorf("lz4x: truncated frame %d: %w", len(res.Spans), err)
			}
			bsize := binary.LittleEndian.Uint32(b)
			if bsize == 0 {
				break // EndMark
			}
			w.Skip(int64(bsize &^ (1 << 31)))
			if h.flg&flgBlockCheck != 0 {
				w.Skip(4)
			}
			if w.Remaining() < 0 {
				return spanengine.ScanResult{}, fmt.Errorf("lz4x: truncated frame %d", len(res.Spans))
			}
		}
		if h.flg&flgContentCheck != 0 {
			w.Skip(4)
			if w.Remaining() < 0 {
				return spanengine.ScanResult{}, fmt.Errorf("lz4x: truncated frame %d", len(res.Spans))
			}
		}
		s := spanengine.Span{CompOff: pos, CompEnd: w.Pos(), DecompOff: contentPos, DecompSize: int64(h.contentSize)}
		if s.DecompSize > maxExpansion*(s.CompEnd-s.CompOff) {
			return spanengine.ScanResult{}, fmt.Errorf("lz4x: frame %d at offset %d: %w: %d bytes declared for %d compressed",
				len(res.Spans), pos, ErrCorrupt, s.DecompSize, s.CompEnd-s.CompOff)
		}
		if h.flg&flgBlockIndep == 0 {
			res.Flags &^= FlagBlockIndep
		}
		if h.flg&(flgBlockCheck|flgContentCheck) != 0 {
			res.Flags |= FlagChecksummed
		}
		res.Spans = append(res.Spans, s)
		contentPos += s.DecompSize
	}
	return res, nil
}

// maxExpansion bounds what LZ4 can make of its input: a match costs at
// least one length byte per 255 bytes it copies.
const maxExpansion = 255

// DecodeSpan implements spanengine.Codec: one span is one frame,
// decoded whole through DecodeSpanPrefix.
func (c Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	data, _, err := c.DecodeSpanPrefix(src, s, nil, s.DecompSize)
	return data, err
}

// DecodeSpanPrefix implements spanengine.PrefixDecoder. A frame without a
// content checksum stops at the first block boundary at or past upTo and
// parks its decode (a *frame: the output, allocated once at the span's
// size, and the offset of the next block); a call with that state reads
// the frame again from that block on. A frame with a content checksum
// decodes whole, so none of its bytes go out unchecked. Each call reads
// what is left of the frame with one pread and releases it before it
// returns. The span's size may come from an index file: a size no frame
// of that length can reach is refused before it is allocated.
func (Codec) DecodeSpanPrefix(src filereader.FileReader, s spanengine.Span, parked any, upTo int64) ([]byte, any, error) {
	f, _ := parked.(*frame)
	from := s.CompOff
	if f != nil {
		from += f.p
	} else if s.DecompSize > maxExpansion*(s.CompEnd-s.CompOff) {
		return nil, nil, fmt.Errorf("lz4x: frame at offset %d: %w: %d bytes declared for %d compressed",
			s.CompOff, ErrCorrupt, s.DecompSize, s.CompEnd-s.CompOff)
	}
	ext, release, err := filereader.Extent(src, from, s.CompEnd)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	if f == nil {
		f, err = startFrame(ext, make([]byte, s.DecompSize))
	}
	done := false
	if err == nil {
		done, err = f.decode(ext, from-s.CompOff, int(min(upTo, s.DecompSize)))
	}
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("lz4x: frame at offset %d: %w", s.CompOff, err)
	case done:
		return f.out, nil, nil
	}
	return f.out[:f.dp], f, nil
}
