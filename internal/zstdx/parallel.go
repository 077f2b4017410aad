package zstdx

import (
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

// Scan implements spanengine.Codec via ScanFramesReader (a windowed
// header walk that never reads block payloads).
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	scan, err := ScanFramesReader(src)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	res := spanengine.ScanResult{}
	if scan.Sized {
		res.Flags |= FlagMetadataSized
	}
	if len(scan.Frames) > 0 {
		res.Flags |= FlagChecksummed
	}
	for _, f := range scan.Frames {
		if !f.HasChecksum {
			res.Flags &^= FlagChecksummed
		}
		res.Spans = append(res.Spans, spanengine.Span{
			CompOff:    f.Offset,
			CompEnd:    f.End,
			DecompOff:  f.ContentStart,
			DecompSize: f.ContentSize,
		})
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
