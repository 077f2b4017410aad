package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/gzformat"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/spanengine"
)

// scanBGZF builds the full span table of a BGZF file from metadata
// alone — the trivially parallel fast path of §3.4.4: every member
// header carries the compressed member size (BSIZE) and every footer
// the uncompressed size (ISIZE), so span boundaries, sizes, and the
// index are known without decompressing or searching anything.
//
// A member's footer and the next member's header are adjacent, so one
// read into one reused window (a few hundred bytes) serves both: the
// sizing pass reads each member once, and over a larger-than-RAM file it
// touches only metadata bytes.
//
// Members are grouped into spans of about ChunkSize decompressed bytes,
// the size the generic path cuts its spans to (splitPoints), so a BGZF
// file of a given length is as many tasks as a gzip file of that length.
// A group closes at the first member with output past that size: a
// member without output (the EOF marker, an empty member) joins the
// group before it, so no span is empty but the one of an empty file.
func (c *gzipCodec) scanBGZF() (spanengine.ScanResult, error) {
	fileSize := int64(c.fileBits / 8)

	var spans []spanengine.Span
	var pos int64
	var decomp uint64
	groupStart := int64(0)
	groupDecomp := uint64(0)
	var groupMarks []gzindex.MemberEnd

	flush := func(end int64, endDecomp uint64) error {
		bit := uint64(groupStart) * 8
		if err := c.index.Add(gzindex.SeekPoint{
			CompressedBitOffset: bit,
			UncompressedOffset:  groupDecomp,
			AtMemberStart:       true,
		}, nil); err != nil {
			return err
		}
		for _, m := range groupMarks {
			c.index.AddMemberEnd(bit, m)
		}
		groupMarks = nil
		spans = append(spans, spanengine.Span{
			CompOff:    groupStart,
			CompEnd:    end,
			DecompOff:  int64(groupDecomp),
			DecompSize: int64(endDecomp - groupDecomp),
		})
		groupStart = end
		groupDecomp = endDecomp
		return nil
	}

	// buf holds a footer (CRC32 then ISIZE) and the header window behind
	// it; win is the part that starts at pos.
	buf := make([]byte, 8+headerWindow)
	win, err := c.readWindow(buf[8:], 0, fileSize)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	prev := int64(-1) // where the member before pos starts
	for pos < fileSize {
		hdr, err := gzformat.ParseHeader(bitio.NewBitReaderBytes(win))
		if err != nil && int64(len(win)) < fileSize-pos {
			hdr, err = c.parseHeaderAt(pos, fileSize) // spills past the window
		}
		if err != nil {
			err = fmt.Errorf("core: BGZF member scan at %d: %w", pos, err)
			if prev >= 0 && c.memberEndsAt(prev, pos) {
				err = fmt.Errorf("%w: %w", errBadHeader, err)
			}
			return spanengine.ScanResult{}, err
		}
		if hdr.BGZFBlockSize <= 0 {
			return spanengine.ScanResult{}, fmt.Errorf("core: member at %d lacks BGZF metadata", pos)
		}
		memberEnd := pos + int64(hdr.BGZFBlockSize)
		if memberEnd > fileSize {
			return spanengine.ScanResult{}, fmt.Errorf("core: BGZF member at %d %w", pos, errOverrun)
		}
		// The footer's CRC goes into the member marks, which enable
		// architecture-level CRC verification too.
		footer, err := c.readWindow(buf, memberEnd-8, fileSize)
		if err != nil {
			return spanengine.ScanResult{}, err
		}
		win = footer[8:]
		isize := uint64(binary.LittleEndian.Uint32(footer[4:]))
		if isize > 0 && decomp-groupDecomp >= uint64(c.cfg.ChunkSize) {
			if err := flush(pos, decomp); err != nil {
				return spanengine.ScanResult{}, err
			}
		}
		decomp += isize
		groupMarks = append(groupMarks, gzindex.MemberEnd{
			RelEnd: decomp - groupDecomp,
			CRC32:  binary.LittleEndian.Uint32(footer[:4]),
		})
		prev, pos = pos, memberEnd
	}
	if pos != fileSize {
		return spanengine.ScanResult{}, fmt.Errorf("core: BGZF members end at %d, file has %d bytes", pos, fileSize)
	}
	if err := flush(pos, decomp); err != nil {
		return spanengine.ScanResult{}, err
	}
	c.eof = true
	c.frontierBit = uint64(fileSize) * 8
	c.frontierDecomp = decomp
	c.index.Finalized = true
	c.index.UncompressedSize = decomp
	return spanengine.ScanResult{Spans: spans}, nil
}

// errOverrun is a BGZF member whose size field reaches past the end of
// the file.
var errOverrun = errors.New("overruns the file")

// errBadHeader is a member header that does not parse where the member
// before it ends, as its size field says and its deflate stream agrees.
var errBadHeader = errors.New("a damaged member header")

// bgzfRefused reports whether a BGZF scan that failed with err refuses
// the file, rather than leave it to the generic path: the file is cut
// short — a member runs past its end, and the file does not end in a
// BGZF member header, as it does in what every BGZF writer ends with,
// the EOF marker — or a member header is damaged, which the generic path
// would take, where the damage is in its magic, for trailing data and
// end the file there. Any other break
// of the member chain is a size field that does not lead to the next
// member, in a file whose every byte may still decode.
func (c *gzipCodec) bgzfRefused(err error) bool {
	if errors.Is(err, errBadHeader) {
		return true
	}
	if !errors.Is(err, errOverrun) {
		return false
	}
	fileSize := int64(c.fileBits / 8)
	tail, err := c.readWindow(make([]byte, len(gzipw.BGZFEOFMarker)), max(fileSize-int64(len(gzipw.BGZFEOFMarker)), 0), fileSize)
	if err != nil {
		return true
	}
	hdr, err := gzformat.ParseHeader(bitio.NewBitReaderBytes(tail))
	return err != nil || hdr.BGZFBlockSize <= 0
}

// memberEndsAt reports whether the member at byte start ends at byte
// end: behind its header, its deflate stream and footer fill the bytes
// up to end exactly. A BGZF member is at most 64 KiB.
func (c *gzipCodec) memberEndsAt(start, end int64) bool {
	buf := make([]byte, end-start)
	if _, err := c.src.ReadAt(buf, start); err != nil {
		return false
	}
	br := bitio.NewBitReaderBytes(buf)
	if _, err := gzformat.ParseHeader(br); err != nil {
		return false
	}
	// A bytes.Reader is an io.ByteReader, so flate reads no byte past the
	// stream's end.
	rest := bytes.NewReader(buf[br.BitPos()/8:])
	if _, err := io.Copy(io.Discard, flate.NewReader(rest)); err != nil {
		return false
	}
	return rest.Len() == 8
}

// headerWindow is the first window a member header is parsed through.
const headerWindow = 512

// readWindow fills buf from byte offset pos, or with what the file has
// from there on when that is less, and returns the filled part.
func (c *gzipCodec) readWindow(buf []byte, pos, fileSize int64) ([]byte, error) {
	if int64(len(buf)) > fileSize-pos {
		buf = buf[:max(fileSize-pos, 0)]
	}
	if n, err := c.src.ReadAt(buf, pos); err != nil && n < len(buf) {
		return nil, err
	}
	return buf, nil
}

// parseHeaderAt parses one gzip member header through a bounded window
// read at byte offset pos, growing the window geometrically when a
// header (with its optional fields) spills past it.
func (c *gzipCodec) parseHeaderAt(pos, fileSize int64) (gzformat.Header, error) {
	win := int64(headerWindow)
	for {
		if win > fileSize-pos {
			win = fileSize - pos
		}
		buf := make([]byte, win)
		if n, err := c.src.ReadAt(buf, pos); err != nil && int64(n) < win {
			return gzformat.Header{}, err
		}
		hdr, err := gzformat.ParseHeader(bitio.NewBitReaderBytes(buf))
		if err == nil || win >= fileSize-pos {
			return hdr, err
		}
		win *= 8
	}
}
