package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/filereader"
	"repro/internal/gzformat"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
)

// scanBGZF builds the complete index of a BGZF file from metadata
// alone — the trivially parallel fast path of §3.4.4: every member
// header carries the compressed member size (BSIZE) and every footer
// the uncompressed size (ISIZE), so span boundaries, sizes, and the
// index are known without decompressing or searching anything.
//
// It is a walk over member headers with filereader.Walker, as the frame
// formats' scans are: the first header is one read, and a member's
// footer and the next member's header, which are adjacent, are one read
// of 26 bytes together; the body between is skipped. Over a
// larger-than-RAM file it touches only metadata bytes.
//
// Members are grouped by gzindex.AddMember into spans of about
// ChunkSize decompressed bytes, the size the generic path cuts its spans
// to (splitPoints), so a BGZF file of a given length is as many tasks as
// a gzip file of that length.
//
// An ISIZE past what a BGZF member holds, or past what deflate makes of
// its member, fails the walk, as any break of the member chain does: no
// declared size reaches an allocation unchecked.
func (c *gzipCodec) scanBGZF(src filereader.FileReader) (*gzindex.Index, error) {
	ix := newIndex(c.cfg, src.Size(), c.index.SourceFP)
	w := filereader.NewWalker(src)
	var decomp uint64
	prev := int64(-1) // where the member before pos starts
	for w.Remaining() > 0 {
		pos := w.Pos()
		hdr, err := memberHeader(w)
		if err != nil {
			err = fmt.Errorf("core: BGZF member scan at %d: %w", pos, err)
			if prev >= 0 && c.memberEndsAt(prev, pos) {
				err = fmt.Errorf("%w: %w", errBadHeader, err)
			}
			return nil, err
		}
		size := int64(hdr.BGZFBlockSize)
		switch {
		case size <= 0:
			return nil, fmt.Errorf("core: member at %d lacks BGZF metadata", pos)
		case size > w.Remaining():
			return nil, fmt.Errorf("core: BGZF member at %d %w", pos, errOverrun)
		case size < int64(hdr.HeaderSz)+8:
			return nil, fmt.Errorf("core: BGZF member at %d of %d bytes cannot hold its header and footer", pos, size)
		}
		w.Skip(size - 8)
		footer, err := w.Peek(int(min(8+bgzfHeaderLen, w.Remaining())))
		if err != nil {
			return nil, fmt.Errorf("core: BGZF member footer at %d: %w", w.Pos(), err)
		}
		w.Skip(8)
		isize := uint64(binary.LittleEndian.Uint32(footer[4:]))
		if isize > bgzfMaxISize || isize > deflateMaxExpansion*uint64(size) {
			return nil, fmt.Errorf("core: BGZF member at %d declares %d bytes of output for %d compressed", pos, isize, size)
		}
		// The footer's CRC goes into the member marks, which enable
		// architecture-level CRC verification too.
		if err := ix.AddMember(uint64(pos), isize, binary.LittleEndian.Uint32(footer), uint64(c.cfg.ChunkSize)); err != nil {
			return nil, err
		}
		decomp += isize
		prev = pos
	}
	ix.Finalized = true
	ix.UncompressedSize = decomp
	return ix, nil
}

// bgzfHeaderLen is a BGZF member header without optional fields: the
// fixed gzip header, XLEN and the BC subfield.
const bgzfHeaderLen = 18

// bgzfMaxISize is the most output one BGZF member holds.
const bgzfMaxISize = 1 << 16

// deflateMaxExpansion bounds what deflate makes of its input: a match of
// 258 bytes costs at least two bits.
const deflateMaxExpansion = 1032

// memberHeader parses the gzip member header at w's position, without
// moving past it: it peeks the bytes of a BGZF header without optional
// fields, and more only where the header's flags and XLEN ask for them.
func memberHeader(w *filereader.Walker) (gzformat.Header, error) {
	for n := int64(bgzfHeaderLen); ; n *= 8 {
		b, err := w.Peek(int(min(n, w.Remaining())))
		if err != nil {
			return gzformat.Header{}, err
		}
		hdr, err := gzformat.ParseHeader(bitio.NewBitReaderBytes(b))
		if !errors.Is(err, io.ErrUnexpectedEOF) || int64(len(b)) >= w.Remaining() {
			return hdr, err
		}
	}
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
// end the file there. Any other break of the member chain is a size
// field that does not lead to the next member, or a size past what a
// member holds, in a file whose every byte may still decode.
func (c *gzipCodec) bgzfRefused(err error) bool {
	if errors.Is(err, errBadHeader) {
		return true
	}
	if !errors.Is(err, errOverrun) {
		return false
	}
	w := filereader.NewWalker(c.src)
	w.Skip(max(w.Size()-int64(len(gzipw.BGZFEOFMarker)), 0))
	hdr, err := memberHeader(w)
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
