package deflate

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/gzformat"
)

// DecompressGzip decodes a complete (possibly multi-member) gzip buffer
// serially with the custom single-stage decoder. It verifies each
// member's ISIZE and CRC32 and is the single-threaded baseline the
// paper's scaling figures compare against ("rapidgzip" at P=1).
func DecompressGzip(data []byte) ([]byte, error) {
	br := bitio.NewBitReaderBytes(data)
	var d Decoder
	cr, err := d.DecodeChunk(br, ChunkConfig{
		Start:              0,
		Stop:               StopAtEOF,
		StartsAtGzipHeader: true,
		SizeHint:           4 * len(data),
	})
	if err != nil {
		return nil, err
	}
	out := cr.Raw
	if err := VerifyMembers(cr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyMembers checks ISIZE and CRC32 of every member recorded in cr
// against the resolved output bytes.
func VerifyMembers(cr *ChunkResult, out []byte) error {
	start := uint64(0)
	for i, ev := range cr.Members {
		if ev.DecompOffset < start || ev.DecompOffset > uint64(len(out)) {
			return errors.New("deflate: inconsistent member offsets")
		}
		size := ev.DecompOffset - start
		if uint32(size) != ev.Footer.ISize {
			return fmt.Errorf("deflate: member %d ISIZE mismatch: footer %d, decoded %d", i, ev.Footer.ISize, size)
		}
		crc := gzformat.UpdateCRC(0, out[start:ev.DecompOffset])
		if crc != ev.Footer.CRC32 {
			return fmt.Errorf("deflate: member %d CRC mismatch: footer %#x, computed %#x", i, ev.Footer.CRC32, crc)
		}
		start = ev.DecompOffset
	}
	return nil
}

// gzipMagic is ID1 and ID2 of a gzip member header as the bit reader
// reads them, first byte lowest.
const gzipMagic = gzformat.ID2<<8 | gzformat.ID1

// memberEnd handles the gzip footer after a final block and the start
// of the following member, if any. It reports whether the chunk ends.
// It sits here, behind the block loops of decode.go and result.go in the
// package's code, so that its size does not move theirs: at another
// 32-byte offset the same marker-resolution loop ran a third slower (2
// vCPU x86-64).
func (d *Decoder) memberEnd(cr *ChunkResult, st *chunkState, stopBeforeMember uint64) (stop bool, err error) {
	br := d.br
	br.AlignToByte()
	footer, err := gzformat.ParseFooter(br)
	if err != nil {
		return false, err
	}
	ev := MemberEvent{DecompOffset: st.total(), Footer: footer}
	endOfFooter := br.BitPos()
	switch {
	case br.RemainingBits() == 0:
		ev.AtEOF, cr.EndIsEOF = true, true
	case stopBeforeMember > 0 && endOfFooter >= stopBeforeMember:
		// The next member starts at/after the configured boundary; end
		// the chunk here without consuming its header.
	default:
		hdr, err := gzformat.ParseHeader(br)
		if err == nil {
			ev.Header = hdr
			ev.HeaderEndBit = br.BitPos()
			cr.Members = append(cr.Members, ev)
			// The back-reference window does not cross member boundaries.
			st.histStart = int64(st.total())
			return false, nil
		}
		// Bytes that begin as a member does, with the magic or as much
		// of it as the file holds, are a member cut short or with its
		// header damaged, not data behind the stream: the file does not
		// end here.
		if err := br.SeekBits(endOfFooter); err != nil {
			return false, err
		}
		magic, avail := br.Peek(16)
		if mask := uint64(1)<<avail - 1; magic&mask == gzipMagic&mask {
			return false, ErrCorrupt
		}
		// Trailing non-gzip data: stop cleanly at the footer.
		ev.AtEOF, cr.EndIsEOF, cr.TrailingData = true, true, true
	}
	cr.Members = append(cr.Members, ev)
	cr.EndBit = endOfFooter
	return true, nil
}
