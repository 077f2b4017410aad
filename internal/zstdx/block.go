package zstdx

import (
	"encoding/binary"
	"math"
)

// maxBlockSize is the format's Block_Maximum_Size ceiling (128 KiB).
const maxBlockSize = 128 << 10

// frameDecoder carries the state that persists across the blocks of
// one frame: the three repeat offsets, the last Huffman table (for
// treeless literals) and the last FSE tables (for repeat mode).
type frameDecoder struct {
	reps [3]uint32
	huff *huffTable
	ll   *seqTable
	of   *seqTable
	ml   *seqTable
	// limit is the frame's declared content size (the largest int when
	// the header omits it): no sequence may take the output past it.
	limit int
	// tailOnly keeps every sequence on the checked reader; only tests
	// set it, to hold the window path to the same decode.
	tailOnly bool
	// litBuf is scratch for decoded literals, reused across blocks so
	// each block skips a fresh make (and its zeroing) on the hot path.
	// blockMax is what litBuf is first made to hold: the most content
	// a block of the frame can carry (Block_Maximum_Size, or the
	// content size where that is less).
	litBuf   []byte
	blockMax int
	// The tables a block describes are built here, in storage every
	// block of the frame reuses: seqBufs for the three fields (in the
	// order ll, of, ml), huffBuf for the literals, fse and weights for a
	// description on its way to either.
	seqBufs [3]seqTable
	huffBuf huffTable
	fse     fseTable
	weights [256]uint8
}

// litScratch returns an n-byte scratch slice backed by litBuf.
func (d *frameDecoder) litScratch(n int) []byte {
	if cap(d.litBuf) < n {
		d.litBuf = make([]byte, n, max(n, d.blockMax))
	}
	return d.litBuf[:n]
}

func newFrameDecoder() *frameDecoder {
	return &frameDecoder{reps: [3]uint32{1, 4, 8}, limit: math.MaxInt}
}

// literalsBlockType values (§3.1.1.3.1.1).
const (
	litRaw = iota
	litRLE
	litCompressed
	litTreeless
)

// decodeLiterals parses the literals section at the start of a
// compressed block, returning the literal bytes and the section length.
func (d *frameDecoder) decodeLiterals(in []byte) ([]byte, int, error) {
	if len(in) < 1 {
		return nil, 0, errCorrupt("empty literals section")
	}
	litType := int(in[0] & 3)
	sizeFormat := int(in[0]>>2) & 3
	var regen, comp, hdr int
	fourStreams := false
	switch litType {
	case litRaw, litRLE:
		switch sizeFormat {
		case 0, 2:
			regen = int(in[0] >> 3)
			hdr = 1
		case 1:
			if len(in) < 2 {
				return nil, 0, errCorrupt("truncated literals header")
			}
			regen = int(in[0]>>4) | int(in[1])<<4
			hdr = 2
		case 3:
			if len(in) < 3 {
				return nil, 0, errCorrupt("truncated literals header")
			}
			regen = int(in[0]>>4) | int(in[1])<<4 | int(in[2])<<12
			hdr = 3
		}
	case litCompressed, litTreeless:
		switch sizeFormat {
		case 0, 1:
			if len(in) < 3 {
				return nil, 0, errCorrupt("truncated literals header")
			}
			n := int(in[0]>>4) | int(in[1])<<4 | int(in[2])<<12
			regen = n & 1023
			comp = n >> 10
			fourStreams = sizeFormat == 1
			hdr = 3
		case 2:
			if len(in) < 4 {
				return nil, 0, errCorrupt("truncated literals header")
			}
			n := int(in[0]>>4) | int(in[1])<<4 | int(in[2])<<12 | int(in[3])<<20
			regen = n & 16383
			comp = n >> 14
			fourStreams = true
			hdr = 4
		case 3:
			if len(in) < 5 {
				return nil, 0, errCorrupt("truncated literals header")
			}
			n := int(in[0]>>4) | int(in[1])<<4 | int(in[2])<<12 | int(in[3])<<20 | int(in[4])<<28
			regen = n & 262143
			comp = n >> 18
			fourStreams = true
			hdr = 5
		}
	}
	if regen > maxBlockSize {
		return nil, 0, errCorrupt("literals larger than a block")
	}
	body := in[hdr:]
	switch litType {
	case litRaw:
		if len(body) < regen {
			return nil, 0, errCorrupt("truncated raw literals")
		}
		return body[:regen], hdr + regen, nil
	case litRLE:
		if len(body) < 1 {
			return nil, 0, errCorrupt("truncated RLE literals")
		}
		lit := d.litScratch(regen)
		for i := range lit {
			lit[i] = body[0]
		}
		return lit, hdr + 1, nil
	}
	if len(body) < comp {
		return nil, 0, errCorrupt("truncated compressed literals")
	}
	stream := body[:comp]
	if litType == litCompressed {
		n, err := d.readHuffTable(stream)
		if err != nil {
			return nil, 0, err
		}
		stream = stream[n:]
	} else if d.huff == nil {
		return nil, 0, errCorrupt("treeless literals without a previous Huffman table")
	}
	lit, err := d.huff.decodeLiterals(d.litScratch(regen), stream, fourStreams)
	if err != nil {
		return nil, 0, err
	}
	return lit, hdr + comp, nil
}

// seqTables resolves the three compression modes of the sequences
// section header, reading RLE symbols and FSE table descriptions.
func (d *frameDecoder) seqTables(in []byte, modes byte) (int, error) {
	p := 0
	for i := 0; i < 3; i++ {
		mode := int(modes>>(6-2*i)) & 3
		var table **seqTable
		var predef *seqTable
		var maxLog int
		var codes []codeExtra
		switch i {
		case 0:
			table, predef, maxLog, codes = &d.ll, llPredefTable, llMaxLog, llCodeTable
		case 1:
			table, predef, maxLog, codes = &d.of, ofPredefTable, ofMaxLog, ofCodeTable
		default:
			table, predef, maxLog, codes = &d.ml, mlPredefTable, mlMaxLog, mlCodeTable
		}
		switch mode {
		case 0:
			*table = predef
		case 1:
			if p >= len(in) {
				return 0, errCorrupt("truncated RLE sequence symbol")
			}
			if err := d.seqBufs[i].fillRLE(in[p], codes); err != nil {
				return 0, err
			}
			*table = &d.seqBufs[i]
			p++
		case 2:
			n, err := readFSETableDesc(&d.fse, in[p:], maxLog, len(codes))
			if err != nil {
				return 0, err
			}
			if err := d.seqBufs[i].fill(&d.fse, codes); err != nil {
				return 0, err
			}
			*table = &d.seqBufs[i]
			p += n
		default:
			if *table == nil {
				return 0, errCorrupt("repeat mode without a previous table")
			}
		}
	}
	return p, nil
}

// decodeBlock inflates one compressed block, appending to out (which
// holds the frame's earlier output — the match window).
func (d *frameDecoder) decodeBlock(in []byte, out []byte) ([]byte, error) {
	lit, seq, nbSeq, err := d.blockSections(in)
	if err != nil {
		return nil, err
	}
	if nbSeq == 0 {
		return append(out, lit...), nil
	}
	return d.decodeSequences(seq, lit, nbSeq, out)
}

// blockSections parses a compressed block up to its sequence bitstream:
// it decodes the literals section and reads the sequences header,
// installing the block's three tables, and returns the literals, the
// bitstream and the number of sequences coded in it.
func (d *frameDecoder) blockSections(in []byte) (lit, seq []byte, nbSeq int, err error) {
	lit, n, err := d.decodeLiterals(in)
	if err != nil {
		return nil, nil, 0, err
	}
	in = in[n:]

	if len(in) < 1 {
		return nil, nil, 0, errCorrupt("missing sequences header")
	}
	switch b0 := int(in[0]); {
	case b0 < 128:
		nbSeq = b0
		in = in[1:]
	case b0 < 255:
		if len(in) < 2 {
			return nil, nil, 0, errCorrupt("truncated sequences header")
		}
		nbSeq = (b0-128)<<8 | int(in[1])
		in = in[2:]
	default:
		if len(in) < 3 {
			return nil, nil, 0, errCorrupt("truncated sequences header")
		}
		nbSeq = 0x7F00 + int(in[1]) + int(in[2])<<8
		in = in[3:]
	}
	if nbSeq == 0 {
		if len(in) != 0 {
			return nil, nil, 0, errCorrupt("trailing bytes after literals-only block")
		}
		return lit, nil, 0, nil
	}

	if len(in) < 1 {
		return nil, nil, 0, errCorrupt("missing sequence compression modes")
	}
	modes := in[0]
	if modes&3 != 0 {
		return nil, nil, 0, errCorrupt("reserved sequence mode bits set")
	}
	n, err = d.seqTables(in[1:], modes)
	if err != nil {
		return nil, nil, 0, err
	}
	return lit, in[1+n:], nbSeq, nil
}

// Margins of the sequence loop.
const (
	// seqFastBytes is the least window offset at which a sequence may be
	// read from the window: it refills twice, and a refill moves the
	// window down by at most 6 bytes (7 bits left over from the refill
	// before, plus the 47 or 42 bits read since, is under 7 bytes).
	seqFastBytes = 12
	// copySlack is the room reserved past the block's output bound: a
	// 16-byte store may begin on the bound's last byte.
	copySlack = 16
)

// decodeSequences executes the nbSeq sequences coded in the backward
// bitstream in against the block's literals, appending to out (which
// holds the frame's earlier output — the match window), and appends the
// literals no sequence consumed.
//
// Loop discipline. The bitstream is read through a top-aligned 64-bit
// window kept in locals (ptr, bc, w: byte offset, bits consumed from the
// top, contents), as the Huffman literal path reads its own. A refill
// leaves at least 57 unread bits. The offset's and the match length's
// extra bits are at most 31 + 16 = 47; the literal length's extra bits
// and the three state updates at most 16 + 9 + 9 + 8 = 42: so a sequence
// refills twice, tests nothing in between, and one load of a packed
// cell per field gives baseline, both bit counts and the next state.
// While ptr ≥ seqFastBytes neither refill can step below the start of
// the stream, so overrun is impossible there by construction; the last
// sequence of a block, which has no state update, and every sequence
// after the window has come that close to the start are read field by
// field through the checked reader, which is where a bitstream that
// ends early or late is found out.
//
// The output room is reserved once: up to bound (the block maximum, or
// the frame's declared size if that comes first) plus copySlack, so each
// sequence tests its literal and match lengths against bound once and
// then stores by index — the literals as one 16-byte store when they are
// that short, the match in 16- or 8-byte steps when its offset allows,
// both free to write past their length into room the next sequence or
// the slack owns. Errors of content (repeat offset zero, offset beyond
// the window, literals over-consumed, output past bound) are decided
// here for both readers alike.
func (d *frameDecoder) decodeSequences(in, lit []byte, nbSeq int, out []byte) ([]byte, error) {
	br, err := newRevBitReader(in)
	if err != nil {
		return nil, err
	}
	llState := br.read(d.ll.log)
	ofState := br.read(d.of.log)
	mlState := br.read(d.ml.log)
	if br.overflowed() {
		return nil, errCorrupt("sequence bitstream too short")
	}
	// The tables cannot change mid-block; masked indices into local
	// slices keep the lookups free of bounds checks (a table has
	// 1<<log cells and a state is below that by construction).
	llCells, ofCells, mlCells := d.ll.cells, d.of.cells, d.ml.cells
	llMask, ofMask, mlMask := uint32(len(llCells)-1), uint32(len(ofCells)-1), uint32(len(mlCells)-1)

	bound := min(len(out)+maxBlockSize, d.limit)
	out = reserve(out, max(bound-len(out), 0)+copySlack)
	o, p, lp := out[:cap(out)], len(out), 0
	r0, r1, r2 := d.reps[0], d.reps[1], d.reps[2]

	ptr, bc, w := windowAt(&br, in)
	fastEnd := 0 // sequences before this one are read from the window
	if ptr >= seqFastBytes && !d.tailOnly {
		fastEnd = nbSeq - 1
	}
	for s := 0; s < nbSeq; s++ {
		oc, mc, lc := ofCells[ofState&ofMask], mlCells[mlState&mlMask], llCells[llState&llMask]
		var offVal uint32
		var ml, ll int
		// Fields come back in reverse write order: offset, match length,
		// literal length; then the state updates for literal length,
		// match length, offset.
		if s < fastEnd {
			ptr -= int(bc >> 3)
			bc &= 7
			w = load64(in, ptr)
			n := uint(oc & 0xff)
			offVal = uint32(oc>>32) + uint32(topBits(w, bc, n))
			bc += n
			n = uint(mc & 0xff)
			ml = int(mc>>32) + int(topBits(w, bc, n))
			bc += n
			ptr -= int(bc >> 3)
			bc &= 7
			w = load64(in, ptr)
			n = uint(lc & 0xff)
			ll = int(lc>>32) + int(topBits(w, bc, n))
			bc += n
			n = uint(lc >> 8 & 0xff)
			llState = uint32(lc>>16&0xffff) + uint32(topBits(w, bc, n))
			bc += n
			n = uint(mc >> 8 & 0xff)
			mlState = uint32(mc>>16&0xffff) + uint32(topBits(w, bc, n))
			bc += n
			n = uint(oc >> 8 & 0xff)
			ofState = uint32(oc>>16&0xffff) + uint32(topBits(w, bc, n))
			bc += n
			if ptr < seqFastBytes || s+1 == fastEnd {
				// The checked reader takes over where the window stands.
				br.consumed = br.totalBits - (ptr*8 + 64 - int(bc))
				fastEnd = 0
			}
		} else {
			offVal = uint32(oc>>32) + br.read(int(oc&0xff))
			ml = int(mc>>32) + int(br.read(int(mc&0xff)))
			ll = int(lc>>32) + int(br.read(int(lc&0xff)))
			if br.overflowed() {
				return nil, errCorrupt("sequence bitstream overrun")
			}
			if s+1 < nbSeq {
				llState = uint32(lc>>16&0xffff) + br.read(int(lc>>8&0xff))
				mlState = uint32(mc>>16&0xffff) + br.read(int(mc>>8&0xff))
				ofState = uint32(oc>>16&0xffff) + br.read(int(oc>>8&0xff))
				if br.overflowed() {
					return nil, errCorrupt("sequence state update overrun")
				}
			}
		}

		var offset uint32
		if offVal > 3 {
			offset = offVal - 3
			r2, r1, r0 = r1, r0, offset
		} else {
			idx := offVal
			if ll == 0 {
				idx++
			}
			switch idx {
			case 1:
				offset = r0
			case 2:
				offset = r1
				r1, r0 = r0, offset
			case 3:
				offset = r2
				r2, r1, r0 = r1, r0, offset
			default: // 4: repeat offset 1 minus one byte
				offset = r0 - 1
				if offset == 0 {
					return nil, errCorrupt("zero repeat offset")
				}
				r2, r1, r0 = r1, r0, offset
			}
		}

		if ll > len(lit)-lp {
			return nil, errCorrupt("sequence consumes more literals than present")
		}
		if ll+ml > bound-p {
			return nil, errCorrupt("block output too large")
		}
		if ll <= 16 && lp+16 <= len(lit) {
			store64(o, p, load64(lit, lp))
			store64(o, p+8, load64(lit, lp+8))
		} else {
			copy(o[p:p+ll], lit[lp:])
		}
		p += ll
		lp += ll
		if uint(offset) > uint(p) {
			return nil, errCorrupt("match offset beyond window")
		}
		copyMatch(o, p, int(offset), ml)
		p += ml
	}
	if !br.finished() {
		return nil, errCorrupt("sequence bitstream not fully consumed")
	}
	d.reps = [3]uint32{r0, r1, r2}
	return append(o[:p], lit[lp:]...), nil
}

// topBits returns the n (≤ 63) bits that follow the bc (≤ 63) consumed
// from the top of window w; zero for n = 0.
func topBits(w uint64, bc, n uint) uint64 { return w << (bc & 63) >> 1 >> ((63 - n) & 63) }

func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i : i+8 : i+8]) }

func store64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[i:i+8:i+8], v) }

// reserve returns out with room for n more bytes, moving it to a larger
// allocation (at least doubled) when it has less.
func reserve(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	grown := make([]byte, len(out), max(2*cap(out), len(out)+n))
	copy(grown, out)
	return grown
}

// copyMatch copies the ml bytes that lie offset back from o[p] to o[p:],
// in 16-byte steps when the offset is at least that, 8-byte steps when
// it is at least 8 — either may write up to 15 bytes past p+ml, which
// the caller has reserved — and otherwise exactly, by copying the period
// once and doubling what has been written.
func copyMatch(o []byte, p, offset, ml int) {
	m, q := p-offset, p+ml
	switch {
	case offset >= 16:
		for ; p < q; p, m = p+16, m+16 {
			a, b := load64(o, m), load64(o, m+8)
			store64(o, p, a)
			store64(o, p+8, b)
		}
	case offset >= 8:
		for ; p < q; p, m = p+8, m+8 {
			store64(o, p, load64(o, m))
		}
	default:
		dst := o[p:q]
		for n := copy(dst, o[m:p]); n < ml; {
			n += copy(dst[n:], dst[:n])
		}
	}
}
