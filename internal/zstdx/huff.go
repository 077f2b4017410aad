package zstdx

import (
	"encoding/binary"
	"math/bits"
)

// maxHuffBits is the format's limit on Huffman code lengths (§4.2.1).
const maxHuffBits = 11

type huffEntry struct {
	symbol uint8
	nbBits uint8
}

// huffTable is a single-level Huffman decoding table of 1<<maxBits
// cells, plus the canonical code of every symbol for the encoder.
type huffTable struct {
	maxBits int
	entries []huffEntry
	codes   [256]uint16
	lens    [256]uint8
}

// buildHuffTable builds a table from complete weights (the implied
// last weight already appended).
func buildHuffTable(weights []uint8) (*huffTable, error) {
	t := new(huffTable)
	if err := t.build(weights); err != nil {
		return nil, err
	}
	return t, nil
}

// build fills t from complete weights, reusing its storage. Weight w>0
// means a code of maxBits+1-w bits; cells are filled by ascending
// weight, symbols in natural order within a weight — the canonical zstd
// assignment.
func (t *huffTable) build(weights []uint8) error {
	if len(weights) > 256 {
		return errCorrupt("more than 256 Huffman symbols")
	}
	total := 0
	var rank [maxHuffBits + 2]int
	for _, w := range weights {
		if w > maxHuffBits {
			return errCorrupt("Huffman weight too large")
		}
		if w > 0 {
			total += 1 << (w - 1)
			rank[w]++
		}
	}
	if total == 0 || total&(total-1) != 0 {
		return errCorrupt("Huffman weights do not sum to a power of two")
	}
	maxBits := bits.Len(uint(total)) - 1
	if maxBits > maxHuffBits {
		return errCorrupt("Huffman table log too large")
	}
	if rank[1] < 2 || rank[1]&1 != 0 {
		return errCorrupt("Huffman weight-one count must be even and at least 2")
	}
	t.maxBits = maxBits
	t.entries = resize(t.entries, total)
	clear(t.lens[:])
	// Starting cell for each weight: all lighter weights come first.
	var start [maxHuffBits + 2]int
	pos := 0
	for w := 1; w <= maxBits; w++ {
		start[w] = pos
		pos += rank[w] << (w - 1)
	}
	for s, w := range weights {
		if w == 0 {
			continue
		}
		span := 1 << (w - 1)
		nb := uint8(maxBits + 1 - int(w))
		e := huffEntry{symbol: uint8(s), nbBits: nb}
		for i := start[w]; i < start[w]+span; i++ {
			t.entries[i] = e
		}
		t.codes[s] = uint16(start[w] >> (maxBits - int(nb)))
		t.lens[s] = nb
		start[w] += span
	}
	return nil
}

// completeWeights appends the implied last weight to the explicit ones
// (§4.2.1: the total must complete to a power of two).
func completeWeights(explicit []uint8) ([]uint8, error) {
	total := 0
	for _, w := range explicit {
		if w > maxHuffBits {
			return nil, errCorrupt("Huffman weight too large")
		}
		if w > 0 {
			total += 1 << (w - 1)
		}
	}
	if total == 0 {
		return nil, errCorrupt("Huffman weights all zero")
	}
	tableLog := bits.Len(uint(total))
	if tableLog > maxHuffBits {
		return nil, errCorrupt("Huffman table log too large")
	}
	rest := 1<<tableLog - total
	if rest&(rest-1) != 0 {
		return nil, errCorrupt("implied Huffman weight not a power of two")
	}
	return append(explicit, uint8(bits.Len(uint(rest)))), nil
}

// readHuffTable parses a Huffman tree description (direct 4-bit
// weights, or FSE-compressed with two interleaved states) into d.huffBuf
// and makes it the literals' table, returning the bytes consumed.
func (d *frameDecoder) readHuffTable(data []byte) (int, error) {
	if len(data) < 1 {
		return 0, errCorrupt("missing Huffman tree header")
	}
	hb := int(data[0])
	var explicit []uint8
	var consumed int
	if hb >= 128 {
		num := hb - 127
		nBytes := (num + 1) / 2
		if len(data) < 1+nBytes {
			return 0, errCorrupt("truncated direct Huffman weights")
		}
		explicit = d.weights[:num]
		for i := 0; i < num; i++ {
			v := data[1+i/2]
			if i%2 == 0 {
				explicit[i] = v >> 4
			} else {
				explicit[i] = v & 15
			}
		}
		consumed = 1 + nBytes
	} else {
		if len(data) < 1+hb {
			return 0, errCorrupt("truncated FSE Huffman weights")
		}
		var err error
		explicit, err = readFSEWeights(&d.fse, data[1:1+hb], d.weights[:0])
		if err != nil {
			return 0, err
		}
		consumed = 1 + hb
	}
	weights, err := completeWeights(explicit)
	if err != nil {
		return 0, err
	}
	if err := d.huffBuf.build(weights); err != nil {
		return 0, err
	}
	d.huff = &d.huffBuf
	return consumed, nil
}

// readFSEWeights decodes FSE-compressed Huffman weights, appending them
// to dst: a table description (built into table) followed by a backward
// bitstream with two interleaved states, drained until the stream is
// exhausted (§4.2.1.2).
func readFSEWeights(table *fseTable, data []byte, dst []uint8) ([]uint8, error) {
	n, err := readFSETableDesc(table, data, 6, 256)
	if err != nil {
		return nil, err
	}
	br, err := newRevBitReader(data[n:])
	if err != nil {
		return nil, err
	}
	s1 := br.read(table.log)
	s2 := br.read(table.log)
	if br.overflowed() {
		return nil, errCorrupt("FSE weight stream too short")
	}
	weights := dst
	for {
		// A state whose next hop needs more bits than remain holds the
		// second-to-last symbol; the other state holds the last.
		e1 := table.entries[s1]
		if br.finished() && e1.nbBits > 0 {
			weights = append(weights, e1.symbol, table.entries[s2].symbol)
			break
		}
		weights = append(weights, e1.symbol)
		s1 = uint32(e1.newState) + br.read(int(e1.nbBits))
		if br.overflowed() {
			return nil, errCorrupt("FSE weight stream overrun")
		}
		e2 := table.entries[s2]
		if br.finished() && e2.nbBits > 0 {
			weights = append(weights, e2.symbol, table.entries[s1].symbol)
			break
		}
		weights = append(weights, e2.symbol)
		s2 = uint32(e2.newState) + br.read(int(e2.nbBits))
		if br.overflowed() {
			return nil, errCorrupt("FSE weight stream overrun")
		}
		if len(weights)-len(dst) > 254 {
			return nil, errCorrupt("FSE weight stream does not terminate")
		}
	}
	if len(weights)-len(dst) > 255 {
		return nil, errCorrupt("too many Huffman weights")
	}
	return weights, nil
}

// decodeStream inflates one Huffman bitstream into exactly len(dst)
// symbols; the stream must be consumed exactly (§4.2.2).
//
// The hot loop keeps a top-aligned 64-bit window over src and decodes
// five symbols per refill: after a refill at most 7 bits are consumed
// from the window top, and the fifth max-length code peeks at offset
// 7+4×11 = 51, +11 = 62 ≤ 64, so no per-symbol bounds or overflow
// checks are needed. While the window pointer stays ≥ 0 the logical
// cursor cannot pass the start of the stream, so overflow is impossible
// by construction; the checked per-symbol tail handles the final bytes.
func (t *huffTable) decodeStream(src []byte, dst []byte) error {
	br, err := newRevBitReader(src)
	if err != nil {
		return err
	}
	return t.decodeInto(&br, src, dst, 0)
}

// windowAt positions a top-aligned 64-bit window at the reader's
// current bit cursor: ptr is the window's byte offset (negative when
// the stream is too short for a full window), bc the bits already
// consumed from the window top, so the next code sits at w<<bc.
func windowAt(br *revBitReader, src []byte) (ptr int, bc uint, w uint64) {
	remaining := br.totalBits - br.consumed
	bc = uint(8-remaining&7) & 7
	ptr = (remaining + int(bc) - 64) / 8
	if ptr >= 0 {
		w = binary.LittleEndian.Uint64(src[ptr:])
	}
	return
}

// decodeInto resumes decoding at output index i and the reader's bit
// cursor, running the wide-window fast loop while it can and the
// checked per-symbol loop for the tail.
func (t *huffTable) decodeInto(br *revBitReader, src []byte, dst []byte, i int) error {
	entries := t.entries
	maxBits := uint(t.maxBits)
	if ptr, bc, w := windowAt(br, src); ptr >= 0 && maxBits > 0 {
		// Masked table indices and an advancing output slice keep the
		// loop body free of bounds checks: the table is complete, so
		// len(entries) == 1<<maxBits and the mask is a no-op.
		mask := uint64(len(entries)) - 1
		d := dst[i:]
		for len(d) >= 5 {
			if bc >= 8 {
				nptr := ptr - int(bc>>3)
				if nptr < 0 {
					break
				}
				ptr = nptr
				bc &= 7
				w = binary.LittleEndian.Uint64(src[ptr:])
			}
			// Five symbols per refill: bc ≤ 7 after the refill, and the
			// fifth lookup peeks at bc ≤ 7+4×11 = 51, +11 = 62 ≤ 64.
			e := entries[w<<bc>>(64-maxBits)&mask]
			bc += uint(e.nbBits)
			d[0] = e.symbol
			e = entries[w<<bc>>(64-maxBits)&mask]
			bc += uint(e.nbBits)
			d[1] = e.symbol
			e = entries[w<<bc>>(64-maxBits)&mask]
			bc += uint(e.nbBits)
			d[2] = e.symbol
			e = entries[w<<bc>>(64-maxBits)&mask]
			bc += uint(e.nbBits)
			d[3] = e.symbol
			e = entries[w<<bc>>(64-maxBits)&mask]
			bc += uint(e.nbBits)
			d[4] = e.symbol
			d = d[5:]
		}
		i = len(dst) - len(d)
		// Sync the checked reader to the fast cursor: the next unread
		// bit, measured from the bottom of the stream, is the window
		// top minus the bits consumed within it.
		br.consumed = br.totalBits - (ptr*8 + 64 - int(bc))
	}
	for ; i < len(dst); i++ {
		e := entries[br.peek(int(maxBits))]
		br.consumed += int(e.nbBits)
		if br.overflowed() {
			return errCorrupt("Huffman stream overrun")
		}
		dst[i] = e.symbol
	}
	if !br.finished() {
		return errCorrupt("Huffman stream not fully consumed")
	}
	return nil
}

// decode4Streams inflates the four independent literal streams with
// their bit windows interleaved in one loop. A single stream's decode
// is a serial dependency chain (each code's position depends on the
// previous code's length), so one stream leaves most of the core idle;
// four chains in flight cover each other's table-load latency. Each
// round refills all four windows, then decodes four symbols from each;
// the per-stream invariants are exactly decodeStream's. Tails — and
// any stream too short for a 64-bit window — finish on the per-stream
// path via decodeInto.
func (t *huffTable) decode4Streams(srcs *[4][]byte, dsts *[4][]byte) error {
	var br [4]revBitReader
	for k := range srcs {
		b, err := newRevBitReader(srcs[k])
		if err != nil {
			return err
		}
		br[k] = b
	}
	maxBits := uint(t.maxBits)
	entries := t.entries
	var i0, i1, i2, i3 int
	p0, b0, w0 := windowAt(&br[0], srcs[0])
	p1, b1, w1 := windowAt(&br[1], srcs[1])
	p2, b2, w2 := windowAt(&br[2], srcs[2])
	p3, b3, w3 := windowAt(&br[3], srcs[3])
	if maxBits > 0 && p0 >= 0 && p1 >= 0 && p2 >= 0 && p3 >= 0 {
		s0, s1, s2, s3 := srcs[0], srcs[1], srcs[2], srcs[3]
		d0, d1, d2, d3 := dsts[0], dsts[1], dsts[2], dsts[3]
		// Masked table indices and advancing output slices keep the 32
		// lookups and stores per round free of bounds checks (the table
		// is complete, so len(entries) == 1<<maxBits).
		mask := uint64(len(entries)) - 1
		for len(d0) >= 5 && len(d1) >= 5 && len(d2) >= 5 && len(d3) >= 5 {
			if b0 >= 8 {
				np := p0 - int(b0>>3)
				if np < 0 {
					break
				}
				p0, b0 = np, b0&7
				w0 = binary.LittleEndian.Uint64(s0[p0:])
			}
			if b1 >= 8 {
				np := p1 - int(b1>>3)
				if np < 0 {
					break
				}
				p1, b1 = np, b1&7
				w1 = binary.LittleEndian.Uint64(s1[p1:])
			}
			if b2 >= 8 {
				np := p2 - int(b2>>3)
				if np < 0 {
					break
				}
				p2, b2 = np, b2&7
				w2 = binary.LittleEndian.Uint64(s2[p2:])
			}
			if b3 >= 8 {
				np := p3 - int(b3>>3)
				if np < 0 {
					break
				}
				p3, b3 = np, b3&7
				w3 = binary.LittleEndian.Uint64(s3[p3:])
			}
			e0 := entries[w0<<b0>>(64-maxBits)&mask]
			e1 := entries[w1<<b1>>(64-maxBits)&mask]
			e2 := entries[w2<<b2>>(64-maxBits)&mask]
			e3 := entries[w3<<b3>>(64-maxBits)&mask]
			b0 += uint(e0.nbBits)
			b1 += uint(e1.nbBits)
			b2 += uint(e2.nbBits)
			b3 += uint(e3.nbBits)
			d0[0], d1[0], d2[0], d3[0] = e0.symbol, e1.symbol, e2.symbol, e3.symbol
			e0 = entries[w0<<b0>>(64-maxBits)&mask]
			e1 = entries[w1<<b1>>(64-maxBits)&mask]
			e2 = entries[w2<<b2>>(64-maxBits)&mask]
			e3 = entries[w3<<b3>>(64-maxBits)&mask]
			b0 += uint(e0.nbBits)
			b1 += uint(e1.nbBits)
			b2 += uint(e2.nbBits)
			b3 += uint(e3.nbBits)
			d0[1], d1[1], d2[1], d3[1] = e0.symbol, e1.symbol, e2.symbol, e3.symbol
			e0 = entries[w0<<b0>>(64-maxBits)&mask]
			e1 = entries[w1<<b1>>(64-maxBits)&mask]
			e2 = entries[w2<<b2>>(64-maxBits)&mask]
			e3 = entries[w3<<b3>>(64-maxBits)&mask]
			b0 += uint(e0.nbBits)
			b1 += uint(e1.nbBits)
			b2 += uint(e2.nbBits)
			b3 += uint(e3.nbBits)
			d0[2], d1[2], d2[2], d3[2] = e0.symbol, e1.symbol, e2.symbol, e3.symbol
			e0 = entries[w0<<b0>>(64-maxBits)&mask]
			e1 = entries[w1<<b1>>(64-maxBits)&mask]
			e2 = entries[w2<<b2>>(64-maxBits)&mask]
			e3 = entries[w3<<b3>>(64-maxBits)&mask]
			b0 += uint(e0.nbBits)
			b1 += uint(e1.nbBits)
			b2 += uint(e2.nbBits)
			b3 += uint(e3.nbBits)
			d0[3], d1[3], d2[3], d3[3] = e0.symbol, e1.symbol, e2.symbol, e3.symbol
			e0 = entries[w0<<b0>>(64-maxBits)&mask]
			e1 = entries[w1<<b1>>(64-maxBits)&mask]
			e2 = entries[w2<<b2>>(64-maxBits)&mask]
			e3 = entries[w3<<b3>>(64-maxBits)&mask]
			b0 += uint(e0.nbBits)
			b1 += uint(e1.nbBits)
			b2 += uint(e2.nbBits)
			b3 += uint(e3.nbBits)
			d0[4], d1[4], d2[4], d3[4] = e0.symbol, e1.symbol, e2.symbol, e3.symbol
			d0, d1, d2, d3 = d0[5:], d1[5:], d2[5:], d3[5:]
		}
		i0 = len(dsts[0]) - len(d0)
		i1 = len(dsts[1]) - len(d1)
		i2 = len(dsts[2]) - len(d2)
		i3 = len(dsts[3]) - len(d3)
		br[0].consumed = br[0].totalBits - (p0*8 + 64 - int(b0))
		br[1].consumed = br[1].totalBits - (p1*8 + 64 - int(b1))
		br[2].consumed = br[2].totalBits - (p2*8 + 64 - int(b2))
		br[3].consumed = br[3].totalBits - (p3*8 + 64 - int(b3))
	}
	for k, i := range [4]int{i0, i1, i2, i3} {
		if err := t.decodeInto(&br[k], srcs[k], dsts[k], i); err != nil {
			return err
		}
	}
	return nil
}

// decodeLiterals inflates the 1- or 4-stream Huffman literal payload
// into out (len(out) = the regenerated size); out may be reused
// scratch, since every byte is overwritten on success.
func (t *huffTable) decodeLiterals(out []byte, src []byte, fourStreams bool) ([]byte, error) {
	regen := len(out)
	if !fourStreams {
		return out, t.decodeStream(src, out)
	}
	if len(src) < 6 {
		return nil, errCorrupt("missing Huffman jump table")
	}
	sizes := [4]int{
		int(src[0]) | int(src[1])<<8,
		int(src[2]) | int(src[3])<<8,
		int(src[4]) | int(src[5])<<8,
	}
	sizes[3] = len(src) - 6 - sizes[0] - sizes[1] - sizes[2]
	if sizes[3] <= 0 {
		return nil, errCorrupt("Huffman jump table exceeds payload")
	}
	seg := (regen + 3) / 4
	if seg*3 > regen {
		return nil, errCorrupt("four Huffman streams for tiny output")
	}
	var srcs, dsts [4][]byte
	p := 6
	o := 0
	for i, size := range sizes {
		n := seg
		if i == 3 {
			n = regen - 3*seg
		}
		if size < 0 || p+size > len(src) {
			return nil, errCorrupt("Huffman jump table exceeds payload")
		}
		srcs[i] = src[p : p+size]
		dsts[i] = out[o : o+n]
		p += size
		o += n
	}
	if err := t.decode4Streams(&srcs, &dsts); err != nil {
		return nil, err
	}
	return out, nil
}
