package bzip2x

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// The decoder. A block goes through the encoder's stages backwards, each
// written the way the deflate, zstd and LZ4 loops are: a 64-bit bit buffer
// refilled with one 8-byte load and drained by several symbols, table
// entries that hold a symbol and its length in one word, and stores by
// index into room reserved once.
//
//   - Huffman codes decode through one root table per code (rootBits), a
//     group of 50 symbols per selector; the rare longer code is found by a
//     binary search over the code's sorted ranges.
//   - MTF and RLE2 run inside the symbol loop: a RUNA/RUNB digit only adds
//     to the run, a run is stored eight bytes at a time, the list's first
//     sixteen bytes move as two words, and the block's bytes, the BWT's
//     last column, are counted by value as they go.
//   - The inverse BWT is one pass over those counts and one scatter into
//     tt, bzip2's merged array (a byte in the low 8 bits, a row link
//     above), and into lf, its mirror, so that two walks — from the
//     text's start forwards and from its end backwards — share the
//     latency of the loads. RLE1 is undone over the text after them,
//     eight bytes at a time away from runs.
//   - The block CRC runs over the finished block, slicing by eight.
//
// The decoder accepts exactly what compress/bzip2 accepts and decodes it
// to the same bytes: FuzzDecodeVsStdlib and TestCraftedBlockOutcomes hold
// it there. An extent cut short, or started at a false magic, fails —
// which is what the span engine's merge of false-positive stream magics
// relies on.

// A structuralError is bzip2 data that breaks a rule of the format; the
// message names the rule.
type structuralError string

func (e structuralError) Error() string { return "bzip2x: corrupt input: " + string(e) }

// The errors are held as error values, so that returning one converts
// nothing.
var (
	errStreamMagic    error = structuralError("bad stream magic")
	errLevel          error = structuralError("invalid block size level")
	errTrailing       error = structuralError("bytes after a stream that start no stream")
	errBlockMagic     error = structuralError("bad block magic")
	errRandomized     error = structuralError("deprecated randomized block")
	errNoSymbols      error = structuralError("block uses no byte values")
	errGroups         error = structuralError("number of Huffman tables outside 2..6")
	errSelector       error = structuralError("table selector out of range")
	errNoSelectors    error = structuralError("no table selectors")
	errCodeLength     error = structuralError("Huffman code length outside 1..20")
	errEqualCodes     error = structuralError("two Huffman codes coincide")
	errSelectorsShort error = structuralError("more symbols than selectors cover")
	errRunPastBlock   error = structuralError("run past the block size")
	errPastBlock      error = structuralError("symbols past the block size")
	errOrigPtr        error = structuralError("origPtr out of bounds")
	errBlockCRC       error = structuralError("block checksum mismatch")
	errStreamCRC      error = structuralError("stream checksum mismatch")
	errTruncated      error = structuralError("unexpected end of input")
)

const (
	maxGroups = 6   // Huffman tables a block may hold
	maxAlpha  = 258 // RUNA, RUNB, 255 MTF indexes, EOB
	// rootBits is the index width of a table's first level. Codes run to
	// 20 bits, but RUNA, RUNB and the first MTF indexes, most of a
	// block's symbols, take a handful each: ten bits resolve nearly all of
	// them in one lookup from 2 KiB of table, and six such tables stay in
	// L1.
	rootBits = 10
	// eobSym is the end-of-block symbol as a table holds it, whatever the
	// block's alphabet.
	eobSym = 0x1ff
	// runSlack is the room past a block's last byte that a run's 8-byte
	// stores may write into.
	runSlack = 8
	// maxPooledOut is the largest output buffer a decoder keeps.
	maxPooledOut = 4 << 20
)

// decoder is the scratch of a decode — the output as it grows, the
// block's bytes, its merged array, selectors and tables — reused across
// blocks, and across decodes through decoders.
type decoder struct {
	out       []byte
	ll        []byte // the BWT's last column, and runSlack bytes of room
	tt, lf    []uint32
	selectors []uint8
	tables    [maxGroups]huffTable
	mtf       [256]byte  // the MTF list
	counts    [256]int32 // the block's bytes by value
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decode decompresses src, one or more whole bzip2 streams back to back,
// checking every block and stream CRC. Blocks decode into the decoder's
// own buffer, and the output is copied out of it once its size is known:
// with the pool warm, a decode allocates its output and nothing else.
func decode(src []byte) ([]byte, error) {
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	out, err := d.decode(src)
	if cap(out) <= maxPooledOut {
		d.out = out[:0]
	}
	if err != nil {
		return nil, err
	}
	return bytes.Clone(out), nil
}

// decode is decode into d.out, which it returns grown, on error too.
func (d *decoder) decode(src []byte) ([]byte, error) {
	br := newBitReader(src, 0)
	out := d.out[:0]
	for first := true; ; first = false {
		if br.read(16) != 'B'<<8|'Z' {
			if first {
				return out, br.fail(errStreamMagic)
			}
			return out, br.fail(errTrailing)
		}
		if br.read(8) != 'h' {
			return out, br.fail(errStreamMagic)
		}
		level := int(br.read(8)) - '0'
		if level < 1 || level > 9 {
			return out, br.fail(errLevel)
		}
		var streamCRC uint32
		for {
			magic := br.read(48)
			if magic == footerMagic {
				break
			}
			if magic != blockMagic {
				return out, br.fail(errBlockMagic)
			}
			blk, err := d.readBlock(&br, level*100_000)
			if err != nil {
				return out, err
			}
			n := len(blk.ll)
			if cap(d.tt) < n {
				d.tt, d.lf = make([]uint32, level*100_000), make([]uint32, level*100_000)
			}
			start := len(out)
			out = unBWT(out, d.tt[:n], d.lf[:n], &blk)
			if blockCRC(out[start:]) != blk.crc {
				return out, errBlockCRC
			}
			streamCRC = combineCRC(streamCRC, blk.crc)
		}
		if uint32(br.read(32)) != streamCRC {
			return out, br.fail(errStreamCRC)
		}
		br.align()
		if br.overrun() {
			return out, errTruncated
		}
		if br.bitPos() == len(src)*8 {
			return out, nil
		}
	}
}

// block is one block's symbols decoded into bytes, with what the inverse
// BWT needs of them and the CRC the block declares.
type block struct {
	ll      []byte // the BWT's last column
	counts  [256]int32
	origPtr int
	crc     uint32
}

// readBlock decodes the block whose header — the block CRC that follows
// the 48-bit block magic — is next in br, in a stream whose level allows
// blockSize bytes a block, into d.ll. A block may be entered at any bit
// position of its input, through newBitReader(src, pos).
func (d *decoder) readBlock(br *bitReader, blockSize int) (block, error) {
	blk := block{crc: uint32(br.read(32))}
	if br.read(1) != 0 {
		return blk, br.fail(errRandomized)
	}
	blk.origPtr = int(br.read(24))

	// The byte values the block uses, a bitmap of 16-value ranges over one
	// of the values in each range used: in order, they are the MTF list.
	nsym := 0
	ranges := br.read(16)
	for r := 0; r < 16; r++ {
		if ranges&(0x8000>>r) == 0 {
			continue
		}
		m := br.read(16)
		for s := 0; s < 16; s++ {
			if m&(0x8000>>s) != 0 {
				d.mtf[nsym] = byte(r<<4 | s)
				nsym++
			}
		}
	}
	if nsym == 0 {
		return blk, br.fail(errNoSymbols)
	}

	groups := int(br.read(3))
	if groups < 2 || groups > maxGroups {
		return blk, br.fail(errGroups)
	}
	// Selectors: each group's table, MTF-coded in unary.
	nsel := int(br.read(15))
	d.selectors = slices.Grow(d.selectors[:0], nsel)[:nsel]
	order := [maxGroups]uint8{0, 1, 2, 3, 4, 5}
	for i := range d.selectors {
		c := 0
		for br.read(1) != 0 {
			if c++; c >= groups {
				return blk, br.fail(errSelector)
			}
		}
		v := order[c]
		copy(order[1:c+1], order[:c])
		order[0] = v
		d.selectors[i] = v
	}

	// Code lengths, delta-coded from a 5-bit start: 0 ends a symbol's, 10
	// adds one, 11 takes one away. Every value a length passes through
	// must lie in 1..20.
	alpha := nsym + 2
	var lengths [maxAlpha]uint8
	for t := 0; t < groups; t++ {
		l := int(br.read(5))
		for s := 0; s < alpha; s++ {
			for {
				if l < 1 || l > maxCodeLen {
					return blk, br.fail(errCodeLength)
				}
				if br.read(1) == 0 {
					break
				}
				l += 1 - 2*int(br.read(1))
			}
			lengths[s] = uint8(l)
		}
		if err := d.tables[t].init(lengths[:alpha]); err != nil {
			return blk, br.fail(err)
		}
	}
	if nsel == 0 {
		return blk, br.fail(errNoSelectors)
	}

	if cap(d.ll) < blockSize+runSlack {
		d.ll = make([]byte, blockSize+runSlack)
	}
	n, err := d.symbols(br, d.ll[:blockSize+runSlack])
	if err != nil {
		return blk, br.fail(err)
	}
	blk.counts = d.counts
	if br.overrun() {
		return blk, errTruncated
	}
	if blk.origPtr >= n {
		return blk, errOrigPtr
	}
	blk.ll = d.ll[:n]
	return blk, nil
}

// symbols is the block's symbol loop: it decodes Huffman codes, 50 a
// selector, up to the end-of-block symbol, undoing RLE2 and MTF with d.mtf
// as it goes into ll, which holds the block size and runSlack bytes more,
// and counting each byte value in d.counts. It returns how many bytes it
// stored.
//
// A RUNA or RUNB symbol is a digit of a bijective base-2 run of the MTF
// list's first byte (index 0); the run is stored at the next other
// symbol. Any other index moves its byte to the front of the list. The
// buffer is refilled when it holds fewer bits than the table's longest
// code, which leaves several symbols per 8-byte load.
func (d *decoder) symbols(br *bitReader, ll []byte) (int, error) {
	src, pos, bitbuf, nbits := br.src, br.pos, br.bits, br.nbits
	mtf, counts := &d.mtf, &d.counts
	clear(counts[:])
	k, run, power := 0, 0, 1
	err := errSelectorsShort
groups:
	for _, sel := range d.selectors {
		if pos*8-int(nbits) > len(src)*8 {
			err = errTruncated
			break
		}
		t := &d.tables[sel]
		for left := groupSize; left > 0; left-- {
			if nbits < t.maxLen {
				pos, bitbuf, nbits = refill(src, pos, bitbuf, nbits)
			}
			e := t.root[bitbuf>>(64-rootBits)]
			sym, n := uint(e&0x1ff), uint(e>>9)
			if n == 0 {
				sym, n = t.decodeLong(bitbuf)
			}
			bitbuf <<= n
			nbits -= n

			if sym < 2 {
				run += power << sym
				power <<= 1
				if run > len(ll)-runSlack-k {
					err = errRunPastBlock
					break groups
				}
				continue
			}
			if run > 0 {
				b := mtf[0]
				v := uint64(b) * 0x0101010101010101
				for j := k; j < k+run; j += 8 {
					binary.LittleEndian.PutUint64(ll[j:j+8:j+8], v)
				}
				counts[b] += int32(run)
				k += run
				run, power = 0, 1
			}
			if sym == eobSym {
				err = nil
				break groups
			}
			if k >= len(ll)-runSlack {
				err = errPastBlock
				break groups
			}
			i := (sym - 1) & 0xff
			b := mtf[i]
			if i < 16 {
				// Within the list's first two words, without a branch: the
				// list shifted up a byte with b in front, masked to its
				// first i+1 bytes, over the list as it was.
				lo, hi := binary.LittleEndian.Uint64(mtf[:8]), binary.LittleEndian.Uint64(mtf[8:16])
				mlo, mhi := uint64(1)<<(8*i+8)-1, uint64(1)<<(8*max(i, 7)-56)-1
				binary.LittleEndian.PutUint64(mtf[:8], (lo<<8|uint64(b))&mlo|lo&^mlo)
				binary.LittleEndian.PutUint64(mtf[8:16], (hi<<8|lo>>56)&mhi|hi&^mhi)
			} else {
				copy(mtf[1:i+1], mtf[:i])
				mtf[0] = b
			}
			ll[k] = b
			counts[b]++
			k++
		}
	}
	br.pos, br.bits, br.nbits = pos, bitbuf, nbits
	return k, err
}

// unBWT appends the block's bytes to out, with tt and lf (a row for each
// of the block's bytes) as scratch, and ll overwritten: the inverse BWT,
// then RLE1. Room for one byte a row is reserved first, so only a count's
// copies check for room.
func unBWT(out []byte, tt, lf []uint32, blk *block) []byte {
	// counts becomes the first row of each byte value in the sorted
	// rotations, and the scatter maps each row i of the last column to j,
	// the row of the rotation one byte earlier (LF): tt[j] links back to i
	// with i's byte, lf[i] on to j with i's byte. From origPtr, following
	// tt reads the text forwards and following lf reads it backwards —
	// two chains of loads that do not wait on each other, which the walk
	// takes half of the text each.
	counts := blk.counts
	var sum int32
	for b, c := range counts {
		counts[b] = sum
		sum += c
	}
	// Two rows at a time: the second's j counts the first when their bytes
	// are equal, so a run waits on counts in memory once a pair.
	text := blk.ll
	n := len(text)
	for i := 0; i+1 < n; i += 2 {
		b1, b2 := text[i], text[i+1]
		j1, j2 := counts[b1], counts[b2]
		j2 += int32(uint32(b1)^uint32(b2)-1) >> 31 & 1
		counts[b1], counts[b2] = j1+1, j2+1
		tt[j1], tt[j2] = uint32(i)<<8|uint32(b1), uint32(i+1)<<8|uint32(b2)
		lf[i], lf[i+1] = uint32(j1)<<8|uint32(b1), uint32(j2)<<8|uint32(b2)
	}
	if n%2 != 0 {
		b := text[n-1]
		j := counts[b]
		tt[j], lf[n-1] = uint32(n-1)<<8|uint32(b), uint32(j)<<8|uint32(b)
	}
	fwd, bwd := uint32(blk.origPtr), uint32(blk.origPtr)
	for k := 0; k < n/2; k++ {
		e, f := tt[fwd], lf[bwd]
		text[k], text[n-1-k] = byte(e), byte(f)
		fwd, bwd = e>>8, f>>8
	}
	if n%2 != 0 {
		e := tt[fwd]
		text[n/2], fwd = byte(e), e>>8
	}
	if fwd != bwd {
		// The walks meet only if n rows forwards from origPtr come back to
		// it, which the BWT of any text does. A corrupt block's rows may
		// not: compress/bzip2 still walks n of them forwards, and so does
		// this.
		fwd = uint32(blk.origPtr)
		for k := range text {
			e := tt[fwd]
			text[k], fwd = byte(e), e>>8
		}
	}

	// RLE1: after four equal bytes, a byte that counts more copies. Eight
	// bytes at a time are stored as they are up to the first that equals
	// the one before it; from there on, a byte at a time until a run is
	// over.
	p := len(out)
	o := slices.Grow(out, n)
	o = o[:cap(o)]
	last, run := -1, 0
	for k := 0; k < n; {
		if run == 0 && k+8 <= n {
			w := binary.LittleEndian.Uint64(text[k : k+8 : k+8])
			prev := uint64(byte(last))
			if last < 0 {
				prev = w&0xff ^ 1
			}
			x := w ^ (w<<8 | prev)
			z := 8
			if eq := (x - 0x0101010101010101) &^ x & 0x8080808080808080; eq != 0 {
				z = bits.TrailingZeros64(eq) >> 3
			}
			binary.LittleEndian.PutUint64(o[p:p+8:p+8], w)
			p, k = p+z, k+z
			if z == 8 {
				last = int(w >> 56)
				continue
			}
			if z > 0 {
				last = int(text[k-1])
			}
		}
		b := text[k]
		k++
		if run == 3 {
			c := int(b)
			if p+c+n-k > len(o) {
				o = slices.Grow(o[:p], c+n-k)
				o = o[:cap(o)]
			}
			fill := o[p : p+c]
			for i := range fill {
				fill[i] = byte(last)
			}
			p += c
			// compress/bzip2 forgets the run's byte only after a count
			// that added copies: after a count of zero, the same byte
			// continues the run.
			run = 0
			if c != 0 {
				last = -1
			}
			continue
		}
		if int(b) == last {
			run++
		} else {
			run, last = 0, int(b)
		}
		o[p] = b
		p++
	}
	return o[:p]
}

// huffTable decodes one of a block's Huffman codes.
type huffTable struct {
	// root is indexed by the next rootBits bits of the stream. An entry
	// holds the symbol in its low 9 bits and the code's length above them;
	// length 0 marks a prefix of codes longer than the root.
	root [1 << rootBits]uint16
	// long holds the codes longer than the root in stream order, each with
	// the first maxCodeLen-bit value it begins.
	long   []longCode
	maxLen uint // the longest code
}

type longCode struct {
	start uint32
	sym   uint16
	len   uint8
}

// symCode is a symbol and its code in compress/bzip2's numbering.
type symCode struct {
	code uint32
	sym  uint16
}

// init builds the table for the code lengths (each in 1..20) as
// compress/bzip2 decodes them. bzip2 assigns canonical codes, and for a
// complete code — a Kraft sum of exactly one, what encoders write —
// compress/bzip2's tree is that code. For any other lengths it still
// builds a tree: it numbers the codes from the longest down, left-aligned
// in 32 bits, and decodes the crit-bit trie of those numbers, a stream 1
// for a clear bit, skipping bits on which all the codes below a node
// agree; only two equal numbers are an error. A table no selector uses is
// never checked otherwise, so init builds that trie whatever the lengths:
// rejecting them, or decoding them canonically, would split from
// compress/bzip2 on streams one of them decodes.
func (t *huffTable) init(lengths []uint8) error {
	// Symbols by (length, symbol), numbered from the last of that order.
	var next [maxCodeLen + 2]int
	for _, l := range lengths {
		next[l+1]++
	}
	for l := 1; l <= maxCodeLen; l++ {
		next[l+1] += next[l]
	}
	var order [maxAlpha]uint16
	for s, l := range lengths {
		order[next[l]] = uint16(s)
		next[l]++
	}
	var codes [maxAlpha]symCode
	c := codes[:len(lengths)]
	code := uint32(0)
	for i := len(c) - 1; i >= 0; i-- {
		c[i] = symCode{code, order[i]}
		if int(order[i]) == len(lengths)-1 {
			c[i].sym = eobSym
		}
		code += 1 << (32 - lengths[order[i]])
	}
	slices.SortFunc(c, func(a, b symCode) int { return cmp.Compare(a.code, b.code) })
	for i := 1; i < len(c); i++ {
		if c[i].code == c[i-1].code {
			return errEqualCodes
		}
	}
	clear(t.root[:])
	t.long, t.maxLen = t.long[:0], 0
	t.assign(c, 0, 0)
	return nil
}

// assign places the symbols of c — sorted numbers, distinct, all below a
// trie node whose stream code is prefix, n bits — in the table: the
// highest bit on which c differs splits it, the numbers with the bit set
// taking a 0. Numbers are multiples of 1<<12, so n stays within 20.
func (t *huffTable) assign(c []symCode, prefix uint32, n uint) {
	if len(c) == 1 {
		t.add(c[0].sym, prefix, n)
		return
	}
	bit := 31 - bits.LeadingZeros32(c[0].code^c[len(c)-1].code)
	mid := 1
	for c[mid].code>>bit&1 == 0 {
		mid++
	}
	t.assign(c[mid:], prefix<<1, n+1)
	t.assign(c[:mid], prefix<<1|1, n+1)
}

// add enters the code of n bits for sym.
func (t *huffTable) add(sym uint16, code uint32, n uint) {
	t.maxLen = max(t.maxLen, n)
	if n > rootBits {
		t.long = append(t.long, longCode{start: code << (maxCodeLen - n), sym: sym, len: uint8(n)})
		return
	}
	e := sym | uint16(n)<<9
	first := code << (rootBits - n)
	fill := t.root[first : first+1<<(rootBits-n)]
	for i := range fill {
		fill[i] = e
	}
}

// decodeLong returns the symbol and length of the code longer than the
// root that heads bitbuf. The codes are complete, so one covers it.
func (t *huffTable) decodeLong(bitbuf uint64) (uint, uint) {
	v := uint32(bitbuf >> (64 - maxCodeLen))
	l := t.long
	lo, hi := 0, len(l)
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); l[m].start <= v {
			lo = m
		} else {
			hi = m
		}
	}
	return uint(l[lo].sym), uint(l[lo].len)
}

// bitReader reads src MSB-first, the bit order of the format.
type bitReader struct {
	src []byte
	// pos is the next byte of src to load; past the end of src, zero bytes
	// are loaded in its place and counted, so a reader that has read past
	// the end knows it (overrun).
	pos int
	// bits holds the next nbits bits of the stream from its top bit down;
	// below them are zeros or the stream's next bits, so a load may OR in
	// bytes already there.
	bits  uint64
	nbits uint
}

// newBitReader returns a reader at bit bitPos of src.
func newBitReader(src []byte, bitPos int) bitReader {
	r := bitReader{src: src, pos: bitPos >> 3}
	r.pos, r.bits, r.nbits = refill(src, r.pos, 0, 0)
	r.bits <<= bitPos & 7
	r.nbits -= uint(bitPos & 7)
	return r
}

// refill tops a reader's state up to at least 56 bits.
func refill(src []byte, pos int, bits uint64, nbits uint) (int, uint64, uint) {
	if pos+8 <= len(src) {
		bits |= binary.BigEndian.Uint64(src[pos:pos+8:pos+8]) >> nbits
		return pos + int(63-nbits)>>3, bits, nbits | 56
	}
	for ; nbits <= 56; nbits += 8 {
		if pos < len(src) {
			bits |= uint64(src[pos]) << (56 - nbits)
		}
		pos++
	}
	return pos, bits, nbits
}

// read consumes and returns the next n (1..56) bits.
func (r *bitReader) read(n uint) uint64 {
	if r.nbits < n {
		r.pos, r.bits, r.nbits = refill(r.src, r.pos, r.bits, r.nbits)
	}
	v := r.bits >> (64 - n)
	r.bits <<= n
	r.nbits -= n
	return v
}

// bitPos returns the position of the next bit in src.
func (r *bitReader) bitPos() int { return r.pos*8 - int(r.nbits) }

// overrun reports a read past the end of src.
func (r *bitReader) overrun() bool { return r.bitPos() > len(r.src)*8 }

// align skips to the next byte boundary.
func (r *bitReader) align() {
	r.bits <<= r.nbits & 7
	r.nbits &^= 7
}

// fail returns err, or errTruncated for a reader that has read past the
// end of its input: the zero bits read there explain any other error.
func (r *bitReader) fail(err error) error {
	if r.overrun() {
		return errTruncated
	}
	return err
}
