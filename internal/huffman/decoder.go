// Package huffman implements canonical Huffman codes as used by Deflate
// (RFC 1951): construction and validation of decoders from code-length
// sequences, fast table-driven decoding, and length-limited code
// construction for the compressor suite.
//
// The validity rules follow the paper's Figure 6: a code is *invalid*
// when some length is oversubscribed (more codes of a length than the
// binary tree allows) and *inefficient* (non-optimal) when leaves remain
// unused. The block finder exploits both conditions as filters
// (paper §3.4.2).
package huffman

import (
	"errors"
	"math/bits"

	"repro/internal/bitio"
)

// MaxBits is the maximum code length in Deflate literal/distance codes.
const MaxBits = 15

// Validation outcomes for a code-length sequence.
var (
	ErrOversubscribed = errors.New("huffman: oversubscribed code (invalid)")
	ErrIncomplete     = errors.New("huffman: incomplete code (non-optimal)")
	ErrNoSymbols      = errors.New("huffman: no symbols with nonzero length")
	ErrTooManyBits    = errors.New("huffman: code length exceeds maximum")
	ErrBadSymbol      = errors.New("huffman: invalid symbol in stream")
)

// Validate checks the code described by lengths (one entry per symbol,
// zero meaning "symbol unused"). With allowIncomplete, a code of exactly
// one symbol, one bit long, may be incomplete — the Deflate special case
// for distance codes ("if only one distance code is used, it is encoded
// using one bit"). A lone longer code stays incomplete, as it does for
// zlib and compress/flate.
func Validate(lengths []uint8, allowIncomplete bool) error {
	var counts [MaxBits + 1]int
	used := 0
	for _, l := range lengths {
		if l > MaxBits {
			return ErrTooManyBits
		}
		if l > 0 {
			counts[l]++
			used++
		}
	}
	if used == 0 {
		return ErrNoSymbols
	}
	return ValidateCounts(counts[:], used, allowIncomplete)
}

// ValidateCounts checks a histogram of code lengths (counts[l] = number
// of symbols with length l). used is the total number of coded symbols.
func ValidateCounts(counts []int, used int, allowIncomplete bool) error {
	avail := 1
	for l := 1; l < len(counts); l++ {
		avail <<= 1
		avail -= counts[l]
		if avail < 0 {
			return ErrOversubscribed
		}
	}
	if avail != 0 && !(allowIncomplete && used == 1 && counts[1] == 1) {
		return ErrIncomplete
	}
	return nil
}

// Entry is one cell of the decoding table, a packed uint32 that says
// what to do with the code it stands for, so that a decode loop acts on
// the entry it loaded without a second table:
//
//	bits 0..5   Bits: what the entry consumes — the code's length (below a
//	            link, what is left of it) plus the extra bits behind a Base
//	            symbol; RootBits for a link
//	bits 8..11  CodeBits: the code's length alone, which is where the
//	            extra bits start; for a link, the sub-table's index width
//	bits 12..15 kind: Literal, Base, EndOfBlock or Link, none of them on a
//	            symbol the stream may not use
//	bits 16..31 Val: the symbol or literal byte, the length or distance
//	            base, or the sub-table's offset in Table
//
// The layout is the same in the root and in the sub-tables. A zero Entry
// marks a code prefix the code does not use.
type Entry uint32

// The kinds of Entry. Decoders built without symbol entries hold Literal
// ones whose Val is the symbol.
const (
	Link       Entry = 1 << 12 // long code: continue at Table()[Val()+next CodeBits() bits]
	EndOfBlock Entry = 1 << 13
	Base       Entry = 1 << 14 // Val() plus the Bits()-CodeBits() bits behind the code
	Literal    Entry = 1 << 15
)

// Symbol returns the entry of a symbol before its code is known — kind,
// value and the number of extra bits behind the code — for the symbol
// table handed to Init, which adds the code's length.
func Symbol(kind Entry, val uint16, extraBits uint) Entry {
	return kind | Entry(val)<<16 | Entry(extraBits)
}

// Bits returns how many bits the entry consumes, extra bits included.
func (e Entry) Bits() uint { return uint(e & 63) }

// CodeBits returns the length of the code in this table level, or the
// sub-table index width of a link.
func (e Entry) CodeBits() uint { return uint(e >> 8 & 15) }

// Val returns the symbol, base value or sub-table offset.
func (e Entry) Val() uint16 { return uint16(e >> 16) }

// RootBits is the index width of the table's first level, the same for
// every decoder so that decode loops index it as a fixed-size array,
// without a bounds check. Nine bits is zlib's ENOUGH-tuned default: it
// resolves 97.7 % of the literal/length lookups of gzip -6 output in
// one step at 2 KiB of table, which stays in L1 next to the distance
// table; codes shorter than the root fill it by replication. Ten bits
// measured 3 % faster in the block loops and a fifth slower per header
// (BenchmarkTableBuild in internal/deflate), which the block finder pays
// for candidates that decode nothing.
const (
	RootBits = 9
	RootSize = 1 << RootBits
)

// Decoder is a table-driven canonical Huffman decoder. Codes no longer
// than RootBits resolve with a single lookup; longer codes use one
// second-level lookup, the same structure zlib's inflate uses.
type Decoder struct {
	table  []Entry // the root, then the sub-tables, each 1<<(maxLen-RootBits) wide
	maxLen uint
}

// NewDecoder builds a decoder for the canonical code defined by lengths,
// whose entries are Literal ones holding the symbol. allowIncomplete has
// the same meaning as in Validate.
func NewDecoder(lengths []uint8, allowIncomplete bool) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Init(lengths, allowIncomplete, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// Init (re)builds the decoder in place, reusing table storage. This is
// the hot path of Dynamic Block decoding: two Init calls per block.
// symbols, when not nil, holds each symbol's Entry as Symbol returns it;
// without it a symbol's entry is a Literal holding its number.
func (d *Decoder) Init(lengths []uint8, allowIncomplete bool, symbols []Entry) error {
	var counts [MaxBits + 1]int
	used := 0
	maxLen := uint(0)
	for _, l := range lengths {
		if l > MaxBits {
			return ErrTooManyBits
		}
		if l == 0 {
			continue
		}
		counts[l]++
		used++
		maxLen = max(maxLen, uint(l))
	}
	if used == 0 {
		return ErrNoSymbols
	}
	if err := ValidateCounts(counts[:], used, allowIncomplete); err != nil {
		return err
	}

	// Canonical first-code computation.
	var nextCode [MaxBits + 2]uint32
	code := uint32(0)
	for l := 1; l <= MaxBits; l++ {
		code = (code + uint32(counts[l-1])) << 1
		nextCode[l] = code
	}

	// Codes longer than the root exist in complete codes only (the one
	// incomplete code that passes has one bit), where they are the
	// numerically largest: every root prefix from the first such code's up
	// to the last has a sub-table, so the table's size is known before it
	// is filled. It stays far below the 1<<16 a link's Val can address (at
	// most RootSize sub-tables of 1<<(MaxBits-RootBits)).
	size, subBits := RootSize, uint(0)
	if maxLen > RootBits {
		subBits = maxLen - RootBits
		size += (RootSize - int(nextCode[RootBits+1]>>1)) << subBits
	}
	if cap(d.table) < size {
		d.table = make([]Entry, size)
	}
	d.table = d.table[:size]
	clear(d.table)
	d.maxLen = maxLen

	nextSub := RootSize
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := nextCode[l]
		nextCode[l]++
		// Deflate codes are written MSB-first within the code while the
		// stream is LSB-first, so the lookup key is the bit-reversed code.
		rev := int(reverseBits(c, uint(l)))
		e := Literal | Entry(sym)<<16
		if symbols != nil {
			e = symbols[sym]
		}
		if l <= RootBits {
			// Fill all root slots whose low bits match the code.
			e += Entry(l) | Entry(l)<<8
			for i := rev; i < RootSize; i += 1 << l {
				d.table[i] = e
			}
			continue
		}
		// Long code: the first one under a root prefix opens its sub-table.
		prefix := rev & (RootSize - 1)
		link := d.table[prefix]
		if link == 0 {
			link = Link | Entry(nextSub)<<16 | Entry(subBits)<<8 | RootBits
			d.table[prefix] = link
			nextSub += 1 << subBits
		}
		rest := uint(l) - RootBits
		e += Entry(rest) | Entry(rest)<<8
		sub := d.table[link.Val():][:1<<subBits]
		for i := rev >> RootBits; i < len(sub); i += 1 << rest {
			sub[i] = e
		}
	}
	return nil
}

// reverseBits returns the low n bits of v (0 < n <= 16) in reverse order.
func reverseBits(v uint32, n uint) uint32 {
	return uint32(bits.Reverse16(uint16(v)) >> (16 - n))
}

// DecodeEntry reads one code from br and returns its entry, the code
// consumed and any extra bits behind it not. Near end of stream it
// relies on Peek's zero padding and only errors when the consumed code
// would extend past the real data.
func (d *Decoder) DecodeEntry(br *bitio.BitReader) (Entry, error) {
	v, avail := br.Peek(d.maxLen)
	e := d.table[v&(RootSize-1)]
	n := uint(0)
	if e&Link != 0 {
		n = RootBits
		e = d.table[uint(e.Val())+uint(v>>RootBits)&(1<<e.CodeBits()-1)]
	}
	if e == 0 {
		return 0, ErrBadSymbol
	}
	if n += e.CodeBits(); n > avail {
		return 0, errors.New("huffman: unexpected end of stream")
	}
	br.Skip(n)
	return e, nil
}

// Decode reads one symbol from br; for decoders built without symbol
// entries.
func (d *Decoder) Decode(br *bitio.BitReader) (uint16, error) {
	e, err := d.DecodeEntry(br)
	return e.Val(), err
}

// Root returns the table's first level for inlined lookups: index it
// with the low RootBits bits of the stream; a Link entry continues in
// Table. Both are owned by the Decoder and valid until the next Init.
func (d *Decoder) Root() *[RootSize]Entry { return (*[RootSize]Entry)(d.table) }

// Table returns the whole table, which sub-table offsets index.
func (d *Decoder) Table() []Entry { return d.table }
