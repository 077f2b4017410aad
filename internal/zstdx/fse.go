package zstdx

import "math/bits"

// fseEntry is one cell of an FSE decoding table: emitting symbol, then
// consuming nbBits to move to newState+bits.
type fseEntry struct {
	symbol   uint8
	nbBits   uint8
	newState uint16
}

type fseTable struct {
	log     int
	entries []fseEntry
}

// build fills t with the decoding table for normalized counts
// (probabilities over 1<<log cells; -1 marks a less-than-one symbol that
// gets a single cell at the high end of the table), reusing t's storage.
// log is at most maxSeqLog and probs has at most 256 symbols.
func (t *fseTable) build(probs []int16, log int) error {
	size := 1 << log
	t.log = log
	t.entries = resize(t.entries, size)
	var symbols [1 << maxSeqLog]uint8
	var next [256]uint16
	high := size - 1
	for s, p := range probs {
		if p == -1 {
			if high < 0 {
				return errCorrupt("FSE low-prob symbols overflow table")
			}
			symbols[high] = uint8(s)
			high--
			next[s] = 1
		} else {
			next[s] = uint16(p)
		}
	}
	step := size>>1 + size>>3 + 3
	mask := size - 1
	pos := 0
	for s, p := range probs {
		for i := 0; i < int(p); i++ {
			symbols[pos] = uint8(s)
			pos = (pos + step) & mask
			for pos > high {
				pos = (pos + step) & mask
			}
		}
	}
	if pos != 0 {
		return errCorrupt("FSE spread did not close")
	}
	for i := 0; i < size; i++ {
		s := symbols[i]
		x := next[s]
		next[s]++
		nb := log - (bits.Len16(x) - 1)
		t.entries[i] = fseEntry{symbol: s, nbBits: uint8(nb), newState: uint16(int(x)<<nb - size)}
	}
	return nil
}

// seqTable is an FSE decoding table specialised to one field of a
// sequence (literal length, offset or match length). Each cell packs
// everything the sequence loop needs from a state into one load:
//
//	bits  0–7   extra bits of the code this state emits
//	bits  8–15  bits the state update reads
//	bits 16–31  base of the next state
//	bits 32–63  baseline of the code
//
// so a state never goes through its symbol and the code table again,
// and a symbol the field has no code for is refused here, once, when
// the table is built.
type seqTable struct {
	log   int
	cells []uint64
}

// fill builds st from the decoding table t of a field with the given
// codes, reusing st's storage.
func (st *seqTable) fill(t *fseTable, codes []codeExtra) error {
	st.log = t.log
	st.cells = resize(st.cells, len(t.entries))
	for i, e := range t.entries {
		if int(e.symbol) >= len(codes) {
			return errCorrupt("sequence code out of range")
		}
		c := codes[e.symbol]
		st.cells[i] = uint64(c.baseline)<<32 | uint64(e.newState)<<16 | uint64(e.nbBits)<<8 | uint64(c.bits)
	}
	return nil
}

// fillRLE makes st the degenerate table the RLE compression mode
// selects: a single zero-bit state that always emits sym.
func (st *seqTable) fillRLE(sym uint8, codes []codeExtra) error {
	if int(sym) >= len(codes) {
		return errCorrupt("sequence code out of range")
	}
	c := codes[sym]
	st.log = 0
	st.cells = append(st.cells[:0], uint64(c.baseline)<<32|uint64(c.bits))
	return nil
}

// readFSETableDesc parses an FSE table description (RFC 8878 §4.1.1)
// from the start of data into t, returning the byte-aligned length
// consumed. maxSymbols is at most 256.
func readFSETableDesc(t *fseTable, data []byte, maxLog, maxSymbols int) (int, error) {
	br := &fwdBitReader{data: data}
	al, ok := br.read(4)
	if !ok {
		return 0, errCorrupt("truncated FSE table")
	}
	log := int(al) + 5
	if log > maxLog {
		return 0, errCorrupt("FSE accuracy log too large")
	}
	cells := 1 << log
	var buf [256]int16
	probs := buf[:0]
	for cells > 0 && len(probs) < maxSymbols {
		// Probabilities in [-1, cells] need cells+2 values; the short
		// codes (one bit less) cover the gap up to the next power of 2.
		nb := bits.Len32(uint32(cells + 1))
		v, ok := br.read(nb)
		if !ok {
			return 0, errCorrupt("truncated FSE table")
		}
		lowMask := uint32(1)<<(nb-1) - 1
		short := uint32(1)<<nb - 1 - uint32(cells+1)
		if v&lowMask < short {
			br.rewind(1)
			v &= lowMask
		} else if v > lowMask {
			v -= short
		}
		p := int16(v) - 1
		probs = append(probs, p)
		if p < 0 {
			cells--
		} else {
			cells -= int(p)
		}
		if cells < 0 {
			return 0, errCorrupt("FSE probabilities exceed table")
		}
		if p == 0 {
			for {
				rep, ok := br.read(2)
				if !ok {
					return 0, errCorrupt("truncated FSE zero run")
				}
				if len(probs)+int(rep) > maxSymbols {
					return 0, errCorrupt("too many FSE symbols")
				}
				for i := uint32(0); i < rep; i++ {
					probs = append(probs, 0)
				}
				if rep != 3 {
					break
				}
			}
		}
	}
	if cells != 0 {
		return 0, errCorrupt("FSE probabilities do not fill table")
	}
	if err := t.build(probs, log); err != nil {
		return 0, err
	}
	return br.bytesConsumed(), nil
}

// --- sequence code value tables (RFC 8878 §3.1.1.3.2.1) -------------------

type codeExtra struct {
	baseline uint32
	bits     uint8
}

func fillExtra(dst []codeExtra, base uint32, extra ...uint8) {
	for i, b := range extra {
		dst[i] = codeExtra{baseline: base, bits: b}
		base += 1 << b
	}
}

// The code tables are built by variable initializers (not init
// functions) so dependent package variables — the encoder's reverse
// lookup tables — are ordered after them.
var llCodeTable = func() []codeExtra {
	t := make([]codeExtra, 36)
	for i := 0; i < 16; i++ {
		t[i] = codeExtra{baseline: uint32(i)}
	}
	fillExtra(t[16:], 16, 1, 1, 1, 1, 2, 2, 3, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	return t
}()

var mlCodeTable = func() []codeExtra {
	t := make([]codeExtra, 53)
	for i := 0; i < 32; i++ {
		t[i] = codeExtra{baseline: uint32(i) + 3}
	}
	fillExtra(t[32:], 35, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	return t
}()

var ofCodeTable = func() []codeExtra {
	t := make([]codeExtra, 32)
	for i := range t {
		t[i] = codeExtra{baseline: 1 << i, bits: uint8(i)}
	}
	return t
}()

// Predefined FSE distributions (RFC 8878 §3.1.1.3.2.2).
var (
	llPredefProbs = []int16{4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1,
		2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 1, 1, 1, 1, 1,
		-1, -1, -1, -1}
	mlPredefProbs = []int16{1, 4, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, -1,
		-1, -1, -1, -1, -1}
	ofPredefProbs = []int16{1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1}

	llPredefTable, mlPredefTable, ofPredefTable *seqTable
)

const (
	llMaxLog = 9
	ofMaxLog = 8
	mlMaxLog = 9
)

func init() {
	predef := func(probs []int16, log int, codes []codeExtra) *seqTable {
		var t fseTable
		st := new(seqTable)
		if err := t.build(probs, log); err != nil {
			panic(err)
		}
		if err := st.fill(&t, codes); err != nil {
			panic(err)
		}
		return st
	}
	llPredefTable = predef(llPredefProbs, 6, llCodeTable)
	mlPredefTable = predef(mlPredefProbs, 6, mlCodeTable)
	ofPredefTable = predef(ofPredefProbs, 5, ofCodeTable)
}
