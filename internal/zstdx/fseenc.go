package zstdx

import (
	"math"
	"math/bits"
)

// The encoding side of the sequence tables: the FSE encoder a table's
// normalised counts build, the table description (RFC 8878 §4.1.1) that
// sends them, and the per-block choice among the four compression modes
// of a sequence field.

// Compression modes of a sequence field (§3.1.1.3.2.1), as the modes
// byte carries them.
const (
	modePredefined = iota
	modeRLE
	modeFSE
	modeRepeat
)

// maxSeqCodes is the largest code alphabet of the three fields (match
// lengths, 53 codes); maxSeqLog the largest accuracy any of them allows.
const (
	maxSeqCodes = 53
	maxSeqLog   = 9
)

type fseEncSym struct {
	deltaNbBits    uint32
	deltaFindState int32
}

// fseEncTable is the encoding-side counterpart of an fseTable: states
// and per-symbol transforms derived from the same symbol spread, so the
// encoder's state machine walks the decoder's backwards.
type fseEncTable struct {
	log    int
	states []uint16
	syms   []fseEncSym
}

// build fills t for normalised counts probs over 1<<log cells (-1 marks
// a less-than-one symbol), reusing t's storage.
func (t *fseEncTable) build(probs []int16, log int) {
	size := 1 << log
	t.log = log
	t.states = resize(t.states, size)
	t.syms = resize(t.syms, len(probs))
	var symbols [1 << maxSeqLog]uint8
	var cumul [maxSeqCodes + 1]int
	high := size - 1
	for s, p := range probs {
		if p == -1 {
			cumul[s+1] = cumul[s] + 1
			symbols[high] = uint8(s)
			high--
		} else {
			cumul[s+1] = cumul[s] + int(p)
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
	for u := 0; u < size; u++ {
		s := symbols[u]
		t.states[cumul[s]] = uint16(size + u)
		cumul[s]++
	}
	total := 0
	for s, p := range probs {
		switch {
		case p == 0:
			t.syms[s] = fseEncSym{deltaNbBits: uint32((log+1)<<16 - size)}
		case p == -1 || p == 1:
			t.syms[s] = fseEncSym{deltaNbBits: uint32(log<<16 - size), deltaFindState: int32(total - 1)}
			total++
		default:
			maxBitsOut := log - (bits.Len32(uint32(p-1)) - 1)
			minStatePlus := int(p) << maxBitsOut
			t.syms[s] = fseEncSym{deltaNbBits: uint32(maxBitsOut<<16 - minStatePlus), deltaFindState: int32(total - int(p))}
			total += int(p)
		}
	}
}

// buildRLE makes t the one-state table of RLE mode: no state bits are
// ever written, and sym is the only symbol it codes.
func (t *fseEncTable) buildRLE(sym uint8) {
	t.log = 0
	t.states = append(t.states[:0], 1)
	t.syms = resize(t.syms, int(sym)+1)
	t.syms[sym] = fseEncSym{deltaFindState: -1}
}

func (t *fseEncTable) init(sym uint8) uint16 {
	if t.log == 0 {
		return 1
	}
	tt := t.syms[sym]
	nbBits := (tt.deltaNbBits + 1<<15) >> 16
	base := (nbBits << 16) - tt.deltaNbBits
	return t.states[int(base>>nbBits)+int(tt.deltaFindState)]
}

func (t *fseEncTable) encode(w *bitWriter, state uint16, sym uint8) uint16 {
	tt := t.syms[sym]
	nbBits := (uint32(state) + tt.deltaNbBits) >> 16
	w.addBits(uint32(state), int(nbBits))
	return t.states[int(uint32(state)>>nbBits)+int(tt.deltaFindState)]
}

func (t *fseEncTable) flush(w *bitWriter, state uint16) {
	w.addBits(uint32(state), t.log)
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// log2Cells[p] is log2(p) for the cell counts a table of at most
// 1<<maxSeqLog cells can give a symbol.
var log2Cells = func() (t [1<<maxSeqLog + 1]float64) {
	for p := 1; p < len(t); p++ {
		t[p] = math.Log2(float64(p))
	}
	return t
}()

// encTable is a seqTable's encoding counterpart: a field's table as the
// encoder holds it, with what each code costs in bits.
type encTable struct {
	probs [maxSeqCodes]int16 // normalised counts; zero for absent codes
	cost  [maxSeqCodes]float64
	enc   fseEncTable
}

// setCosts records each present code's cost under t's counts: the log
// of the share of the table's cells it owns.
func (t *encTable) setCosts() {
	for s, p := range t.probs {
		switch {
		case t.enc.log == 0:
			t.cost[s] = 0
		case p < 0:
			t.cost[s] = float64(t.enc.log)
		case p > 0:
			t.cost[s] = float64(t.enc.log) - log2Cells[p]
		}
	}
}

// bitsFor is what coding count under t costs, state bits included, or
// false when t has no cell for one of the codes count uses.
func (t *encTable) bitsFor(count []uint32) (float64, bool) {
	c := float64(t.enc.log)
	for s, k := range count {
		if k == 0 {
			continue
		}
		if t.probs[s] == 0 {
			return 0, false
		}
		c += float64(k) * t.cost[s]
	}
	return c, true
}

func newPredefined(probs []int16, log int) *encTable {
	t := new(encTable)
	copy(t.probs[:], probs)
	t.enc.build(probs, log)
	t.setCosts()
	return t
}

var (
	llPredefEnc = newPredefined(llPredefProbs, 6)
	mlPredefEnc = newPredefined(mlPredefProbs, 6)
	ofPredefEnc = newPredefined(ofPredefProbs, 5)
)

// seqField picks and remembers the table of one sequence field across
// the blocks of a frame. last is the table the decoder holds (nil before
// the frame's first block with sequences), next the one the block being
// built uses; next becomes last only when that block goes out
// compressed, so a block that falls back to raw leaves both sides where
// they were.
type seqField struct {
	predef *encTable
	maxLog int
	last   *encTable
	next   *encTable
	mode   byte
	desc   []byte // this block's RLE symbol or table description
	bufs   [2]encTable
}

// choose picks the cheapest mode for a block whose sequences use the
// codes count holds (n in all): predefined, RLE, a table of the block's
// own counts, or the last block's table again. It leaves the table in
// f.next, the mode in f.mode and what the section header must carry for
// it in f.desc.
func (f *seqField) choose(count []uint32, n int) {
	f.desc = f.desc[:0]
	f.next, f.mode = nil, modePredefined
	best := math.Inf(1)
	if c, ok := f.predef.bitsFor(count); ok {
		f.next, best = f.predef, c
	}
	if f.last != nil {
		if c, ok := f.last.bitsFor(count); ok && c <= best {
			f.next, f.mode, best = f.last, modeRepeat, c
		}
	}
	// The new table goes to whichever buffer last does not hold.
	t := &f.bufs[0]
	if f.last == t {
		t = &f.bufs[1]
	}
	distinct, top := 0, 0
	for s, k := range count {
		if k != 0 {
			distinct++
			top = s
		}
	}
	if distinct == 1 {
		// An RLE table costs the byte that names its symbol.
		if 8 < best {
			clear(t.probs[:])
			t.probs[top] = 1
			t.enc.buildRLE(uint8(top))
			t.setCosts()
			f.next, f.mode = t, modeRLE
			f.desc = append(f.desc, byte(top))
		}
		return
	}
	log := tableLog(n, top, f.maxLog)
	if distinct > 1<<log {
		return
	}
	clear(t.probs[:])
	normalizeCounts(t.probs[:top+1], count[:top+1], n, log)
	t.enc.log = log
	t.setCosts()
	desc := appendFSEDesc(f.desc, t.probs[:top+1], log)
	if c, _ := t.bitsFor(count); c+float64(8*len(desc)) < best {
		t.enc.build(t.probs[:top+1], log)
		f.next, f.mode, f.desc = t, modeFSE, desc
	}
}

// commit makes the block's table the one the decoder holds.
func (f *seqField) commit() { f.last = f.next }

// tableLog is the accuracy of a table for n codes whose largest is top:
// no more cells than the codes can tell apart, no fewer than the
// alphabet needs, within [5, maxLog] (zstd's FSE_optimalTableLog).
func tableLog(n, top, maxLog int) int {
	log := maxLog
	if b := bits.Len(uint(n-1)) - 3; b < log {
		log = b
	}
	if b := min(bits.Len(uint(n)), bits.Len(uint(top))+1); b > log {
		log = b
	}
	return min(max(log, 5), maxLog)
}

// normalizeCounts scales count (n in all) to probs summing to 1<<log,
// every present code keeping at least one cell. Rounding leaves the sum
// a few cells off; each step then takes the cell that costs least from,
// or gives the one that saves most to, the code that loses or gains it.
func normalizeCounts(probs []int16, count []uint32, n, log int) {
	total := 1 << log
	scale := float64(total) / float64(n)
	sum := 0
	for s, k := range count {
		if k == 0 {
			continue
		}
		p := max(int(float64(k)*scale+0.5), 1)
		probs[s] = int16(p)
		sum += p
	}
	for ; sum > total; sum-- {
		best, loss := -1, math.Inf(1)
		for s, k := range count {
			if p := probs[s]; p > 1 {
				if l := float64(k) * (log2Cells[p] - log2Cells[p-1]); l < loss {
					best, loss = s, l
				}
			}
		}
		probs[best]--
	}
	for ; sum < total; sum++ {
		best, gain := -1, -1.0
		for s, k := range count {
			if p := probs[s]; p > 0 {
				if g := float64(k) * (log2Cells[p+1] - log2Cells[p]); g > gain {
					best, gain = s, g
				}
			}
		}
		probs[best]++
	}
}

// appendFSEDesc appends the description of probs over 1<<log cells, the
// inverse of readFSETableDesc: the accuracy, then each code's count plus
// one in as few bits as the cells still unassigned allow, a zero count
// followed by the number of zeros after it in 2-bit steps. probs ends at
// its last present code, which leaves no cell unassigned.
func appendFSEDesc(dst []byte, probs []int16, log int) []byte {
	w := bitWriter{out: dst}
	w.addBits(uint32(log-5), 4)
	cells := 1 << log
	for s := 0; s < len(probs); s++ {
		p := probs[s]
		nb := bits.Len32(uint32(cells + 1))
		lowMask := 1<<(nb-1) - 1
		short := 1<<nb - 1 - (cells + 1)
		switch v := int(p) + 1; {
		case v < short:
			w.addBits(uint32(v), nb-1)
		case v <= lowMask:
			w.addBits(uint32(v), nb)
		default:
			w.addBits(uint32(v+short), nb)
		}
		if p < 0 {
			cells--
		} else {
			cells -= int(p)
		}
		if p == 0 {
			run := 0
			for s+1+run < len(probs) && probs[s+1+run] == 0 {
				run++
			}
			s += run
			for ; run >= 3; run -= 3 {
				w.addBits(3, 2)
			}
			w.addBits(uint32(run), 2)
		}
	}
	return w.flush()
}
