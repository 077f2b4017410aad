package zstdx

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"repro/internal/xxhash"
)

// FrameOptions configures CompressFrames.
type FrameOptions struct {
	// FrameSize splits the input into independent frames of this many
	// uncompressed bytes. Zero writes a single frame. Multi-frame files
	// are the pzstd structure §4.9 calls trivially parallelizable.
	FrameSize int
	// BlockSize is the uncompressed bytes per block (max 128 KiB, the
	// format ceiling); zero selects 128 KiB.
	BlockSize int
	// Level 0 stores raw blocks; any other value compresses with a
	// greedy LZ matcher, Huffman-coded literals and predefined-FSE
	// sequences — modest ratios, but fully standard frames.
	Level int
	// ContentChecksum appends the xxHash64 content checksum per frame.
	ContentChecksum bool
	// OmitContentSize drops Frame_Content_Size from headers, producing
	// the streamed-output shape whose sizes only decoding tells (for
	// testing capability degradation).
	OmitContentSize bool
}

func (o FrameOptions) withDefaults() FrameOptions {
	if o.BlockSize <= 0 || o.BlockSize > maxBlockSize {
		o.BlockSize = maxBlockSize
	}
	return o
}

// CompressFrames compresses data into one or more Zstandard frames.
func CompressFrames(data []byte, opts FrameOptions) []byte {
	return AppendFrames(nil, data, opts)
}

// AppendFrames appends the frames for data to dst, so callers that
// recycle output buffers (the parallel Writer) avoid regrowing a
// multi-megabyte slice per shard.
func AppendFrames(dst, data []byte, opts FrameOptions) []byte {
	opts = opts.withDefaults()
	frameSize := opts.FrameSize
	if frameSize <= 0 {
		frameSize = len(data)
	}
	out := dst
	for start := 0; ; start += frameSize {
		end := min(start+frameSize, len(data))
		out = appendFrame(out, data[start:end], opts)
		if end == len(data) {
			break
		}
	}
	return out
}

// AppendSkippable appends a skippable frame (magic 0x184D2A50) wrapping
// payload — legal anywhere between frames; decoders ignore it.
func AppendSkippable(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, skippableMagicBase)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// appendFrame writes one complete frame for content.
func appendFrame(out, content []byte, opts FrameOptions) []byte {
	out = binary.LittleEndian.AppendUint32(out, FrameMagic)

	var fhd byte
	if opts.ContentChecksum {
		fhd |= 1 << 2
	}
	singleSegment := !opts.OmitContentSize && len(content) <= 8<<20
	var fcsLen int
	if !opts.OmitContentSize {
		switch {
		case len(content) < 256 && singleSegment:
			fcsLen = 1 // flag 0 + single segment
		case len(content) >= 256 && len(content) < 65536+256:
			fhd |= 1 << 6
			fcsLen = 2
		default:
			fhd |= 2 << 6
			fcsLen = 4
		}
		if fcsLen == 1 && !singleSegment {
			// flag 0 without single segment means "no FCS"; widen.
			fhd |= 2 << 6
			fcsLen = 4
		}
	}
	maxOffset := len(content)
	if singleSegment {
		fhd |= 1 << 5
		out = append(out, fhd)
	} else {
		out = append(out, fhd)
		// Smallest window descriptor covering the content (capped at
		// 128 MiB so default decoders accept it); matches never reach
		// further back than the window.
		target := min(max(len(content), 1<<10), 128<<20)
		exp, mant := 0, 0
	window:
		for exp = 0; exp <= 21; exp++ {
			base := 1 << (10 + exp)
			for mant = 0; mant <= 7; mant++ {
				if base+base/8*mant >= target {
					break window
				}
			}
		}
		base := 1 << (10 + exp)
		maxOffset = base + base/8*mant
		out = append(out, byte(exp<<3|mant))
	}
	switch fcsLen {
	case 1:
		out = append(out, byte(len(content)))
	case 2:
		out = binary.LittleEndian.AppendUint16(out, uint16(len(content)-256))
	case 4:
		out = binary.LittleEndian.AppendUint32(out, uint32(len(content)))
	}

	enc := getFrameEncoder(content, maxOffset)
	for blockStart := 0; ; blockStart += opts.BlockSize {
		blockEnd := min(blockStart+opts.BlockSize, len(content))
		last := blockEnd == len(content)
		out = enc.appendBlock(out, blockStart, blockEnd, last, opts.Level != 0)
		if last {
			break
		}
	}
	if opts.ContentChecksum {
		out = binary.LittleEndian.AppendUint32(out, uint32(xxhash.Sum64(content, 0)))
	}
	putFrameEncoder(enc)
	return out
}

// frameEncoder compresses the blocks of one frame; the match table
// persists across blocks so offsets may reach anywhere earlier in the
// frame (the decoder's window covers it).
type frameEncoder struct {
	content   []byte
	maxOffset int
	table     [1 << 15]int32 // hash -> position+1 of a previous 4-byte match
	// The remaining fields are per-block scratch reused across blocks
	// and, via frameEncPool, across frames: regrowing them per block
	// dominated the encode path's allocation volume.
	seqs      []seqRec
	lit       []byte
	cs        []coded // sequence codes
	seqOut    []byte  // sequences-section output
	bwBuf     []byte  // sequences bitstream
	litOut    []byte  // literals-section output
	streamBuf []byte  // Huffman literal streams
	payload   []byte  // assembled block payload
}

// frameEncPool recycles frameEncoders across frames and Writers. The
// 128 KiB match table must be cleared on reuse — findSequences only
// validates candidates against the current content, and a stale entry
// may point past its end (or ahead of the cursor) and corrupt a match.
var frameEncPool = sync.Pool{New: func() any { return new(frameEncoder) }}

func getFrameEncoder(content []byte, maxOffset int) *frameEncoder {
	e := frameEncPool.Get().(*frameEncoder)
	e.content = content
	e.maxOffset = maxOffset
	clear(e.table[:])
	return e
}

func putFrameEncoder(e *frameEncoder) {
	e.content = nil
	frameEncPool.Put(e)
}

func hash4(v uint32) uint32 { return v * 2654435761 >> 17 }

func blockHeader(size, btype int, last bool) []byte {
	bh := uint32(size)<<3 | uint32(btype)<<1
	if last {
		bh |= 1
	}
	return []byte{byte(bh), byte(bh >> 8), byte(bh >> 16)}
}

// appendBlock emits content[start:end] as one block, choosing between
// RLE, compressed and raw encodings.
func (e *frameEncoder) appendBlock(out []byte, start, end int, last, compress bool) []byte {
	src := e.content[start:end]
	if len(src) > 1 && allEqual(src) {
		out = append(out, blockHeader(len(src), 1, last)...)
		return append(out, src[0])
	}
	if compress && len(src) >= 16 {
		if payload := e.compressBlock(start, end); payload != nil && len(payload) < len(src) {
			out = append(out, blockHeader(len(payload), 2, last)...)
			return append(out, payload...)
		}
	}
	out = append(out, blockHeader(len(src), 0, last)...)
	return append(out, src...)
}

func allEqual(b []byte) bool {
	for _, c := range b[1:] {
		if c != b[0] {
			return false
		}
	}
	return true
}

// seqRec is one LZ sequence: ll literals, then a match of length ml at
// distance off.
type seqRec struct {
	ll, ml, off int
}

// Length caps expressible by the last LL/ML code values.
const (
	maxLitLen   = 65536 + 65535 // LL code 35
	maxMatchLen = 65539 + 65535 // ML code 52
)

// findSequences runs the greedy matcher over content[start:end],
// returning the sequences and the concatenated literals.
func (e *frameEncoder) findSequences(start, end int) ([]seqRec, []byte) {
	src := e.content
	seqs := e.seqs[:0]
	lit := e.lit[:0]
	anchor := start
	i := start
	for i+4 <= end {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash4(v)
		cand := int(e.table[h]) - 1
		e.table[h] = int32(i + 1)
		if cand < 0 || i-cand > e.maxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		ml := extendMatch(src, cand, i, min(end-i, maxMatchLen))
		// ll never overflows its code range: blocks cap at 128 KiB and
		// matches start at most blockSize-4 bytes past the anchor.
		ll := i - anchor
		lit = append(lit, src[anchor:i]...)
		seqs = append(seqs, seqRec{ll: ll, ml: ml, off: i - cand})
		i += ml
		anchor = i
	}
	lit = append(lit, src[anchor:end]...)
	e.seqs, e.lit = seqs, lit
	return seqs, lit
}

// extendMatch returns the match length at src[cand:] vs src[i:]
// (cand < i, first four bytes already verified equal), comparing eight
// bytes per step; the first differing byte falls out of the XOR's
// trailing zeros. limit must not reach past len(src)-i.
func extendMatch(src []byte, cand, i, limit int) int {
	n := 4
	for n+8 <= limit {
		x := binary.LittleEndian.Uint64(src[cand+n:]) ^ binary.LittleEndian.Uint64(src[i+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < limit && src[cand+n] == src[i+n] {
		n++
	}
	return n
}

// compressBlock builds a compressed-block payload for
// content[start:end], or nil when compression does not pay.
func (e *frameEncoder) compressBlock(start, end int) []byte {
	seqs, lit := e.findSequences(start, end)
	litSection := e.encodeLiteralsSection(lit)
	if litSection == nil {
		return nil
	}
	seqSection := e.encodeSequencesSection(seqs)
	if seqSection == nil {
		return nil
	}
	payload := append(e.payload[:0], litSection...)
	payload = append(payload, seqSection...)
	e.payload = payload
	return payload
}

// --- literals ------------------------------------------------------------

// encodeLiteralsSection emits the literals section, choosing RLE, raw
// or Huffman-compressed encoding. The returned slice is encoder
// scratch, valid until the next block.
func (e *frameEncoder) encodeLiteralsSection(lit []byte) []byte {
	if len(lit) > 1 && allEqual(lit) {
		return append(litHeader(litRLE, len(lit), 0), lit[0])
	}
	if comp := e.huffCompressLiterals(lit); comp != nil {
		return comp
	}
	out := append(e.litOut[:0], litHeader(litRaw, len(lit), 0)...)
	out = append(out, lit...)
	e.litOut = out
	return out
}

// litHeader builds the literals section header. For raw/RLE pass
// comp=0; for compressed types regen and comp select the size format.
func litHeader(litType, regen, comp int) []byte {
	if litType == litRaw || litType == litRLE {
		switch {
		case regen < 32:
			return []byte{byte(litType | regen<<3)}
		case regen < 4096:
			return []byte{byte(litType | 1<<2 | regen<<4), byte(regen >> 4)}
		default:
			return []byte{byte(litType | 3<<2 | regen<<4), byte(regen >> 4), byte(regen >> 12)}
		}
	}
	if regen < 1024 && comp < 1024 {
		// 1-stream, 10-bit sizes.
		n := regen | comp<<10
		return []byte{byte(litType | n<<4), byte(n >> 4), byte(n >> 12)}
	}
	if regen < 16384 && comp < 16384 {
		// 4-stream, 14-bit sizes.
		n := regen | comp<<14
		return []byte{byte(litType | 2<<2 | n<<4), byte(n >> 4), byte(n >> 12), byte(n >> 20)}
	}
	// 4-stream, 18-bit sizes.
	n := regen | comp<<18
	return []byte{byte(litType | 3<<2 | n<<4), byte(n >> 4), byte(n >> 12), byte(n >> 20), byte(n >> 28)}
}

// huffCompressLiterals Huffman-codes lit (with a direct-representation
// tree description), or returns nil when it does not pay. The returned
// slice is encoder scratch, valid until the next block.
func (e *frameEncoder) huffCompressLiterals(lit []byte) []byte {
	if len(lit) < 32 {
		return nil
	}
	var freq [256]int
	last := 0
	for _, b := range lit {
		freq[b]++
		if int(b) > last {
			last = int(b)
		}
	}
	if last > 127 {
		// The direct tree description lists weights for symbols
		// 0..last-1; beyond 128 entries it cannot be encoded directly.
		return nil
	}
	lens := buildHuffLengths(&freq)
	if lens == nil {
		return nil
	}
	weights, table, err := lengthsToTable(lens)
	if err != nil {
		return nil
	}
	// Tree description: direct 4-bit weights for symbols 0..last-1.
	var desc [65]byte // 1 + ceil(127/2) is the direct-description cap
	desc[0] = byte(127 + last)
	dn := 1
	for i := 0; i < last; i += 2 {
		b := weights[i] << 4
		if i+1 < last {
			b |= weights[i+1]
		}
		desc[dn] = b
		dn++
	}

	oneStream := len(lit) < 1024
	sb := e.streamBuf[:0]
	if oneStream {
		sb = table.appendStream(sb, lit)
		e.streamBuf = sb
	} else {
		// Jump table first, then the four streams back to back; the
		// stream sizes are patched in once known.
		sb = append(sb, 0, 0, 0, 0, 0, 0)
		seg := (len(lit) + 3) / 4
		var sizes [3]int
		for s := 0; s < 3; s++ {
			p := len(sb)
			sb = table.appendStream(sb, lit[s*seg:(s+1)*seg])
			sizes[s] = len(sb) - p
		}
		sb = table.appendStream(sb, lit[3*seg:])
		e.streamBuf = sb
		if sizes[0] > 65535 || sizes[1] > 65535 || sizes[2] > 65535 {
			return nil
		}
		binary.LittleEndian.PutUint16(sb[0:], uint16(sizes[0]))
		binary.LittleEndian.PutUint16(sb[2:], uint16(sizes[1]))
		binary.LittleEndian.PutUint16(sb[4:], uint16(sizes[2]))
	}
	comp := dn + len(sb)
	if comp+5 >= len(lit) {
		return nil
	}
	var out []byte
	if oneStream {
		out = append(e.litOut[:0], litHeader(litCompressed, len(lit), comp)...)
	} else {
		// Force a 4-stream size format.
		if len(lit) < 16384 && comp < 16384 {
			n := len(lit) | comp<<14
			out = append(e.litOut[:0], byte(litCompressed|2<<2|n<<4), byte(n>>4), byte(n>>12), byte(n>>20))
		} else {
			n := len(lit) | comp<<18
			out = append(e.litOut[:0], byte(litCompressed|3<<2|n<<4), byte(n>>4), byte(n>>12), byte(n>>20), byte(n>>28))
		}
	}
	out = append(out, desc[:dn]...)
	out = append(out, sb...)
	e.litOut = out
	return out
}

// appendStream Huffman-codes src in reverse order (the backward reader
// emits symbols forward), closes with the sentinel bit, and appends the
// stream to dst.
func (t *huffTable) appendStream(dst []byte, src []byte) []byte {
	w := bitWriter{out: dst}
	for i := len(src) - 1; i >= 0; i-- {
		s := src[i]
		w.addBits(uint32(t.codes[s]), int(t.lens[s]))
	}
	return w.close()
}

// buildHuffLengths computes code lengths (≤ maxHuffBits, complete
// Kraft sum) for the non-zero frequencies, or nil for fewer than two
// distinct symbols.
func buildHuffLengths(freq *[256]int) []uint8 {
	type node struct {
		weight      int
		sym         int // -1 for internal
		left, right int // indices into nodes
	}
	var nodes []node
	var order []int
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{weight: f, sym: s, left: -1, right: -1})
			order = append(order, len(nodes)-1)
		}
	}
	if len(order) < 2 {
		return nil
	}
	// Two-queue Huffman over the leaves sorted by weight.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && nodes[order[j]].weight < nodes[order[j-1]].weight; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	leaves, merged := order, []int{}
	popMin := func() int {
		if len(leaves) == 0 || (len(merged) > 0 && nodes[merged[0]].weight <= nodes[leaves[0]].weight) {
			n := merged[0]
			merged = merged[1:]
			return n
		}
		n := leaves[0]
		leaves = leaves[1:]
		return n
	}
	for len(leaves)+len(merged) > 1 {
		a := popMin()
		b := popMin()
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, sym: -1, left: a, right: b})
		merged = append(merged, len(nodes)-1)
	}
	lens := make([]uint8, 256)
	var walk func(n, depth int)
	walk = func(n, depth int) {
		if nodes[n].sym >= 0 {
			d := max(depth, 1)
			if d > maxHuffBits {
				d = maxHuffBits
			}
			lens[nodes[n].sym] = uint8(d)
			return
		}
		walk(nodes[n].left, depth+1)
		walk(nodes[n].right, depth+1)
	}
	walk(merged[0], 0)

	// Clamping can break the Kraft sum; restore exact completeness in
	// units of 2^-maxHuffBits.
	kraft := 0
	for _, l := range lens {
		if l > 0 {
			kraft += 1 << (maxHuffBits - l)
		}
	}
	for kraft > 1<<maxHuffBits {
		// Deepen the deepest non-maximal symbol: the cheapest step.
		deepest := -1
		for s, l := range lens {
			if l > 0 && l < maxHuffBits && (deepest < 0 || l > lens[deepest]) {
				deepest = s
			}
		}
		if deepest < 0 {
			return nil
		}
		kraft -= 1 << (maxHuffBits - lens[deepest] - 1)
		lens[deepest]++
	}
	for kraft < 1<<maxHuffBits {
		// Shorten the deepest symbol whose promotion still fits.
		fixed := false
		for l := uint8(maxHuffBits); l >= 2 && !fixed; l-- {
			for s := range lens {
				if lens[s] == l && kraft+1<<(maxHuffBits-l) <= 1<<maxHuffBits {
					kraft += 1 << (maxHuffBits - l)
					lens[s]--
					fixed = true
					break
				}
			}
		}
		if !fixed {
			return nil
		}
	}
	return lens
}

// lengthsToTable converts code lengths to zstd weights and builds the
// shared code/decode table (the encoder uses its canonical codes).
func lengthsToTable(lens []uint8) ([]uint8, *huffTable, error) {
	maxLen := uint8(0)
	lastSym := 0
	for s, l := range lens {
		if l > maxLen {
			maxLen = l
		}
		if l > 0 {
			lastSym = s
		}
	}
	weights := make([]uint8, lastSym+1)
	for s, l := range lens[:lastSym+1] {
		if l > 0 {
			weights[s] = maxLen + 1 - l
		}
	}
	table, err := buildHuffTable(weights)
	if err != nil {
		return nil, nil, err
	}
	return weights, table, nil
}

// --- sequences -----------------------------------------------------------

var llCodeLUT = func() [64]uint8 {
	var t [64]uint8
	for v := 0; v < 64; v++ {
		code := 0
		for c, e := range llCodeTable {
			if uint32(v) >= e.baseline {
				code = c
			}
		}
		t[v] = uint8(code)
	}
	return t
}()

var mlCodeLUT = func() [128]uint8 {
	var t [128]uint8
	for v := 0; v < 128; v++ {
		code := 0
		for c, e := range mlCodeTable {
			if uint32(v)+3 >= e.baseline {
				code = c
			}
		}
		t[v] = uint8(code)
	}
	return t
}()

func llCodeOf(ll int) uint8 {
	if ll < 64 {
		return llCodeLUT[ll]
	}
	return uint8(bits.Len32(uint32(ll)) - 1 + 19)
}

func mlCodeOf(mlBase int) uint8 {
	if mlBase < 128 {
		return mlCodeLUT[mlBase]
	}
	return uint8(bits.Len32(uint32(mlBase)) - 1 + 36)
}

// coded is one sequence translated to its LL/ML/OF codes and the extra
// bits each carries.
type coded struct {
	llCode, mlCode, ofCode uint8
	llX, mlX, ofX          uint32
}

// encodeSequencesSection emits the sequences section with the three
// predefined FSE tables (compression-modes byte zero). The returned
// slice is encoder scratch, valid until the next block.
func (e *frameEncoder) encodeSequencesSection(seqs []seqRec) []byte {
	out := e.seqOut[:0]
	n := len(seqs)
	switch {
	case n < 128:
		out = append(out, byte(n))
	case n < 0x7F00:
		out = append(out, byte(n>>8|0x80), byte(n))
	default:
		out = append(out, 255, byte(n-0x7F00), byte((n-0x7F00)>>8))
	}
	if n == 0 {
		return out
	}
	out = append(out, 0) // all three tables predefined

	cs := e.cs
	if cap(cs) >= n {
		cs = cs[:n]
	} else {
		cs = make([]coded, n)
		e.cs = cs
	}
	for i, s := range seqs {
		mlBase := s.ml - 3
		offVal := uint32(s.off + 3)
		ofCode := uint8(bits.Len32(offVal) - 1)
		cs[i] = coded{
			llCode: llCodeOf(s.ll), mlCode: mlCodeOf(mlBase), ofCode: ofCode,
			llX: uint32(s.ll), mlX: uint32(mlBase), ofX: offVal,
		}
	}

	w := bitWriter{out: e.bwBuf[:0]}
	lastC := cs[n-1]
	mlState := mlEncTable.init(lastC.mlCode)
	ofState := ofEncTable.init(lastC.ofCode)
	llState := llEncTable.init(lastC.llCode)
	w.addBits(lastC.llX, int(llCodeTable[lastC.llCode].bits))
	w.addBits(lastC.mlX, int(mlCodeTable[lastC.mlCode].bits))
	w.addBits(lastC.ofX, int(lastC.ofCode))
	for i := n - 2; i >= 0; i-- {
		c := cs[i]
		ofState = ofEncTable.encode(&w, ofState, c.ofCode)
		mlState = mlEncTable.encode(&w, mlState, c.mlCode)
		llState = llEncTable.encode(&w, llState, c.llCode)
		w.addBits(c.llX, int(llCodeTable[c.llCode].bits))
		w.addBits(c.mlX, int(mlCodeTable[c.mlCode].bits))
		w.addBits(c.ofX, int(c.ofCode))
	}
	mlEncTable.flush(&w, mlState)
	ofEncTable.flush(&w, ofState)
	llEncTable.flush(&w, llState)
	stream := w.close()
	e.bwBuf = stream
	out = append(out, stream...)
	e.seqOut = out
	return out
}

// --- FSE encoding tables --------------------------------------------------

type fseEncSym struct {
	deltaNbBits    uint32
	deltaFindState int32
}

type fseEncTable struct {
	log    int
	states []uint16
	syms   []fseEncSym
}

// buildFSEEncTable is the encoding-side counterpart of buildFSETable,
// sharing its symbol spread so the state machines agree.
func buildFSEEncTable(probs []int16, log int) *fseEncTable {
	size := 1 << log
	t := &fseEncTable{log: log, states: make([]uint16, size), syms: make([]fseEncSym, len(probs))}
	symbols := make([]uint8, size)
	cumul := make([]int, len(probs)+1)
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
			t.syms[s].deltaNbBits = uint32((log+1)<<16 - size)
		case p == -1 || p == 1:
			t.syms[s].deltaNbBits = uint32(log<<16 - size)
			t.syms[s].deltaFindState = int32(total - 1)
			total++
		default:
			maxBitsOut := log - (bits.Len32(uint32(p-1)) - 1)
			minStatePlus := int(p) << maxBitsOut
			t.syms[s].deltaNbBits = uint32(maxBitsOut<<16 - minStatePlus)
			t.syms[s].deltaFindState = int32(total - int(p))
			total += int(p)
		}
	}
	return t
}

func (t *fseEncTable) init(sym uint8) uint16 {
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

var (
	llEncTable = buildFSEEncTable(llPredefProbs, 6)
	mlEncTable = buildFSEEncTable(mlPredefProbs, 6)
	ofEncTable = buildFSEEncTable(ofPredefProbs, 5)
)
