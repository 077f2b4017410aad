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
	// Level 0 stores raw blocks; any other value compresses, all with
	// the one encoder: a greedy matcher over an 8-byte and a 5-byte
	// hash table that tries the last offset first, Huffman-coded
	// literals, and per block the cheapest of the predefined, RLE,
	// block-own FSE or repeated sequence tables. On 1 MiB frames of
	// the bench corpus it stores what the reference zstd -1 does.
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

// frameEncoder compresses the blocks of one frame. The match tables
// and the repeat offsets persist across its blocks, as the decoder's
// window and offset history do, so a match may reach anywhere earlier in
// the frame; the sequence fields remember the tables the decoder holds.
type frameEncoder struct {
	content   []byte
	maxOffset int
	// long and short map a hash of the 8 and 5 bytes at a position to
	// the last position with that hash; both are sized to the frame.
	long, short           []uint32
	longShift, shortShift uint
	reps                  offsets
	ll, of, ml            seqField
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
// match tables must be cleared on reuse — a stale entry is only checked
// against the current content, and one from a longer frame may point
// past its end.
var frameEncPool = sync.Pool{New: func() any {
	return &frameEncoder{
		ll: seqField{predef: llPredefEnc, maxLog: llMaxLog},
		of: seqField{predef: ofPredefEnc, maxLog: ofMaxLog},
		ml: seqField{predef: mlPredefEnc, maxLog: mlMaxLog},
	}
}}

// Match table sizes: 1<<maxLongLog entries for the 8-byte hash (the
// short table has half as many) serve frames of 1 MiB and more; smaller
// frames get tables in proportion, an entry per eight bytes.
const (
	maxLongLog = 17
	minLongLog = 8
)

func getFrameEncoder(content []byte, maxOffset int) *frameEncoder {
	e := frameEncPool.Get().(*frameEncoder)
	e.content = content
	e.maxOffset = maxOffset
	longLog := min(max(bits.Len(uint(len(content)))-3, minLongLog), maxLongLog)
	e.long = resize(e.long, 1<<longLog)
	e.short = resize(e.short, 1<<(longLog-1))
	clear(e.long)
	clear(e.short)
	e.longShift, e.shortShift = uint(64-longLog), uint(64-longLog+1)
	e.reps = offsets{1, 4, 8}
	e.ll.last, e.of.last, e.ml.last = nil, nil, nil
	return e
}

func putFrameEncoder(e *frameEncoder) {
	e.content = nil
	frameEncPool.Put(e)
}

const (
	prime8 = 0xCF1BBCDCB7A56463
	prime5 = 889523592379
)

// hashLong hashes the 8 bytes v holds, hashShort its low 5, into their
// tables' indices.
func (e *frameEncoder) hashLong(v uint64) uint32  { return uint32(v * prime8 >> e.longShift) }
func (e *frameEncoder) hashShort(v uint64) uint32 { return uint32(v << 24 * prime5 >> e.shortShift) }

func blockHeader(size, btype int, last bool) []byte {
	bh := uint32(size)<<3 | uint32(btype)<<1
	if last {
		bh |= 1
	}
	return []byte{byte(bh), byte(bh >> 8), byte(bh >> 16)}
}

// appendBlock emits content[start:end] as one block, choosing between
// RLE, compressed and raw encodings. A block that does not go out
// compressed leaves the repeat offsets and the sequence tables as the
// decoder will still hold them.
func (e *frameEncoder) appendBlock(out []byte, start, end int, last, compress bool) []byte {
	src := e.content[start:end]
	if len(src) > 1 && allEqual(src) {
		out = append(out, blockHeader(len(src), 1, last)...)
		return append(out, src[0])
	}
	if compress && len(src) >= 16 {
		reps := e.reps
		if payload, nbSeq := e.compressBlock(start, end); payload != nil && len(payload) < len(src) {
			if nbSeq > 0 {
				e.ll.commit()
				e.of.commit()
				e.ml.commit()
			}
			out = append(out, blockHeader(len(payload), 2, last)...)
			return append(out, payload...)
		}
		e.reps = reps
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

// seqRec is one LZ sequence: ll literals, then a match of length ml
// coded by offVal, the format's Offset_Value (1–3 a repeat offset, else
// the distance plus 3).
type seqRec struct {
	ll, ml, offVal uint32
}

// offsets is the three-offset history the decoder keeps, most recent
// first.
type offsets [3]uint32

// code returns the Offset_Value of a match at distance off after ll
// literals and moves the history as the decoder will: with literals,
// codes 1–3 name the three offsets; without, they name the second, the
// third and the first minus one.
func (r *offsets) code(ll, off uint32) uint32 {
	r0, r1, r2 := r[0], r[1], r[2]
	if ll > 0 {
		switch off {
		case r0:
			return 1
		case r1:
			r[0], r[1] = r1, r0
			return 2
		case r2:
			r[0], r[1], r[2] = r2, r0, r1
			return 3
		}
	} else {
		switch off {
		case r1:
			r[0], r[1] = r1, r0
			return 1
		case r2:
			r[0], r[1], r[2] = r2, r0, r1
			return 2
		case r0 - 1:
			r[0], r[1], r[2] = off, r0, r1
			return 3
		}
	}
	r[0], r[1], r[2] = off, r0, r1
	return off + 3
}

// findSequences runs the matcher over content[start:end], returning the
// sequences and the concatenated literals. At each position it tries
// the last offset one byte ahead, then the 8-byte table, then the
// 5-byte table (and the 8-byte table one byte ahead, for a longer
// match); a match grows backwards over the literals before it. After a
// match, the second offset is tried at once with no literals between.
// With no match the step grows with the distance from the last match,
// so incompressible stretches go by quickly.
func (e *frameEncoder) findSequences(start, end int) ([]seqRec, []byte) {
	src := e.content
	seqs := e.seqs[:0]
	lit := e.lit[:0]
	long, short := e.long, e.short
	maxOff := e.maxOffset
	// A block holds at most 128 KiB, so every literal and match length
	// is within reach of the last LL and ML codes (131071 and 131074).
	emit := func(anchor, i, off, ml int) {
		lit = append(lit, src[anchor:i]...)
		ll := uint32(i - anchor)
		seqs = append(seqs, seqRec{ll: ll, ml: uint32(ml), offVal: e.reps.code(ll, uint32(off))})
	}
	// Matches stop at the block's end; hashing reads 8 bytes ahead.
	ilimit := end - 8
	anchor, i := start, start
	for i < ilimit {
		v := load64(src, i)
		hl, hs := e.hashLong(v), e.hashShort(v)
		candL, candS := int(long[hl]), int(short[hs])
		long[hl], short[hs] = uint32(i), uint32(i)

		var off, ml int
		switch {
		case int(e.reps[0]) <= i && load32(src, i+1-int(e.reps[0])) == load32(src, i+1):
			i++
			off = int(e.reps[0])
			ml = 4 + matchLen(src, i+4-off, i+4, end)
		case uint(i-candL-1) < uint(maxOff) && load64(src, candL) == v:
			off, ml = i-candL, 8+matchLen(src, candL+8, i+8, end)
		case uint(i-candS-1) < uint(maxOff) && load32(src, candS) == uint32(v):
			v1 := load64(src, i+1)
			h1 := e.hashLong(v1)
			cand1 := int(long[h1])
			long[h1] = uint32(i + 1)
			if uint(i-cand1) < uint(maxOff) && load64(src, cand1) == v1 {
				i++
				off, ml = i-cand1, 8+matchLen(src, cand1+8, i+8, end)
			} else {
				off, ml = i-candS, 4+matchLen(src, candS+4, i+4, end)
			}
		default:
			i += (i-anchor)>>8 + 1
			continue
		}
		for i > anchor && i > off && src[i-1] == src[i-1-off] {
			i--
			ml++
		}
		emit(anchor, i, off, ml)
		i0 := i
		i += ml
		anchor = i
		if i > ilimit {
			break
		}
		long[e.hashLong(load64(src, i0+2))] = uint32(i0 + 2)
		short[e.hashShort(load64(src, i0+2))] = uint32(i0 + 2)
		long[e.hashLong(load64(src, i-2))] = uint32(i - 2)
		short[e.hashShort(load64(src, i-1))] = uint32(i - 1)
		for i <= ilimit {
			r1 := int(e.reps[1])
			if r1 > i || load32(src, i-r1) != load32(src, i) {
				break
			}
			ml := 4 + matchLen(src, i+4-r1, i+4, end)
			v := load64(src, i)
			long[e.hashLong(v)], short[e.hashShort(v)] = uint32(i), uint32(i)
			emit(anchor, i, r1, ml)
			i += ml
			anchor = i
		}
	}
	lit = append(lit, src[anchor:end]...)
	e.seqs, e.lit = seqs, lit
	return seqs, lit
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i : i+4 : i+4]) }

// matchLen returns how many bytes src[a:] and src[b:] share, a < b,
// stopping at end (b ≤ end ≤ len(src)); eight bytes per step, the first
// differing byte falls out of the XOR's trailing zeros.
func matchLen(src []byte, a, b, end int) int {
	n := 0
	for b+n+8 <= end {
		if x := load64(src, a+n) ^ load64(src, b+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < end && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// compressBlock builds a compressed-block payload for content[start:end]
// and returns it with its number of sequences, or nil when compression
// does not pay.
func (e *frameEncoder) compressBlock(start, end int) ([]byte, int) {
	seqs, lit := e.findSequences(start, end)
	litSection := e.encodeLiteralsSection(lit)
	if litSection == nil {
		return nil, 0
	}
	seqSection := e.encodeSequencesSection(seqs)
	payload := append(e.payload[:0], litSection...)
	payload = append(payload, seqSection...)
	e.payload = payload
	return payload, len(seqs)
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

func llCodeOf(ll uint32) uint8 {
	if ll < 64 {
		return llCodeLUT[ll]
	}
	return uint8(bits.Len32(ll) - 1 + 19)
}

func mlCodeOf(mlBase uint32) uint8 {
	if mlBase < 128 {
		return mlCodeLUT[mlBase]
	}
	return uint8(bits.Len32(mlBase) - 1 + 36)
}

// coded is one sequence translated to its LL/ML/OF codes and the extra
// bits each carries.
type coded struct {
	llCode, mlCode, ofCode uint8
	llX, mlX, ofX          uint32
}

// encodeSequencesSection emits the sequences section: each field's
// table chosen by what the block's codes cost under it, then the
// bitstream. The returned slice is encoder scratch, valid until the
// next block.
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
		e.seqOut = out
		return out
	}

	cs := resize(e.cs, n)
	e.cs = cs
	var llCount [36]uint32
	var ofCount [32]uint32
	var mlCount [53]uint32
	for i, s := range seqs {
		c := coded{
			llCode: llCodeOf(s.ll), mlCode: mlCodeOf(s.ml - 3), ofCode: uint8(bits.Len32(s.offVal) - 1),
			llX: s.ll, mlX: s.ml - 3, ofX: s.offVal,
		}
		cs[i] = c
		llCount[c.llCode]++
		ofCount[c.ofCode]++
		mlCount[c.mlCode]++
	}
	e.ll.choose(llCount[:], n)
	e.of.choose(ofCount[:], n)
	e.ml.choose(mlCount[:], n)
	out = append(out, e.ll.mode<<6|e.of.mode<<4|e.ml.mode<<2)
	out = append(out, e.ll.desc...)
	out = append(out, e.of.desc...)
	out = append(out, e.ml.desc...)

	llEnc, ofEnc, mlEnc := &e.ll.next.enc, &e.of.next.enc, &e.ml.next.enc
	w := bitWriter{out: e.bwBuf[:0]}
	lastC := cs[n-1]
	mlState := mlEnc.init(lastC.mlCode)
	ofState := ofEnc.init(lastC.ofCode)
	llState := llEnc.init(lastC.llCode)
	w.addBits(lastC.llX, int(llCodeTable[lastC.llCode].bits))
	w.addBits(lastC.mlX, int(mlCodeTable[lastC.mlCode].bits))
	w.addBits(lastC.ofX, int(lastC.ofCode))
	for i := n - 2; i >= 0; i-- {
		c := cs[i]
		ofState = ofEnc.encode(&w, ofState, c.ofCode)
		mlState = mlEnc.encode(&w, mlState, c.mlCode)
		llState = llEnc.encode(&w, llState, c.llCode)
		w.addBits(c.llX, int(llCodeTable[c.llCode].bits))
		w.addBits(c.mlX, int(mlCodeTable[c.mlCode].bits))
		w.addBits(c.ofX, int(c.ofCode))
	}
	mlEnc.flush(&w, mlState)
	ofEnc.flush(&w, ofState)
	llEnc.flush(&w, llState)
	stream := w.close()
	e.bwBuf = stream
	out = append(out, stream...)
	e.seqOut = out
	return out
}
