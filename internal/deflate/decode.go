package deflate

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/bitio"
	"repro/internal/gzformat"
	"repro/internal/huffman"
)

// ErrOutputLimit reports that a decode exceeded MaxDecompressed. The
// parallel reader uses it both as runaway protection against false
// positives and to emulate pugz's fixed output buffers (paper §1.2).
var ErrOutputLimit = errors.New("deflate: decompressed output limit exceeded")

// ErrNoDistanceCode reports a back-reference in a block that declared no
// usable distance code.
var ErrNoDistanceCode = errors.New("deflate: length symbol without distance code")

// StopAtEOF decodes to the end of the last gzip member.
const StopAtEOF = math.MaxUint64

// ChunkConfig parameterises DecodeChunk.
type ChunkConfig struct {
	// Start is the absolute bit offset of the first Deflate block header
	// (or of a gzip member header when StartsAtGzipHeader is set).
	Start uint64
	// Stop makes decoding halt at the first non-final Dynamic or
	// Non-Compressed block whose canonical offset is >= Stop. This stop
	// condition matches the block finder's search conditions exactly, so
	// the next chunk's key lines up (paper §3.3). Use StopAtEOF to decode
	// everything.
	Stop uint64
	// TwoStage selects marker-based decoding for an unknown window.
	// Otherwise Window (possibly empty) is the known initial window.
	TwoStage bool
	Window   []byte
	// StartsAtGzipHeader makes the decode begin with gzip header parsing.
	StartsAtGzipHeader bool
	// StopBeforeMember, when nonzero, ends the chunk after a member
	// footer whose following member would begin at/after this bit
	// offset. This is how BGZF chunk boundaries stop (paper §3.4.4):
	// they sit on member boundaries, not Deflate block boundaries.
	StopBeforeMember uint64
	// MaxDecompressed aborts the decode when the output exceeds this
	// many symbols (0 = no limit).
	MaxDecompressed uint64
	// StopAtOutput, when nonzero, is the one stop rule on output: the
	// decode returns, with ChunkResult.Paused set, once at least this many
	// symbols exist. Single-stage decodes check it after every element —
	// a literal, a match, a byte of a stored block — so they stop inside
	// a block too, at most MaxMatchLen-1 symbols late; an end-of-block
	// symbol right behind the limit is consumed with it, so a limit on a
	// block's last byte ends at the block boundary, past the footer of a
	// member that ends there. Two-stage decodes check it between blocks
	// only. Resume continues a paused decode. Indexed decodes bound
	// themselves this way: the index records the chunk's exact size, and
	// the block at its end bit need not be stop-eligible (a shard boundary
	// can open with a final or Fixed block).
	StopAtOutput uint64
	// SizeHint is the expected output size in symbols; output buffers
	// start at this capacity.
	SizeHint int
}

// BlockStart records one Deflate block boundary inside a chunk.
type BlockStart struct {
	// Bit is the canonical bit offset of the block header: exact for
	// Dynamic and Fixed blocks; for non-final Non-Compressed Blocks it is
	// normalised to 3 bits before the byte-aligned LEN field, resolving
	// the padding ambiguity of §3.4.1.
	Bit uint64
	// DecompOffset is the decompressed position (within this chunk's
	// output) where the block starts.
	DecompOffset uint64
	Type         BlockType
	Final        bool
}

// MemberEvent records a gzip member boundary encountered mid-chunk.
type MemberEvent struct {
	// DecompOffset is the position in the chunk output where the member
	// ended.
	DecompOffset uint64
	Footer       gzformat.Footer
	// AtEOF is set when no further member follows.
	AtEOF bool
	// Header and HeaderEndBit describe the next member when !AtEOF.
	Header       gzformat.Header
	HeaderEndBit uint64
}

// ChunkResult is the output of one chunk decode: an optional marked
// segment (two-stage, 16-bit symbols) followed by an optional raw byte
// segment (single-stage or post-fallback).
type ChunkResult struct {
	StartBit uint64
	// EndBit is the canonical offset of the block that triggered the
	// stop condition (not consumed), or the position after the final
	// footer when EndIsEOF.
	EndBit   uint64
	EndIsEOF bool
	// TrailingData is set when bytes that are not a gzip member follow
	// the final footer.
	TrailingData bool
	// Paused is set when the decode stopped on StopAtOutput rather than
	// on a stop condition of the stream. EndBit is then the position of
	// the next element, in the middle of a block or at a block header,
	// and Decoder.Resume continues from it.
	Paused bool

	Marked []uint16
	Raw    []byte

	Members     []MemberEvent
	BlockStarts []BlockStart

	// FirstHeader is the gzip header parsed when StartsAtGzipHeader.
	FirstHeader gzformat.Header
}

// TotalOut returns the number of decompressed symbols (= bytes after
// marker resolution).
func (cr *ChunkResult) TotalOut() uint64 {
	return uint64(len(cr.Marked)) + uint64(len(cr.Raw))
}

// chunkState is the mutable decode state shared by the block loops.
type chunkState struct {
	out16     []uint16
	out8      []byte
	window    []byte
	marked    bool
	histStart int64 // lowest valid history position (negative reaches into the window)
	maxOut    int
	// limit is StopAtOutput for the single-stage loops, which pause once
	// len(out8) reaches it; math.MaxInt when there is none to check.
	limit   int
	scratch []byte
}

func (st *chunkState) total() uint64 {
	return uint64(len(st.out16)) + uint64(len(st.out8))
}

// canFallback reports whether the last WindowSize outputs contain no
// marker, enabling the switch to single-stage decoding (paper §3.3).
// The virtual initial window is all markers, so at least WindowSize
// symbols must exist. It runs once per block: while markers survive the
// scan meets one early, and the one full 32 Ki scan that finds none ends
// marked mode for good.
func (st *chunkState) canFallback() bool {
	n := len(st.out16)
	return st.marked && n >= WindowSize && !HasMarkers(st.out16[n-WindowSize:])
}

// DecodeChunk decodes Deflate data according to cfg, reading from br.
// It is the single entry point used by sequential decompression, by
// speculative (two-stage) chunk workers and by index-based decoding. A
// result that comes back Paused is continued with Resume; until then the
// Decoder is the parked state — the reader and its position, the open
// block's Huffman tables and flags, the output so far and the window it
// started from.
func (d *Decoder) DecodeChunk(br *bitio.BitReader, cfg ChunkConfig) (*ChunkResult, error) {
	if err := br.SeekBits(cfg.Start); err != nil {
		return nil, err
	}
	d.br, d.cfg, d.open = br, cfg, false
	d.pausable = !cfg.TwoStage && cfg.StopAtOutput > 0
	d.cr = &ChunkResult{StartBit: cfg.Start}
	if cfg.StartsAtGzipHeader {
		hdr, err := gzformat.ParseHeader(br)
		if err != nil {
			d.cr = nil
			return nil, err
		}
		d.cr.FirstHeader = hdr
	}
	d.st = chunkState{
		marked: cfg.TwoStage,
		window: cfg.Window,
		maxOut: math.MaxInt,
	}
	st := &d.st
	if cfg.MaxDecompressed > 0 && cfg.MaxDecompressed < math.MaxInt {
		st.maxOut = int(cfg.MaxDecompressed)
	}
	if cfg.TwoStage {
		// Marked output is never a caller's final buffer (it has to be
		// resolved into bytes), and neither is the raw tail behind it:
		// both are scratch, drawn from the free lists. Single-stage output
		// is allocated at the size asked for, because indexed decodes keep
		// it as the span's content.
		st.histStart = -WindowSize
		st.out16 = scratch16.get(cfg.SizeHint)
	} else {
		st.histStart = -int64(len(cfg.Window))
		if cfg.StopAtOutput == 0 {
			st.out8 = make([]byte, 0, max(cfg.SizeHint, 64*1024))
		}
	}
	return d.run()
}

// Resume continues the decode this Decoder paused on StopAtOutput, up to
// a new limit (zero for none): together the calls produce byte for byte,
// position for position and event for event what one unpaused
// DecodeChunk would have. The result is the one DecodeChunk returned,
// grown; output an earlier call handed out stays valid and unchanged,
// though Raw itself may have moved to a larger buffer.
func (d *Decoder) Resume(stopAtOutput uint64) (*ChunkResult, error) {
	if d.cr == nil || !d.cr.Paused {
		return nil, errors.New("deflate: no paused decode to resume")
	}
	d.cfg.StopAtOutput = stopAtOutput
	return d.run()
}

// run decodes until a stop condition of d.cfg holds and hands the result
// out. A decode that ended for good, or failed, leaves no parked state.
func (d *Decoder) run() (*ChunkResult, error) {
	cr, st := d.cr, &d.st
	cr.Paused = false
	d.reserve()
	err := d.decodeBlocks()
	cr.Marked, cr.Raw = st.out16, st.out8
	if !cr.Paused || err != nil {
		d.cr, d.st = nil, chunkState{}
	}
	if err != nil {
		if d.cfg.TwoStage {
			// Block-finder false positives end here; their scratch goes
			// straight back.
			cr.Release()
		}
		return nil, err
	}
	return cr, nil
}

// reserve sets the limit the single-stage loops run to. A decode that
// may pause never lets them regrow its output — regrowing files the old
// buffer for reuse, and what a pause handed out may be in a reader's
// hands — so the loops stop a match short of the capacity at the latest,
// and growth happens here, by copying, the old buffer left to the
// collector. The new capacity is what the output limit asks for while
// the size hint makes that plausible, twice the old one otherwise.
func (d *Decoder) reserve() {
	st := &d.st
	st.limit = math.MaxInt
	if !d.pausable {
		return
	}
	hard := math.MaxInt - MaxMatchLen
	if lim := d.cfg.StopAtOutput; lim > 0 && lim < uint64(hard) {
		hard = int(lim)
	}
	if need := hard + MaxMatchLen; cap(st.out8) < need {
		n := 2 * cap(st.out8)
		if hint := d.cfg.SizeHint + MaxMatchLen; need <= hint {
			n = max(need, min(n, hint))
		} else {
			n = min(max(n, 64<<10), need)
		}
		st.out8 = append(make([]byte, 0, n), st.out8...)
	}
	st.limit = min(hard, cap(st.out8)-MaxMatchLen)
}

// decodeBlocks runs the block loop of DecodeChunk until a stop condition
// of d.cfg holds, filling the result's positions and events; the output
// stays in d.st.
func (d *Decoder) decodeBlocks() error {
	br, cfg, cr, st := d.br, &d.cfg, d.cr, &d.st
	for {
		if !d.open {
			if cfg.StopAtOutput > 0 && st.total() >= cfg.StopAtOutput {
				cr.EndBit, cr.Paused = br.BitPos(), true
				return nil
			}
			if st.canFallback() {
				st.marked = false
				st.out8 = scratch8.get(cfg.SizeHint)
			}
			headerPos := br.BitPos()
			final, typ, err := ParseBlockHeader(br)
			if err != nil {
				return err
			}

			switch typ {
			case BlockStored:
				length, lenPos, err := ParseStoredHeader(br)
				if err != nil {
					return err
				}
				canonical := headerPos
				if !final {
					canonical = lenPos - 3
					if canonical >= cfg.Stop {
						cr.EndBit = canonical
						return nil
					}
				}
				cr.BlockStarts = append(cr.BlockStarts, BlockStart{canonical, st.total(), typ, final})
				d.stored = length

			case BlockFixed:
				cr.BlockStarts = append(cr.BlockStarts, BlockStart{headerPos, st.total(), typ, final})
				if err := d.initFixed(); err != nil {
					return err
				}

			case BlockDynamic:
				if !final && headerPos >= cfg.Stop {
					cr.EndBit = headerPos
					return nil
				}
				cr.BlockStarts = append(cr.BlockStarts, BlockStart{headerPos, st.total(), typ, final})
				if r := d.ParseDynamicHeader(); r != RejectNone {
					return headerErrors[r]
				}

			default:
				return ErrCorrupt
			}
			d.open, d.final, d.isStored = true, final, typ == BlockStored
		}

		var paused bool
		var err error
		if d.isStored {
			paused, err = d.copyStored(st)
		} else {
			paused, err = d.decodeHuffBlock(st)
		}
		if err != nil {
			return err
		}
		if paused {
			if cfg.StopAtOutput == 0 || st.total() < cfg.StopAtOutput {
				d.reserve() // out of room, not at the limit
				continue
			}
			cr.EndBit, cr.Paused = br.BitPos(), true
			return nil
		}
		d.open = false

		if st.total() > uint64(st.maxOut) {
			return ErrOutputLimit
		}

		if d.final {
			stop, err := d.memberEnd(cr, st, cfg.StopBeforeMember)
			if err != nil || stop {
				return err
			}
		}
	}
}

// memberEnd handles the gzip footer after a final block and the start
// of the following member, if any. It reports whether the chunk ends.
func (d *Decoder) memberEnd(cr *ChunkResult, st *chunkState, stopBeforeMember uint64) (stop bool, err error) {
	br := d.br
	br.AlignToByte()
	footer, err := gzformat.ParseFooter(br)
	if err != nil {
		return false, err
	}
	ev := MemberEvent{DecompOffset: st.total(), Footer: footer}
	if br.RemainingBits() == 0 {
		ev.AtEOF = true
		cr.Members = append(cr.Members, ev)
		cr.EndIsEOF = true
		cr.EndBit = br.BitPos()
		return true, nil
	}
	endOfFooter := br.BitPos()
	if stopBeforeMember > 0 && endOfFooter >= stopBeforeMember {
		// The next member starts at/after the configured boundary; end
		// the chunk here without consuming its header.
		cr.Members = append(cr.Members, ev)
		cr.EndBit = endOfFooter
		return true, nil
	}
	hdr, err := gzformat.ParseHeader(br)
	if err != nil {
		// Trailing non-gzip data: stop cleanly at the footer.
		ev.AtEOF = true
		cr.Members = append(cr.Members, ev)
		cr.EndIsEOF = true
		cr.TrailingData = true
		cr.EndBit = endOfFooter
		return true, nil
	}
	ev.Header = hdr
	ev.HeaderEndBit = br.BitPos()
	cr.Members = append(cr.Members, ev)
	// The back-reference window does not cross member boundaries.
	st.histStart = int64(st.total())
	return false, nil
}

// copyStored implements the Non-Compressed Block fast path (§3.3): the
// raw data is copied straight into the result buffer, in single-stage
// mode as far as the output limit allows. It reports whether bytes of
// the block are left for a resumed decode.
func (d *Decoder) copyStored(st *chunkState) (paused bool, err error) {
	br := d.br
	if !st.marked {
		p := len(st.out8)
		n := max(min(d.stored, st.limit-p), 0)
		st.out8 = growBytes(st.out8, n)
		d.stored -= n
		return d.stored > 0, br.ReadFull(st.out8[p : p+n])
	}
	length := d.stored
	if length == 0 {
		return false, nil
	}
	if cap(st.scratch) < 65536 {
		st.scratch = make([]byte, 65536)
	}
	buf := st.scratch[:length]
	if err := br.ReadFull(buf); err != nil {
		return false, err
	}
	p := len(st.out16)
	st.out16 = growU16(st.out16, length)
	out := st.out16[p:]
	for i, b := range buf {
		out[i] = uint16(b)
	}
	return false, nil
}

// decodeHuffBlock decodes one Huffman-compressed block body in the
// current mode, or the rest of one a paused decode left open.
// d.lit/d.dist must be initialised. It reports whether the output limit
// ended it before the block did.
func (d *Decoder) decodeHuffBlock(st *chunkState) (paused bool, err error) {
	if st.marked {
		return false, d.decodeHuffBlockMarked(st)
	}
	paused, err = d.decodeHuffBlockRaw(st)
	if paused {
		// The end-of-block symbol produces nothing, so one right behind
		// the limit belongs to what was asked for: a decode bounded by
		// its chunk's size ends at the block boundary, having seen the
		// footer if a member ends there.
		br := d.br
		pos := br.BitPos()
		if sym, err := d.lit.Decode(br); err == nil && sym == EndOfBlock {
			return false, nil
		}
		err = br.SeekBits(pos)
	}
	return paused, err
}

// The block loops below decode on a local copy of the BitReader's
// accumulator (bitio.View/Commit), refilled with one 8-byte load per
// element — the wide-refill discipline that makes pure-Go decoders
// hardware-limited. After a refill the accumulator holds 56..63 valid
// bits, which covers a worst-case element in one go: litlen code (15)
// + length extra (5) + distance code (15) + distance extra (13) = 48
// bits. Literals consume at most 15 bits, so several decode per
// refill; the inner loop re-enters without refilling while at least
// 48 bits remain. Within 8 bytes of the buffered window's edge the
// loops fall back to the checked per-symbol path (which also refills
// ReaderAt-backed windows), so the fast path never needs bounds or
// end-of-stream checks on the bit source.

// fastElementBits is the worst-case bit cost of one decoded element;
// the fast loops refill whenever fewer bits remain.
const fastElementBits = 48

// decodeHuffBlockMarked is the two-stage (first stage) decode loop:
// output symbols are 16-bit; back-references into the unknown initial
// window emit markers (paper §2.2, Figure 3).
func (d *Decoder) decodeHuffBlockMarked(st *chunkState) error {
	br := d.br
	out := st.out16
	defer func() { st.out16 = out }()

	lt, ltShift := d.lit.Table(), d.lit.RootBits()
	ltMask := uint64(1)<<ltShift - 1
	var dt []huffman.Entry
	var dtShift uint
	var dtMask uint64
	if d.hasDist {
		dt, dtShift = d.dist.Table(), d.dist.RootBits()
		dtMask = uint64(1)<<dtShift - 1
	}

	buf, pos, bits, nbits := br.View()
	for {
		if pos+8 > len(buf) {
			br.Commit(pos, bits, nbits)
			var done bool
			var err error
			out, done, err = d.markedSlowElement(st, out)
			if done || err != nil {
				return err
			}
			buf, pos, bits, nbits = br.View()
			continue
		}
		bits |= binary.LittleEndian.Uint64(buf[pos:]) << nbits
		pos += int((63 - nbits) >> 3)
		nbits |= 56

		for {
			e := lt[bits&ltMask]
			if sb := e.SubBits(); sb != 0 {
				e = lt[uint64(e.Val())+bits>>ltShift&(1<<sb-1)]
			}
			n := e.Bits()
			if n == 0 {
				br.Commit(pos, bits, nbits)
				return huffman.ErrBadSymbol
			}
			bits >>= n
			nbits -= n
			sym := e.Val()
			if sym < 256 {
				out = append(out, sym)
				if nbits >= fastElementBits {
					continue
				}
				break
			}
			if sym == EndOfBlock {
				br.Commit(pos, bits, nbits)
				return nil
			}
			if sym > 285 {
				br.Commit(pos, bits, nbits)
				return ErrCorrupt
			}
			li := sym - 257
			length := int(lengthBase[li])
			if x := lengthExtra[li]; x > 0 {
				length += int(bits & (1<<x - 1))
				bits >>= x
				nbits -= uint(x)
			}
			if !d.hasDist {
				br.Commit(pos, bits, nbits)
				return ErrNoDistanceCode
			}
			de := dt[bits&dtMask]
			if sb := de.SubBits(); sb != 0 {
				de = dt[uint64(de.Val())+bits>>dtShift&(1<<sb-1)]
			}
			dn := de.Bits()
			if dn == 0 {
				br.Commit(pos, bits, nbits)
				return huffman.ErrBadSymbol
			}
			bits >>= dn
			nbits -= dn
			dsym := de.Val()
			if dsym > 29 {
				br.Commit(pos, bits, nbits)
				return ErrCorrupt
			}
			dist := int(distBase[dsym])
			if x := distExtra[dsym]; x > 0 {
				dist += int(bits & (1<<x - 1))
				bits >>= x
				nbits -= uint(x)
			}
			var err error
			out, err = emitMarkedMatch(st, out, dist, length)
			if err != nil {
				br.Commit(pos, bits, nbits)
				return err
			}
			break
		}
	}
}

// emitMarkedMatch bounds-checks and appends one back-reference in
// marked mode. The part of the match that reaches before the chunk
// start comes out as consecutive markers into the virtual window; the
// rest is an ordinary copy within out, markers included.
func emitMarkedMatch(st *chunkState, out []uint16, dist, length int) ([]uint16, error) {
	p := len(out)
	if int64(p)-int64(dist) < st.histStart {
		return out, ErrCorrupt
	}
	if p+length > st.maxOut {
		return out, ErrOutputLimit
	}
	if dist > p {
		n := min(dist-p, length)
		out = growU16(out, n)
		m := uint16(MarkerBase + WindowSize - (dist - p))
		for i := range out[p:] {
			out[p+i] = m + uint16(i)
		}
		if length -= n; length == 0 {
			return out, nil
		}
	}
	return appendCopyWithin16(out, dist, length), nil
}

// markedSlowElement decodes one element through the checked BitReader
// path; used near buffered-window edges and at end of input. It
// reports done when the block's end-of-block symbol was consumed.
func (d *Decoder) markedSlowElement(st *chunkState, out []uint16) ([]uint16, bool, error) {
	br := d.br
	sym, err := d.lit.Decode(br)
	if err != nil {
		return out, false, err
	}
	if sym < 256 {
		return append(out, sym), false, nil
	}
	if sym == EndOfBlock {
		return out, true, nil
	}
	dist, length, err := d.slowMatchTail(sym)
	if err != nil {
		return out, false, err
	}
	out, err = emitMarkedMatch(st, out, dist, length)
	return out, false, err
}

// decodeHuffBlockRaw is the conventional single-stage decode loop used
// when the window is known or after the marker-free fallback. It returns
// at the end of the block, or paused at the first element boundary where
// the output has reached st.limit.
func (d *Decoder) decodeHuffBlockRaw(st *chunkState) (bool, error) {
	br := d.br
	out, limit := st.out8, st.limit
	defer func() { st.out8 = out }()

	lt, ltShift := d.lit.Table(), d.lit.RootBits()
	ltMask := uint64(1)<<ltShift - 1
	var dt []huffman.Entry
	var dtShift uint
	var dtMask uint64
	if d.hasDist {
		dt, dtShift = d.dist.Table(), d.dist.RootBits()
		dtMask = uint64(1)<<dtShift - 1
	}

	buf, pos, bits, nbits := br.View()
	for {
		if len(out) >= limit {
			br.Commit(pos, bits, nbits)
			return true, nil
		}
		if pos+8 > len(buf) {
			br.Commit(pos, bits, nbits)
			var done bool
			var err error
			out, done, err = d.rawSlowElement(st, out)
			if done || err != nil {
				return false, err
			}
			buf, pos, bits, nbits = br.View()
			continue
		}
		bits |= binary.LittleEndian.Uint64(buf[pos:]) << nbits
		pos += int((63 - nbits) >> 3)
		nbits |= 56

		for {
			e := lt[bits&ltMask]
			if sb := e.SubBits(); sb != 0 {
				e = lt[uint64(e.Val())+bits>>ltShift&(1<<sb-1)]
			}
			n := e.Bits()
			if n == 0 {
				br.Commit(pos, bits, nbits)
				return false, huffman.ErrBadSymbol
			}
			bits >>= n
			nbits -= n
			sym := e.Val()
			if sym < 256 {
				out = append(out, byte(sym))
				if nbits >= fastElementBits && len(out) < limit {
					continue
				}
				break
			}
			if sym == EndOfBlock {
				br.Commit(pos, bits, nbits)
				return false, nil
			}
			if sym > 285 {
				br.Commit(pos, bits, nbits)
				return false, ErrCorrupt
			}
			li := sym - 257
			length := int(lengthBase[li])
			if x := lengthExtra[li]; x > 0 {
				length += int(bits & (1<<x - 1))
				bits >>= x
				nbits -= uint(x)
			}
			if !d.hasDist {
				br.Commit(pos, bits, nbits)
				return false, ErrNoDistanceCode
			}
			de := dt[bits&dtMask]
			if sb := de.SubBits(); sb != 0 {
				de = dt[uint64(de.Val())+bits>>dtShift&(1<<sb-1)]
			}
			dn := de.Bits()
			if dn == 0 {
				br.Commit(pos, bits, nbits)
				return false, huffman.ErrBadSymbol
			}
			bits >>= dn
			nbits -= dn
			dsym := de.Val()
			if dsym > 29 {
				br.Commit(pos, bits, nbits)
				return false, ErrCorrupt
			}
			dist := int(distBase[dsym])
			if x := distExtra[dsym]; x > 0 {
				dist += int(bits & (1<<x - 1))
				bits >>= x
				nbits -= uint(x)
			}
			var err error
			out, err = d.emitRawMatch(st, out, dist, length)
			if err != nil {
				br.Commit(pos, bits, nbits)
				return false, err
			}
			break
		}
	}
}

// emitRawMatch bounds-checks and appends one back-reference in raw
// mode, reaching into the marked segment or the initial window when
// the distance exceeds the raw output written so far.
func (d *Decoder) emitRawMatch(st *chunkState, out []byte, dist, length int) ([]byte, error) {
	p := len(out)
	if int64(len(st.out16))+int64(p)-int64(dist) < st.histStart {
		return out, ErrCorrupt
	}
	if int64(p)+int64(length) > int64(st.maxOut) {
		return out, ErrOutputLimit
	}
	if dist <= p {
		return appendCopyWithin(out, dist, length), nil
	}
	k := dist - p
	for length > 0 && k > 0 {
		b, ok := st.historyByte(k)
		if !ok {
			return out, ErrCorrupt
		}
		out = append(out, b)
		length--
		k--
	}
	if length > 0 {
		out = appendCopyWithin(out, dist, length)
	}
	return out, nil
}

// rawSlowElement decodes one element through the checked BitReader
// path; used near buffered-window edges and at end of input.
func (d *Decoder) rawSlowElement(st *chunkState, out []byte) ([]byte, bool, error) {
	br := d.br
	sym, err := d.lit.Decode(br)
	if err != nil {
		return out, false, err
	}
	if sym < 256 {
		return append(out, byte(sym)), false, nil
	}
	if sym == EndOfBlock {
		return out, true, nil
	}
	dist, length, err := d.slowMatchTail(sym)
	if err != nil {
		return out, false, err
	}
	out, err = d.emitRawMatch(st, out, dist, length)
	return out, false, err
}

// slowMatchTail reads the remainder of a match element (length extra
// bits, distance code, distance extra bits) after a length symbol was
// decoded on the checked path.
func (d *Decoder) slowMatchTail(sym uint16) (dist, length int, err error) {
	br := d.br
	if sym > 285 {
		return 0, 0, ErrCorrupt
	}
	li := sym - 257
	length = int(lengthBase[li])
	if e := lengthExtra[li]; e > 0 {
		v, err := br.Read(uint(e))
		if err != nil {
			return 0, 0, err
		}
		length += int(v)
	}
	if !d.hasDist {
		return 0, 0, ErrNoDistanceCode
	}
	dsym, err := d.dist.Decode(br)
	if err != nil {
		return 0, 0, err
	}
	if dsym > 29 {
		return 0, 0, ErrCorrupt
	}
	dist = int(distBase[dsym])
	if e := distExtra[dsym]; e > 0 {
		v, err := br.Read(uint(e))
		if err != nil {
			return 0, 0, err
		}
		dist += int(v)
	}
	return dist, length, nil
}

// historyByte returns the byte k positions before the start of the raw
// segment: from the (marker-free by construction) tail of the marked
// segment, or from the known initial window.
func (st *chunkState) historyByte(k int) (byte, bool) {
	if n := len(st.out16); n >= k {
		v := st.out16[n-k]
		if v >= MarkerBase {
			return 0, false
		}
		return byte(v), true
	}
	j := k - len(st.out16)
	if j <= len(st.window) {
		return st.window[len(st.window)-j], true
	}
	return 0, false
}

// appendCopyWithin appends length bytes copied from dist back within
// out, handling the overlapping (run-generating) case. Non-overlapping
// copies are a single memmove; overlapping ones replicate the dist-byte
// pattern with doubling memmoves — O(log(length/dist)) wide copies
// instead of a byte loop, which also covers dist < 8 safely.
func appendCopyWithin(out []byte, dist, length int) []byte {
	p := len(out)
	out = growBytes(out, length)
	dst := out[p : p+length]
	src := p - dist
	if dist >= length {
		copy(dst, out[src:src+length])
		return out
	}
	n := copy(dst, out[src:p])
	for n < length {
		n += copy(dst[n:], dst[:n])
	}
	return out
}

// appendCopyWithin16 is appendCopyWithin for marked output.
func appendCopyWithin16(out []uint16, dist, length int) []uint16 {
	p := len(out)
	out = growU16(out, length)
	dst := out[p : p+length]
	src := p - dist
	if dist >= length {
		copy(dst, out[src:src+length])
		return out
	}
	n := copy(dst, out[src:p])
	for n < length {
		n += copy(dst[n:], dst[:n])
	}
	return out
}

// growBytes and growU16 extend an output buffer by n elements. The
// capacity check inlines into the copy loops; the rare regrowth is kept
// out of line, and behind a non-generic name because a dictionary
// argument alone would push the callers past the inlining budget.
func growBytes(s []byte, n int) []byte {
	if need := len(s) + n; need <= cap(s) {
		return s[:need]
	}
	return regrowBytes(s, n)
}

func growU16(s []uint16, n int) []uint16 {
	if need := len(s) + n; need <= cap(s) {
		return s[:need]
	}
	return regrowU16(s, n)
}

//go:noinline
func regrowBytes(s []byte, n int) []byte { return scratch8.regrow(s, n) }

//go:noinline
func regrowU16(s []uint16, n int) []uint16 { return scratch16.regrow(s, n) }
