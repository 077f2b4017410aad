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
	// Start is the absolute bit offset of the first Deflate block header,
	// of a gzip member header when StartsAtGzipHeader is set, or of an
	// element inside a Huffman block when Header is set.
	Start uint64
	// Header, when non-nil, starts the decode inside a Huffman block, at
	// one of the InBlockPoints of an earlier decode: Header stands at the
	// block's 3-bit header, which DecodeChunk parses to rebuild the
	// block's tables before it continues from Start with the block open.
	// Deflate carries nothing else from one element to the next but the
	// window. Header may read another part of the file than br does: the
	// header of a long block lies far before its points. The points
	// recorded inside that block, and PausedIn, give the header's bit as
	// Header's position, so a decode that records points or is asked
	// where it paused reads the header at br's offsets.
	// StartsAtGzipHeader must not be set with it.
	Header *bitio.BitReader
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
	// Bare marks a deflate stream without gzip framing (RFC 1951): the
	// decode ends with its final block, EndIsEOF set and EndBit just past
	// the block, and looks for no footer behind it. StartsAtGzipHeader
	// must not be set with it.
	Bare bool
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
	// PointEvery, when nonzero, has the decode record an InBlockPoint
	// inside Huffman blocks each time the output has grown by at least
	// this many symbols since the last one. A point is taken where the
	// block loops stop between elements anyway — before a slow element,
	// or where a fast stretch ends, which it does once it has passed the
	// point's offset — so it lies less than one fast stretch (fastRoom
	// symbols) past that offset unless a stored block or a block's end
	// came between, and recording costs nothing per symbol.
	PointEvery uint64
	// PauseAtPointPast, when nonzero, pauses a single-stage decode at the
	// first InBlockPoint it records at or past this bit, as StopAtOutput
	// pauses it: Paused set, EndBit the point's bit, and Resume goes on to
	// the next one. Where StopAtOutput bounds what a decode makes, this
	// bounds what it reads. The decode grows its output as one without a
	// pause would, so it records the same points and stands at one of
	// them; but unless StopAtOutput is set too, a Resume may move the
	// output to a larger buffer and hand the old one back to the free
	// lists, so resume only once nothing reads what the pause handed out.
	// Where the block ends right behind the point, the decode goes on past
	// the block boundary instead.
	PauseAtPointPast uint64
}

// InBlockPoint records an element boundary inside a Huffman block, from
// which a decode can start with the window in front of it (see
// ChunkConfig.Header).
type InBlockPoint struct {
	// Bit is the bit offset of the next element, HeaderBit that of the
	// open block's header.
	Bit, HeaderBit uint64
	// DecompOffset is the position in the chunk output of the element.
	DecompOffset uint64
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
	// Paused is set when the decode stopped on StopAtOutput or
	// PauseAtPointPast rather than on a stop condition of the stream.
	// EndBit is then the position of the next element, in the middle of a
	// block or at a block header, and Decoder.Resume continues from it.
	Paused bool

	Marked []uint16
	Raw    []byte

	Members []MemberEvent
	// BlockStarts lists the block headers the decode parsed, InBlock the
	// points inside blocks ChunkConfig.PointEvery asked for; both in
	// stream order.
	BlockStarts []BlockStart
	InBlock     []InBlockPoint

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
	limit int
	// pointAt is the output size from which the next InBlockPoint is
	// due; math.MaxInt when the decode records none. atPoint is set when
	// the single-stage loop stopped at one past PauseAtPointPast.
	pointAt int
	atPoint bool
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
	if cfg.Header != nil {
		if err := d.openBlock(cfg.Header); err != nil {
			d.cr = nil
			return nil, err
		}
	}
	if cfg.StartsAtGzipHeader {
		hdr, err := gzformat.ParseHeader(br)
		if err != nil {
			d.cr = nil
			return nil, err
		}
		d.cr.FirstHeader = hdr
	}
	d.st = chunkState{
		marked:  cfg.TwoStage,
		window:  cfg.Window,
		maxOut:  math.MaxInt,
		pointAt: math.MaxInt,
	}
	st := &d.st
	if cfg.PointEvery > 0 && cfg.PointEvery < math.MaxInt {
		st.pointAt = int(cfg.PointEvery)
	}
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

// openBlock parses the block header hdr stands at and leaves the block
// open, as a decode paused inside it would be: its tables built, its
// flags set. A point is never inside a stored block.
func (d *Decoder) openBlock(hdr *bitio.BitReader) error {
	d.headerBit = hdr.BitPos()
	final, typ, err := ParseBlockHeader(hdr)
	if err != nil {
		return err
	}
	switch typ {
	case BlockFixed:
		d.fixed, d.hasDist = true, true
	case BlockDynamic:
		br := d.br
		d.br = hdr
		r := d.ParseDynamicHeader()
		d.br = br
		if r != RejectNone {
			return headerErrors[r]
		}
	default:
		return ErrCorrupt
	}
	d.open, d.final, d.isStored = true, final, false
	return nil
}

// notePoint is where the block loops record the InBlockPoint that is
// due, total symbols into the output with the reader at the element
// behind them, and move the next one PointEvery further.
func (d *Decoder) notePoint(total int) {
	d.st.pointAt = total + int(min(d.cfg.PointEvery, uint64(math.MaxInt-total)))
	d.cr.InBlock = append(d.cr.InBlock, InBlockPoint{Bit: d.br.BitPos(), HeaderBit: d.headerBit, DecompOffset: uint64(total)})
}

// PausedIn reports where the decode that came back Paused stands, at its
// EndBit: between two blocks when inBlock is false, and otherwise inside
// the block whose header is at bit header — a Huffman block, from which
// a decode can start again there (ChunkConfig.Header), or, when stored is
// positive, a stored block with that many of its bytes still to copy,
// which offers no such start: Resume to stored bytes further on ends at
// its end instead.
func (d *Decoder) PausedIn() (inBlock bool, header uint64, stored int) {
	if d.isStored {
		stored = d.stored
	}
	return d.open, d.headerBit, stored
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
				d.fixed, d.hasDist = true, true

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
			d.headerBit = headerPos
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
		atPoint := st.atPoint
		st.atPoint = false
		if paused {
			if !atPoint && (cfg.StopAtOutput == 0 || st.total() < cfg.StopAtOutput) {
				d.reserve() // out of room, not at a limit
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
			if cfg.Bare {
				cr.EndIsEOF, cr.EndBit = true, br.BitPos()
				return nil
			}
			stop, err := d.memberEnd(cr, st, cfg.StopBeforeMember)
			if err != nil || stop {
				return err
			}
		}
	}
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
// current mode, or the rest of one a paused decode left open. The block's
// codes must be built. It reports whether the output limit ended it
// before the block did.
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
		lit, _ := d.codes()
		if e, err := lit.DecodeEntry(br); err == nil && e&huffman.EndOfBlock != 0 {
			return false, nil
		}
		err = br.SeekBits(pos)
	}
	return paused, err
}

// The two block loops below have one shape. Each decodes on a local copy
// of the BitReader's accumulator (bitio.View/Commit) and writes by index
// into room it made sure of beforehand, in fast stretches that check
// input and room once per iteration and nothing per symbol:
//
//   - Bits. An iteration starts with at least fastInput bytes of input
//     buffered and refills the accumulator with one 8-byte load to 56..63
//     bits. Literals then decode from it while at least 15 bits remain,
//     the longest literal/length code, so one refill serves five or six
//     of them. The first entry that is no literal gets a second refill
//     before any of it is consumed, and its 56 bits cover the rest of the
//     element: length code and extra bits (15 + 5), distance code and
//     extra bits (15 + 13). The second load ends at most 15 bytes past
//     where the iteration found the input.
//   - Room. An iteration starts with at least fastRoom symbols of room
//     below the bound — the buffer's capacity, MaxDecompressed and,
//     single-stage, the output limit — and stores at most 49 literals
//     (1-bit codes, from 63 bits down to 14) and one match of MaxMatchLen.
//     A match whose source lies in the output, inside the history and at
//     least 8 bytes back is copied 8 bytes at a time (4 symbols in marked
//     mode), the first 16 without asking for its length, so the copy
//     reaches up to 13 bytes past the match's end: 49 + 258 + 13 symbols
//     at most. What lies past the output's length is never handed out,
//     and the next element overwrites it. Every other match — closer
//     than 8 bytes, out of the window or the marked segment, past the
//     history — goes through emitRawMatch/emitMarkedMatch, which check
//     and copy as they always did, in the same room.
//   - Entries. The table entry says what to do (huffman.Entry): store
//     this byte, add that many extra bits to this base, end the block, or
//     fail. The root lookup indexes a fixed-size array, without a bounds
//     check; a link costs one checked lookup more.
//
// A fast stretch also ends once the output has reached the offset of
// the next InBlockPoint (PointEvery), and the loop records the point
// before it starts the next one — at an element boundary, where the
// reader's position and the open block say all a decode needs to start
// there.
//
// Where either guarantee is missing — within fastInput bytes of the
// buffered window's edge or of the end of input, within fastRoom symbols
// of the bound — the loops decode one element at a time through the
// checked BitReader path (rawSlowElement, markedSlowElement), which
// refills ReaderAt-backed windows and grows the output as it appends.
// That path owns the limits: the single-stage loop looks at the output
// limit before every such element and pauses there, a fast stretch
// having stopped well short of it; a match that would cross
// MaxDecompressed fails in emitRawMatch/emitMarkedMatch; and output
// buffers regrow there only, never inside a fast stretch (those of a
// decode that may pause not even there: see reserve).
//
// After an error the reader stands somewhere inside the element that
// failed, not at a defined bit of it: a fast stretch has consumed a
// link's root bits, or the length in front of a bad distance, where the
// per-element path has not. Callers reposition the reader; the one that
// looks first (core's candidate decode, whether fewer than 64 bits are
// left) only picks between two ways of decoding the same thing.
const (
	fastInput = 16
	fastRoom  = MaxMatchLen + 8 + 64
	rootMask  = huffman.RootSize - 1
)

// load64 returns the 8 bytes at b[i:] as the accumulator takes them;
// copy8 and copy4 copy 8 bytes of output from dist symbols back, which
// must not be closer than the copy is wide. The full slice expressions
// spare the compiler the slices it would otherwise form, empty-tail
// pointer fix-up included: one load and one store each.
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i : i+8 : i+8]) }

func copy8(o []byte, p, dist int) { copy(o[p:p+8:p+8], o[p-dist:p-dist+8:p-dist+8]) }

func copy4(o []uint16, p, dist int) { copy(o[p:p+4:p+4], o[p-dist:p-dist+4:p-dist+4]) }

// noDistRoot stands in for the distance table of a block that declared
// no distance code: every lookup finds an unused prefix.
var noDistRoot [huffman.RootSize]huffman.Entry

// tables returns the open block's tables for the block loops: the roots
// as arrays, and the whole tables for the sub-table lookups.
func (d *Decoder) tables() (lt, dt *[huffman.RootSize]huffman.Entry, ltab, dtab []huffman.Entry) {
	lit, dist := d.codes()
	lt, ltab, dt = lit.Root(), lit.Table(), &noDistRoot
	if d.hasDist {
		dt, dtab = dist.Root(), dist.Table()
	}
	return lt, dt, ltab, dtab
}

// litlenStop is what a literal/length entry that is neither a literal
// nor a length means: nil at the end of the block, else the error.
func litlenStop(e huffman.Entry) error {
	switch {
	case e&huffman.EndOfBlock != 0:
		return nil
	case e == 0:
		return huffman.ErrBadSymbol
	}
	return ErrCorrupt // symbols 286 and 287
}

// distStop is the error behind a distance entry that is no distance.
func (d *Decoder) distStop(e huffman.Entry) error {
	switch {
	case !d.hasDist:
		return ErrNoDistanceCode
	case e == 0:
		return huffman.ErrBadSymbol
	}
	return ErrCorrupt // symbols 30 and 31
}

// decodeHuffBlockMarked is the two-stage (first stage) decode loop:
// output symbols are 16-bit; back-references into the unknown initial
// window emit markers (paper §2.2, Figure 3).
func (d *Decoder) decodeHuffBlockMarked(st *chunkState) error {
	br := d.br
	out := st.out16
	defer func() { st.out16 = out }()

	lt, dt, ltab, dtab := d.tables()
	// Matches from floor on up lie in the output and inside the history.
	floor := int(max(st.histStart, 0))
	buf, pos, bits, nbits := br.View()
	for {
		p := len(out)
		if p >= st.pointAt {
			br.Commit(pos, bits, nbits)
			d.notePoint(p)
		}
		roomEnd := min(st.maxOut, cap(out)) - fastRoom
		if pos+fastInput > len(buf) || p > roomEnd {
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
		o, inputEnd := out[:cap(out)], len(buf)-fastInput
		fastEnd := min(roomEnd, st.pointAt-1)
		var stop bool
		var err error
	fast:
		for p <= fastEnd && pos <= inputEnd {
			bits |= load64(buf, pos) << (nbits & 63)
			pos += int(63-nbits) >> 3
			nbits |= 56
			e := lt[bits&rootMask]
			for e&huffman.Literal != 0 {
				bits >>= e & 63
				nbits -= uint(e & 63)
				o[p] = uint16(e >> 16)
				p++
				if nbits < huffman.MaxBits {
					continue fast
				}
				e = lt[bits&rootMask]
			}
			bits |= load64(buf, pos) << (nbits & 63)
			pos += int(63-nbits) >> 3
			nbits |= 56
			if e&huffman.Link != 0 {
				bits >>= huffman.RootBits
				nbits -= huffman.RootBits
				e = ltab[uint(e>>16)+uint(bits)&(1<<(e>>8&15)-1)]
				if e&huffman.Literal != 0 {
					bits >>= e & 63
					nbits -= uint(e & 63)
					o[p] = uint16(e >> 16)
					p++
					continue
				}
			}
			if e&huffman.Base == 0 {
				bits >>= e & 63
				nbits -= uint(e & 63)
				stop, err = true, litlenStop(e)
				break
			}
			code := bits
			bits >>= e & 63
			nbits -= uint(e & 63)
			length := int(e>>16) + int(code&(1<<(e&63)-1)>>(e>>8&15))
			de := dt[bits&rootMask]
			if de&huffman.Link != 0 {
				bits >>= huffman.RootBits
				nbits -= huffman.RootBits
				de = dtab[uint(de>>16)+uint(bits)&(1<<(de>>8&15)-1)]
			}
			if de&huffman.Base == 0 {
				stop, err = true, d.distStop(de)
				break
			}
			code = bits
			bits >>= de & 63
			nbits -= uint(de & 63)
			dist := int(de>>16) + int(code&(1<<(de&63)-1)>>(de>>8&15))
			if p-dist < floor || dist < 4 {
				if _, err = emitMarkedMatch(st, o[:p], dist, length); err != nil {
					stop = true
					break
				}
				p += length
				continue
			}
			q := p + length
			copy4(o, p, dist)
			copy4(o, p+4, dist)
			for p += 8; p < q; p += 4 {
				copy4(o, p, dist)
			}
			p = q
		}
		out = o[:p]
		if stop {
			br.Commit(pos, bits, nbits)
			return err
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
// path; used near buffered-window edges, at end of input and near the
// output bound. It reports done when the block's end-of-block symbol was
// consumed.
func (d *Decoder) markedSlowElement(st *chunkState, out []uint16) ([]uint16, bool, error) {
	lit, _ := d.codes()
	e, err := lit.DecodeEntry(d.br)
	if err != nil {
		return out, false, err
	}
	if e&huffman.Literal != 0 {
		return append(out, e.Val()), false, nil
	}
	if e&huffman.EndOfBlock != 0 {
		return out, true, nil
	}
	dist, length, err := d.slowMatchTail(e)
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
	out := st.out8
	defer func() { st.out8 = out }()

	lt, dt, ltab, dtab := d.tables()
	bound := min(st.limit, st.maxOut)
	// Matches from floor on up lie in the raw output and inside the history.
	floor := int(max(st.histStart-int64(len(st.out16)), 0))
	buf, pos, bits, nbits := br.View()
	for {
		p := len(out)
		// Raw offsets are total ones less the marked segment.
		pointAt := st.pointAt - len(st.out16)
		if p >= pointAt {
			br.Commit(pos, bits, nbits)
			d.notePoint(len(st.out16) + p)
			if past := d.cfg.PauseAtPointPast; past > 0 && br.BitPos() >= past {
				st.atPoint = true
				return true, nil
			}
			pointAt = st.pointAt - len(st.out16)
		}
		roomEnd := min(bound, cap(out)) - fastRoom
		if pos+fastInput > len(buf) || p > roomEnd {
			br.Commit(pos, bits, nbits)
			if p >= st.limit {
				return true, nil
			}
			var done bool
			var err error
			out, done, err = d.rawSlowElement(st, out)
			if done || err != nil {
				return false, err
			}
			buf, pos, bits, nbits = br.View()
			continue
		}
		o, inputEnd := out[:cap(out)], len(buf)-fastInput
		fastEnd := min(roomEnd, pointAt-1)
		var stop bool
		var err error
	fast:
		for p <= fastEnd && pos <= inputEnd {
			bits |= load64(buf, pos) << (nbits & 63)
			pos += int(63-nbits) >> 3
			nbits |= 56
			e := lt[bits&rootMask]
			for e&huffman.Literal != 0 {
				bits >>= e & 63
				nbits -= uint(e & 63)
				o[p] = byte(e >> 16)
				p++
				if nbits < huffman.MaxBits {
					continue fast
				}
				e = lt[bits&rootMask]
			}
			bits |= load64(buf, pos) << (nbits & 63)
			pos += int(63-nbits) >> 3
			nbits |= 56
			if e&huffman.Link != 0 {
				bits >>= huffman.RootBits
				nbits -= huffman.RootBits
				e = ltab[uint(e>>16)+uint(bits)&(1<<(e>>8&15)-1)]
				if e&huffman.Literal != 0 {
					bits >>= e & 63
					nbits -= uint(e & 63)
					o[p] = byte(e >> 16)
					p++
					continue
				}
			}
			if e&huffman.Base == 0 {
				bits >>= e & 63
				nbits -= uint(e & 63)
				stop, err = true, litlenStop(e)
				break
			}
			code := bits
			bits >>= e & 63
			nbits -= uint(e & 63)
			length := int(e>>16) + int(code&(1<<(e&63)-1)>>(e>>8&15))
			de := dt[bits&rootMask]
			if de&huffman.Link != 0 {
				bits >>= huffman.RootBits
				nbits -= huffman.RootBits
				de = dtab[uint(de>>16)+uint(bits)&(1<<(de>>8&15)-1)]
			}
			if de&huffman.Base == 0 {
				stop, err = true, d.distStop(de)
				break
			}
			code = bits
			bits >>= de & 63
			nbits -= uint(de & 63)
			dist := int(de>>16) + int(code&(1<<(de&63)-1)>>(de>>8&15))
			if p-dist < floor || dist < 8 {
				if _, err = d.emitRawMatch(st, o[:p], dist, length); err != nil {
					stop = true
					break
				}
				p += length
				continue
			}
			q := p + length
			copy8(o, p, dist)
			copy8(o, p+8, dist)
			for p += 16; p < q; p += 8 {
				copy8(o, p, dist)
			}
			p = q
		}
		out = o[:p]
		if stop {
			br.Commit(pos, bits, nbits)
			return false, err
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
	if j := k - len(st.out16); j > 0 {
		// The match starts in the initial window: its part there is one
		// copy.
		if j > len(st.window) {
			return out, ErrCorrupt
		}
		n := min(length, j)
		out = append(out, st.window[len(st.window)-j:][:n]...)
		length -= n
		k -= n
	}
	// The rest before the raw output is the tail of the marked segment,
	// free of markers where the decode fell back to raw.
	for ; length > 0 && k > 0; length, k = length-1, k-1 {
		v := st.out16[len(st.out16)-k]
		if v >= MarkerBase {
			return out, ErrCorrupt
		}
		out = append(out, byte(v))
	}
	if length > 0 {
		out = appendCopyWithin(out, dist, length)
	}
	return out, nil
}

// rawSlowElement decodes one element through the checked BitReader
// path; used near buffered-window edges, at end of input and near the
// output bound.
func (d *Decoder) rawSlowElement(st *chunkState, out []byte) ([]byte, bool, error) {
	lit, _ := d.codes()
	e, err := lit.DecodeEntry(d.br)
	if err != nil {
		return out, false, err
	}
	if e&huffman.Literal != 0 {
		return append(out, byte(e.Val())), false, nil
	}
	if e&huffman.EndOfBlock != 0 {
		return out, true, nil
	}
	dist, length, err := d.slowMatchTail(e)
	if err != nil {
		return out, false, err
	}
	out, err = d.emitRawMatch(st, out, dist, length)
	return out, false, err
}

// slowMatchTail reads the remainder of a match element (length extra
// bits, distance code, distance extra bits) after a length symbol's
// entry was decoded on the checked path.
func (d *Decoder) slowMatchTail(e huffman.Entry) (dist, length int, err error) {
	if length, err = d.slowBase(e); err != nil {
		return 0, 0, err
	}
	if !d.hasDist {
		return 0, 0, ErrNoDistanceCode
	}
	_, dc := d.codes()
	de, err := dc.DecodeEntry(d.br)
	if err != nil {
		return 0, 0, err
	}
	dist, err = d.slowBase(de)
	return dist, length, err
}

// slowBase returns the value of a length or distance entry, reading the
// extra bits behind its code.
func (d *Decoder) slowBase(e huffman.Entry) (int, error) {
	if e&huffman.Base == 0 {
		return 0, ErrCorrupt // symbols 286, 287, 30 and 31
	}
	v := int(e.Val())
	if x := e.Bits() - e.CodeBits(); x > 0 {
		extra, err := d.br.Read(x)
		if err != nil {
			return 0, err
		}
		v += int(extra)
	}
	return v, nil
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
