package deflate

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// RejectReason identifies which of the sequential Dynamic Block header
// checks failed (paper §3.4.2, Table 1). The order of the enumerators is
// the order the checks run in, which is also the order that filters the
// most candidates first.
type RejectReason uint8

const (
	RejectNone RejectReason = iota
	// RejectEOF: not enough bits left for a complete header.
	RejectEOF
	// RejectFinalBlock: the final-block bit is set (the finder only
	// searches for non-final blocks).
	RejectFinalBlock
	// RejectBlockType: the two type bits are not 10 (dynamic).
	RejectBlockType
	// RejectCodeCount: HLIT is 30 or 31 (more than 286 literal codes).
	// The paper calls this check "invalid Precode size". HDIST is not
	// checked early (matching the paper's funnel); distance lengths
	// declared for the impossible symbols 30/31 are caught by the
	// distance-code check instead.
	RejectCodeCount
	// RejectPrecodeInvalid: the precode histogram is oversubscribed.
	RejectPrecodeInvalid
	// RejectPrecodeNonOptimal: the precode has unused leaves.
	RejectPrecodeNonOptimal
	// RejectPrecodeData: the precode-encoded code lengths are invalid
	// (bad repeat op, overrun, or missing end-of-block code).
	RejectPrecodeData
	// RejectDistInvalid / RejectDistNonOptimal: distance code invalid or
	// inefficient.
	RejectDistInvalid
	RejectDistNonOptimal
	// RejectLitInvalid / RejectLitNonOptimal: literal code invalid or
	// inefficient.
	RejectLitInvalid
	RejectLitNonOptimal

	NumRejectReasons
)

func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "valid deflate header"
	case RejectEOF:
		return "unexpected end of data"
	case RejectFinalBlock:
		return "invalid final block"
	case RejectBlockType:
		return "invalid compression type"
	case RejectCodeCount:
		return "invalid precode size"
	case RejectPrecodeInvalid:
		return "invalid precode code"
	case RejectPrecodeNonOptimal:
		return "non-optimal precode code"
	case RejectPrecodeData:
		return "invalid precode-encoded data"
	case RejectDistInvalid:
		return "invalid distance code"
	case RejectDistNonOptimal:
		return "non-optimal distance code"
	case RejectLitInvalid:
		return "invalid literal code"
	case RejectLitNonOptimal:
		return "non-optimal literal code"
	}
	return fmt.Sprintf("reject(%d)", uint8(r))
}

// HeaderError wraps a RejectReason as an error for decode paths.
type HeaderError struct{ Reason RejectReason }

func (e *HeaderError) Error() string { return "deflate: " + e.Reason.String() }

var headerErrors [NumRejectReasons]*HeaderError

func init() {
	for i := range headerErrors {
		headerErrors[i] = &HeaderError{RejectReason(i)}
	}
}

// ErrCorrupt reports invalid compressed data encountered mid-block.
var ErrCorrupt = errors.New("deflate: corrupt compressed data")

// Decoder holds the reusable scratch state for decoding Deflate streams.
// A Decoder is not safe for concurrent use; each worker owns one.
type Decoder struct {
	br *bitio.BitReader

	// The open block's codes are the shared fixed ones when fixed is set,
	// dynLit and dynDist otherwise; codes returns them.
	dynLit, dynDist, precode huffman.Decoder
	fixed, hasDist           bool

	clens       [MaxLitSymbols + 32]uint8
	precodeLens [NumPrecodeSymbols]uint8

	// The chunk decode in progress, kept between a DecodeChunk that
	// paused on its output limit and the Resume that continues it.
	cfg ChunkConfig
	cr  *ChunkResult
	st  chunkState
	// open is set between a block's header and its end: a decode paused
	// in there resumes in the block's body, with lit and dist loaded or
	// stored bytes left to copy.
	open, final, isStored bool
	stored                int
	// headerBit is the bit of the open block's header.
	headerBit uint64
	// pausable marks a single-stage decode that was given an output
	// limit, now or before a Resume: see reserve.
	pausable bool
}

// Reset points the decoder at a bit reader.
func (d *Decoder) Reset(br *bitio.BitReader) { d.br = br }

// codes returns the literal/length and distance decoders of the open
// block; dist is meaningful only while d.hasDist.
func (d *Decoder) codes() (lit, dist *huffman.Decoder) {
	if d.fixed {
		return &fixedLit, &fixedDist
	}
	return &d.dynLit, &d.dynDist
}

// ParseBlockHeader reads the 3-bit block header at the current position.
func ParseBlockHeader(br *bitio.BitReader) (final bool, typ BlockType, err error) {
	v, err := br.Read(3)
	if err != nil {
		return false, blockInvalid, err
	}
	return v&1 == 1, BlockType(v >> 1), nil
}

// ParseDynamicHeader parses the Huffman definition part of a Dynamic
// Block header (everything after the 3 header bits), building d.dynLit
// and d.dynDist. It validates in the order of §3.4.2 and returns the first
// failed check; this is the "DBF custom deflate" trial-and-error path of
// Table 2, and also the header parser used by real decoding.
func (d *Decoder) ParseDynamicHeader() RejectReason {
	br := d.br
	v, err := br.Read(14)
	if err != nil {
		return RejectEOF
	}
	hlit := int(v & 31)
	hdist := int(v >> 5 & 31)
	hclen := int(v >> 10 & 15)
	if hlit > 29 {
		return RejectCodeCount
	}
	nlit := 257 + hlit
	ndist := 1 + hdist
	nclen := 4 + hclen

	// Read the precode code lengths (3 bits each, permuted order).
	for i := range d.precodeLens {
		d.precodeLens[i] = 0
	}
	var counts [MaxPrecodeLen + 1]int
	used := 0
	for i := 0; i < nclen; i++ {
		l, err := br.Read(3)
		if err != nil {
			return RejectEOF
		}
		d.precodeLens[precodeOrder[i]] = uint8(l)
		if l > 0 {
			counts[l]++
			used++
		}
	}
	if used == 0 {
		return RejectPrecodeInvalid
	}
	if err := huffman.ValidateCounts(counts[:], used, false); err != nil {
		if err == huffman.ErrOversubscribed {
			return RejectPrecodeInvalid
		}
		return RejectPrecodeNonOptimal
	}
	if err := d.precode.Init(d.precodeLens[:], false, nil); err != nil {
		return RejectPrecodeInvalid
	}

	// Decode the literal+distance code lengths with the precode.
	total := nlit + ndist
	cl := d.clens[:total]
	i := 0
	for i < total {
		sym, err := d.precode.Decode(br)
		if err != nil {
			return RejectPrecodeData
		}
		switch {
		case sym < 16:
			cl[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return RejectPrecodeData
			}
			rep, err := br.Read(2)
			if err != nil {
				return RejectEOF
			}
			n := 3 + int(rep)
			if i+n > total {
				return RejectPrecodeData
			}
			prev := cl[i-1]
			for k := 0; k < n; k++ {
				cl[i] = prev
				i++
			}
		case sym == 17:
			rep, err := br.Read(3)
			if err != nil {
				return RejectEOF
			}
			n := 3 + int(rep)
			if i+n > total {
				return RejectPrecodeData
			}
			for k := 0; k < n; k++ {
				cl[i] = 0
				i++
			}
		default: // 18
			rep, err := br.Read(7)
			if err != nil {
				return RejectEOF
			}
			n := 11 + int(rep)
			if i+n > total {
				return RejectPrecodeData
			}
			for k := 0; k < n; k++ {
				cl[i] = 0
				i++
			}
		}
	}
	if cl[EndOfBlock] == 0 {
		// A block without an end-of-block code can never terminate.
		return RejectPrecodeData
	}

	// Distance code first: it is cheaper to validate (30 vs 286 symbols),
	// maximising early-exit value (paper §3.4.2: literal and distance
	// codes are only *initialized* after both were found valid).
	distLens := cl[nlit:total]
	// RFC 1951 reserves distance symbols 30 and 31: HDIST may declare
	// them, but a nonzero code length for either is invalid.
	for s := 30; s < len(distLens); s++ {
		if distLens[s] > 0 {
			return RejectDistInvalid
		}
	}
	if len(distLens) > 30 {
		distLens = distLens[:30]
	}
	distUsed := 0
	for _, l := range distLens {
		if l > 0 {
			distUsed++
		}
	}
	d.hasDist = distUsed > 0
	if distUsed > 0 {
		if err := huffman.Validate(distLens, distUsed == 1); err != nil {
			if err == huffman.ErrOversubscribed {
				return RejectDistInvalid
			}
			return RejectDistNonOptimal
		}
	}
	litLens := cl[:nlit]
	if err := huffman.Validate(litLens, false); err != nil {
		if err == huffman.ErrOversubscribed {
			return RejectLitInvalid
		}
		return RejectLitNonOptimal
	}

	// Both valid: build the decoding tables.
	d.fixed = false
	if err := d.dynLit.Init(litLens, false, litlenSymbols[:]); err != nil {
		return RejectLitInvalid
	}
	if distUsed > 0 {
		if err := d.dynDist.Init(distLens, distUsed == 1, distSymbols[:]); err != nil {
			return RejectDistInvalid
		}
	}
	return RejectNone
}

// ParseStoredHeader parses a Non-Compressed Block's length fields. The
// 3 header bits must already be consumed; it skips the padding and
// validates LEN against NLEN. It returns LEN and the bit offset of the
// LEN field.
func ParseStoredHeader(br *bitio.BitReader) (length int, lenPos uint64, err error) {
	br.AlignToByte()
	lenPos = br.BitPos()
	v, err := br.Read(32)
	if err != nil {
		return 0, 0, err
	}
	l := uint16(v)
	nl := uint16(v >> 16)
	if l != ^nl {
		return 0, 0, ErrCorrupt
	}
	return int(l), lenPos, nil
}
