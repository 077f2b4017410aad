package blockfinder

import (
	"bytes"
	"compress/flate"
	"io"

	"repro/internal/bitio"
	"repro/internal/deflate"
)

// Finder returns candidate Deflate block start offsets in a buffer.
type Finder interface {
	// Next returns the first candidate bit offset at or after fromBit,
	// or ok=false when no candidate exists in data.
	Next(data []byte, fromBit uint64) (bit uint64, ok bool)
}

// --- "DBF rapidgzip": skip-LUT + bit-parallel precode histogram ------

// DynamicFinder is the fully optimised Dynamic Block finder (paper
// §3.4.2, "DBF rapidgzip" in Table 2): a 14-bit skip table, a single
// 57-bit read of the precode, bit-parallel histogram construction, a
// 20-bit validity lookup, and only then the full header parse.
type DynamicFinder struct {
	br, deep *bitio.BitReader
	dec      deflate.Decoder
}

// NewDynamicFinder returns a reusable DynamicFinder.
func NewDynamicFinder() *DynamicFinder {
	return &DynamicFinder{
		br:   bitio.NewBitReaderBytes(nil),
		deep: bitio.NewBitReaderBytes(nil),
	}
}

// Next implements Finder.
func (f *DynamicFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	total := uint64(len(data)) * 8
	if fromBit+13 > total {
		return 0, false
	}
	br := f.br
	br.Reset(data)
	if err := br.SeekBits(fromBit); err != nil {
		return 0, false
	}
	off := fromBit
	for off+13 <= total {
		v, _ := br.Peek(14) // zero-padded near EOF; deep check catches it
		s := uint(skipLUT[v])
		if s > 0 {
			if off+uint64(s) > total {
				return 0, false
			}
			br.Skip(s)
			off += uint64(s)
			continue
		}
		if f.check(data, off) == deflate.RejectNone {
			return off, true
		}
		br.Skip(1)
		off++
	}
	return 0, false
}

// check runs the deep checks at a position whose 13-bit prefix passed.
func (f *DynamicFinder) check(data []byte, off uint64) deflate.RejectReason {
	r := f.precodeQuickCheck(data, off)
	if r != deflate.RejectNone {
		return r
	}
	// Full parse (precode decode, distance and literal code checks).
	// Partly duplicated work, but only on the rare near-hits (§3.4.2).
	deep := f.deep
	deep.Reset(data)
	if err := deep.SeekBits(off + 3); err != nil {
		return deflate.RejectEOF
	}
	f.dec.Reset(deep)
	return f.dec.ParseDynamicHeader()
}

// precodeQuickCheck reads HCLEN and up to 57 precode bits in one go and
// validates the histogram with the packed LUTs.
func (f *DynamicFinder) precodeQuickCheck(data []byte, off uint64) deflate.RejectReason {
	deep := f.deep
	deep.Reset(data)
	if err := deep.SeekBits(off + 13); err != nil {
		return deflate.RejectEOF
	}
	hclen, err := deep.Read(4)
	if err != nil {
		return deflate.RejectEOF
	}
	n := int(hclen) + 4
	bits, avail := deep.Peek(57)
	if int(avail) < 3*n {
		return deflate.RejectEOF
	}
	hist := packedHistogram(bits, n)
	switch checkPackedHistogramLUT(hist) {
	case precodeOversubscribed:
		return deflate.RejectPrecodeInvalid
	case precodeNonOptimal:
		return deflate.RejectPrecodeNonOptimal
	}
	return deflate.RejectNone
}

// --- "DBF skip-LUT": skip table + plain header parse ------------------

// SkipLUTFinder uses the 14-bit skip table for pre-filtering but the
// plain Deflate header parser for everything else ("DBF skip-LUT").
type SkipLUTFinder struct {
	br, deep *bitio.BitReader
	dec      deflate.Decoder
}

// NewSkipLUTFinder returns a reusable SkipLUTFinder.
func NewSkipLUTFinder() *SkipLUTFinder {
	return &SkipLUTFinder{br: bitio.NewBitReaderBytes(nil), deep: bitio.NewBitReaderBytes(nil)}
}

// Next implements Finder.
func (f *SkipLUTFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	total := uint64(len(data)) * 8
	if fromBit+13 > total {
		return 0, false
	}
	br := f.br
	br.Reset(data)
	if err := br.SeekBits(fromBit); err != nil {
		return 0, false
	}
	off := fromBit
	for off+13 <= total {
		v, _ := br.Peek(14)
		s := uint(skipLUT[v])
		if s > 0 {
			if off+uint64(s) > total {
				return 0, false
			}
			br.Skip(s)
			off += uint64(s)
			continue
		}
		deep := f.deep
		deep.Reset(data)
		deep.SeekBits(off + 3)
		f.dec.Reset(deep)
		if f.dec.ParseDynamicHeader() == deflate.RejectNone {
			return off, true
		}
		br.Skip(1)
		off++
	}
	return 0, false
}

// --- "DBF custom deflate": trial parse at every offset ----------------

// TrialCustomFinder tries the full custom header parse at every bit
// offset ("DBF custom deflate" in Table 2).
type TrialCustomFinder struct {
	br  *bitio.BitReader
	dec deflate.Decoder
}

// NewTrialCustomFinder returns a reusable TrialCustomFinder.
func NewTrialCustomFinder() *TrialCustomFinder {
	return &TrialCustomFinder{br: bitio.NewBitReaderBytes(nil)}
}

// Next implements Finder.
func (f *TrialCustomFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	total := uint64(len(data)) * 8
	br := f.br
	for off := fromBit; off+13 <= total; off++ {
		br.Reset(data)
		br.SeekBits(off)
		final, typ, err := deflate.ParseBlockHeader(br)
		if err != nil || final || typ != deflate.BlockDynamic {
			continue
		}
		f.dec.Reset(br)
		if f.dec.ParseDynamicHeader() == deflate.RejectNone {
			return off, true
		}
	}
	return 0, false
}

// --- "Pugz block finder": explicit pre-checks, no LUTs ----------------

// PugzFinder emulates pugz's block finder: explicit cheap checks on the
// first header bits before the full parse, but no lookup tables.
type PugzFinder struct {
	br, deep *bitio.BitReader
	dec      deflate.Decoder
}

// NewPugzFinder returns a reusable PugzFinder.
func NewPugzFinder() *PugzFinder {
	return &PugzFinder{br: bitio.NewBitReaderBytes(nil), deep: bitio.NewBitReaderBytes(nil)}
}

// Next implements Finder.
func (f *PugzFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	total := uint64(len(data)) * 8
	br := f.br
	br.Reset(data)
	if err := br.SeekBits(fromBit); err != nil {
		return 0, false
	}
	for off := fromBit; off+13 <= total; off++ {
		v, _ := br.Peek(8)
		// final=0, type=dynamic, HLIT not 30/31.
		if v&1 == 1 || v>>1&3 != 2 || v>>4&0xF == 0xF {
			br.Skip(1)
			continue
		}
		deep := f.deep
		deep.Reset(data)
		deep.SeekBits(off + 3)
		f.dec.Reset(deep)
		if f.dec.ParseDynamicHeader() == deflate.RejectNone {
			return off, true
		}
		br.Skip(1)
	}
	return 0, false
}

// --- "DBF zlib": trial inflation with the standard library ------------

// TrialFlateFinder is the slowest baseline ("DBF zlib" in Table 2): at
// every bit offset it byte-shifts the input and attempts real inflation
// with compress/flate, accepting offsets that decode without error.
type TrialFlateFinder struct {
	// ProbeIn/ProbeOut bound the work per offset.
	ProbeIn, ProbeOut int
	shift             []byte
	out               []byte
	dict              []byte
}

// NewTrialFlateFinder returns a TrialFlateFinder with default probes.
func NewTrialFlateFinder() *TrialFlateFinder {
	return &TrialFlateFinder{
		ProbeIn:  2048,
		ProbeOut: 1024,
		// A dummy 32 KiB dictionary stands in for the unknown window so
		// that back-references beyond the probe start do not error — the
		// equivalent of priming zlib with inflateSetDictionary.
		dict: make([]byte, 32768),
	}
}

// Next implements Finder.
func (f *TrialFlateFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	total := uint64(len(data)) * 8
	if f.out == nil {
		f.out = make([]byte, f.ProbeOut)
	}
	for off := fromBit; off+13 <= total; off++ {
		window := f.shiftedWindow(data, off)
		// Require a dynamic non-final block so the comparison against the
		// other finders is apples-to-apples.
		if len(window) == 0 || window[0]&1 == 1 || window[0]>>1&3 != 2 {
			continue
		}
		fr := flate.NewReaderDict(bytes.NewReader(window), f.dict)
		n, err := io.ReadFull(fr, f.out)
		fr.Close()
		if err == nil || ((err == io.ErrUnexpectedEOF || err == io.EOF) && n > 0) {
			return off, true
		}
	}
	return 0, false
}

func (f *TrialFlateFinder) shiftedWindow(data []byte, off uint64) []byte {
	b := int(off / 8)
	k := uint(off % 8)
	end := b + f.ProbeIn
	if end > len(data) {
		end = len(data)
	}
	if k == 0 {
		return data[b:end]
	}
	if cap(f.shift) < f.ProbeIn {
		f.shift = make([]byte, f.ProbeIn)
	}
	w := f.shift[:0]
	for i := b; i < end; i++ {
		v := data[i] >> k
		if i+1 < len(data) {
			v |= data[i+1] << (8 - k)
		}
		w = append(w, v)
	}
	return w
}

// --- Non-Compressed Block finder ---------------------------------------

// StoredFinder locates Non-Compressed Block candidates (§3.4.1): a
// byte-aligned LEN/~NLEN pair preceded by a zero 3-bit header and zero
// padding. Offsets are canonicalised to byteBoundary-3 (the latest
// possible header position), matching the decoder's normalisation.
type StoredFinder struct{}

// Next implements Finder.
func (StoredFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	// Smallest i with i*8-3 >= fromBit.
	i := int((fromBit + 3 + 7) / 8)
	if i < 1 {
		i = 1
	}
	for ; i+4 <= len(data); i++ {
		if data[i-1]>>5 != 0 {
			continue
		}
		l := uint16(data[i]) | uint16(data[i+1])<<8
		nl := uint16(data[i+2]) | uint16(data[i+3])<<8
		if l == ^nl {
			return uint64(i)*8 - 3, true
		}
	}
	return 0, false
}

// --- Combined finder ----------------------------------------------------

// CombinedFinder merges the Dynamic and Non-Compressed finders,
// returning whichever candidate comes first (§3.4: "combined by finding
// candidates for both and returning the result with the lower offset").
type CombinedFinder struct {
	Dynamic Finder
	Stored  Finder
}

// NewCombinedFinder returns the production finder used by the parallel
// decompressor.
func NewCombinedFinder() *CombinedFinder {
	return &CombinedFinder{Dynamic: NewDynamicFinder(), Stored: StoredFinder{}}
}

// Next implements Finder.
func (f *CombinedFinder) Next(data []byte, fromBit uint64) (uint64, bool) {
	d, okd := f.Dynamic.Next(data, fromBit)
	if okd {
		// A stored candidate wins only below d, so its LEN/NLEN bytes end
		// within a few bytes of d's: scanning further finds nothing that
		// would be returned.
		data = data[:min(len(data), int(d/8)+8)]
	}
	s, oks := f.Stored.Next(data, fromBit)
	switch {
	case okd && oks:
		if s < d {
			return s, true
		}
		return d, true
	case okd:
		return d, true
	case oks:
		return s, true
	}
	return 0, false
}

// ScanAll collects every candidate in data (for tests and experiment
// harnesses). It caps the result at limit candidates (0 = unlimited).
func ScanAll(f Finder, data []byte, limit int) []uint64 {
	var out []uint64
	off := uint64(0)
	for {
		bit, ok := f.Next(data, off)
		if !ok {
			return out
		}
		out = append(out, bit)
		if limit > 0 && len(out) >= limit {
			return out
		}
		off = bit + 1
	}
}
