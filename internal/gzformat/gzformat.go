// Package gzformat parses and writes the gzip container format
// (RFC 1952): member headers, footers (CRC32 + ISIZE) and the BGZF
// extra-field convention used by bgzip (paper §3.4.4). Deflate itself
// lives in internal/deflate; this package only handles the byte-aligned
// wrapper around it.
package gzformat

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"

	"repro/internal/bitio"
)

// Gzip header constants (RFC 1952).
const (
	ID1 = 0x1F
	ID2 = 0x8B
	CM  = 8 // deflate

	flagText    = 1 << 0
	flagHdrCRC  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// ErrNotGzip reports a missing or malformed gzip magic/header.
var ErrNotGzip = errors.New("gzformat: not a gzip stream")

// Header holds the parsed fields of one gzip member header.
type Header struct {
	ModTime  uint32
	XFL      byte
	OS       byte
	Name     string
	Comment  string
	Extra    []byte
	Text     bool
	HeaderSz int // total encoded size in bytes

	// BGZFBlockSize is the total compressed size of this gzip member as
	// declared by a BGZF "BC" extra subfield, or 0 when absent. This is
	// the metadata that makes BGZF files trivially parallelizable.
	BGZFBlockSize int
}

// Footer is the 8-byte gzip member trailer.
type Footer struct {
	CRC32 uint32
	ISize uint32 // uncompressed size mod 2^32
}

// ParseHeader reads a gzip member header from br. The reader may be at
// an arbitrary bit position (e.g. right after a preceding member's
// footer parsed mid-chunk); gzip headers are byte-sized but the bit
// reader handles the framing.
func ParseHeader(br *bitio.BitReader) (Header, error) {
	var h Header
	b := func() (byte, error) { return br.ReadByte() }

	id1, err := b()
	if err != nil {
		return h, err
	}
	id2, err := b()
	if err != nil {
		return h, err
	}
	cm, err := b()
	if err != nil {
		return h, err
	}
	if id1 != ID1 || id2 != ID2 || cm != CM {
		return h, ErrNotGzip
	}
	// The reserved flag bits (0xE0) announce nothing to parse. RFC 1952
	// asks a decoder to refuse a member that sets one, as zlib and GNU
	// gzip do; compress/gzip ignores them and decodes the member, and so
	// does this, so that a damaged bit there costs no data.
	flg, err := b()
	if err != nil {
		return h, err
	}
	var fixed [6]byte
	for i := range fixed {
		fixed[i], err = b()
		if err != nil {
			return h, err
		}
	}
	h.ModTime = binary.LittleEndian.Uint32(fixed[0:4])
	h.XFL = fixed[4]
	h.OS = fixed[5]
	h.Text = flg&flagText != 0
	size := 10

	if flg&flagExtra != 0 {
		lo, err := b()
		if err != nil {
			return h, err
		}
		hi, err := b()
		if err != nil {
			return h, err
		}
		xlen := int(lo) | int(hi)<<8
		h.Extra = make([]byte, xlen)
		for i := 0; i < xlen; i++ {
			h.Extra[i], err = b()
			if err != nil {
				return h, err
			}
		}
		size += 2 + xlen
		h.BGZFBlockSize = parseBGZFExtra(h.Extra)
	}
	if flg&flagName != 0 {
		s, n, err := readCString(br)
		if err != nil {
			return h, err
		}
		h.Name = s
		size += n
	}
	if flg&flagComment != 0 {
		s, n, err := readCString(br)
		if err != nil {
			return h, err
		}
		h.Comment = s
		size += n
	}
	if flg&flagHdrCRC != 0 {
		if _, err := b(); err != nil {
			return h, err
		}
		if _, err := b(); err != nil {
			return h, err
		}
		size += 2
	}
	h.HeaderSz = size
	return h, nil
}

func readCString(br *bitio.BitReader) (string, int, error) {
	var buf []byte
	for {
		c, err := br.ReadByte()
		if err != nil {
			return "", 0, err
		}
		if c == 0 {
			return string(buf), len(buf) + 1, nil
		}
		if len(buf) > 1<<16 {
			return "", 0, errors.New("gzformat: unterminated header string")
		}
		buf = append(buf, c)
	}
}

// parseBGZFExtra scans gzip extra subfields for the BGZF "BC" subfield
// and returns the declared total member size (BSIZE+1), or 0.
func parseBGZFExtra(extra []byte) int {
	for len(extra) >= 4 {
		si1, si2 := extra[0], extra[1]
		slen := int(binary.LittleEndian.Uint16(extra[2:4]))
		if len(extra) < 4+slen {
			return 0
		}
		if si1 == 'B' && si2 == 'C' && slen == 2 {
			return int(binary.LittleEndian.Uint16(extra[4:6])) + 1
		}
		extra = extra[4+slen:]
	}
	return 0
}

// ParseFooter reads the 8-byte member trailer. The reader must be
// byte-aligned (the deflate decoder aligns after the final block).
func ParseFooter(br *bitio.BitReader) (Footer, error) {
	var raw [8]byte
	if err := br.ReadFull(raw[:]); err != nil {
		return Footer{}, err
	}
	return Footer{
		CRC32: binary.LittleEndian.Uint32(raw[0:4]),
		ISize: binary.LittleEndian.Uint32(raw[4:8]),
	}, nil
}

// WriteHeaderOptions configures WriteHeader.
type WriteHeaderOptions struct {
	Name    string
	Comment string
	Extra   []byte
	ModTime uint32
	OS      byte
}

// WriteHeader emits a gzip member header and returns its size in bytes.
func WriteHeader(w io.Writer, opts WriteHeaderOptions) (int, error) {
	var flg byte
	if len(opts.Extra) > 0 {
		flg |= flagExtra
	}
	if opts.Name != "" {
		flg |= flagName
	}
	if opts.Comment != "" {
		flg |= flagComment
	}
	buf := make([]byte, 0, 32+len(opts.Extra)+len(opts.Name)+len(opts.Comment))
	buf = append(buf, ID1, ID2, CM, flg)
	buf = binary.LittleEndian.AppendUint32(buf, opts.ModTime)
	buf = append(buf, 0, opts.OS)
	if len(opts.Extra) > 0 {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(opts.Extra)))
		buf = append(buf, opts.Extra...)
	}
	if opts.Name != "" {
		buf = append(buf, opts.Name...)
		buf = append(buf, 0)
	}
	if opts.Comment != "" {
		buf = append(buf, opts.Comment...)
		buf = append(buf, 0)
	}
	n, err := w.Write(buf)
	return n, err
}

// WriteFooter emits the member trailer for data with the given CRC and
// uncompressed size.
func WriteFooter(w io.Writer, crc uint32, isize uint64) error {
	var raw [8]byte
	binary.LittleEndian.PutUint32(raw[0:4], crc)
	binary.LittleEndian.PutUint32(raw[4:8], uint32(isize))
	_, err := w.Write(raw[:])
	return err
}

// BGZFExtra builds the "BC" extra subfield declaring a total member size
// of bsize bytes.
func BGZFExtra(bsize int) []byte {
	extra := make([]byte, 6)
	extra[0], extra[1] = 'B', 'C'
	binary.LittleEndian.PutUint16(extra[2:4], 2)
	binary.LittleEndian.PutUint16(extra[4:6], uint16(bsize-1))
	return extra
}

// Kind is a compression container format recognisable from its leading
// bytes. The sniffer lives in this package because the hard case —
// telling BGZF apart from plain gzip — requires parsing the gzip header
// this package models; the other magics are trivial byte comparisons.
type Kind int

const (
	// KindUnknown means no supported magic matched.
	KindUnknown Kind = iota
	// KindGzip is a plain gzip/zlib-deflate file (RFC 1952).
	KindGzip
	// KindBGZF is gzip whose first member carries the BGZF "BC" extra
	// subfield — the blocked variant used by bgzip/htslib.
	KindBGZF
	// KindBzip2 is a bzip2 stream ("BZh" + level + block magic).
	KindBzip2
	// KindLZ4 is an LZ4 frame (magic 0x184D2204, little-endian).
	KindLZ4
	// KindZstd is a Zstandard frame (magic 0xFD2FB528, little-endian),
	// or a skippable frame (0x184D2A50–5F) leading a Zstandard file.
	KindZstd
)

// String names the kind the way the CLI's --format flag spells it.
func (k Kind) String() string {
	switch k {
	case KindGzip:
		return "gzip"
	case KindBGZF:
		return "bgzf"
	case KindBzip2:
		return "bzip2"
	case KindLZ4:
		return "lz4"
	case KindZstd:
		return "zstd"
	}
	return "unknown"
}

// SniffLen is the prefix size that suffices for Sniff to classify every
// supported format: a standard BGZF header is 18 bytes (12 fixed + the
// 6-byte "BC" subfield), and some writers put other subfields first, so
// a little headroom is kept. Shorter prefixes are fine — Sniff degrades
// to the formats it can still tell apart.
const SniffLen = 64

// Sniff classifies a file by its leading bytes. A gzip member whose
// extra field cannot be fully inspected within the prefix (oversized
// foreign subfields) is reported as plain gzip — the safe default,
// since BGZF handling is an optimisation, not a correctness split.
func Sniff(prefix []byte) Kind {
	if len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix) == 0xFD2FB528 {
		return KindZstd
	}
	if len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix)&^0xF == 0x184D2A50 {
		// A skippable frame: the range is shared by the LZ4 and
		// Zstandard frame specs, but only zstd tooling emits files that
		// lead with one, so classify as Zstandard (whose scanner skips
		// it and finds the data frames behind).
		return KindZstd
	}
	if len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix) == 0x184D2204 {
		return KindLZ4
	}
	if len(prefix) >= 4 && prefix[0] == 'B' && prefix[1] == 'Z' && prefix[2] == 'h' &&
		prefix[3] >= '1' && prefix[3] <= '9' {
		return KindBzip2
	}
	if len(prefix) >= 3 && prefix[0] == ID1 && prefix[1] == ID2 && prefix[2] == CM {
		if sniffBGZF(prefix) {
			return KindBGZF
		}
		return KindGzip
	}
	return KindUnknown
}

// sniffBGZF reports whether a gzip prefix carries the BGZF "BC" extra
// subfield in its first member header.
func sniffBGZF(prefix []byte) bool {
	if len(prefix) < 12 || prefix[3]&flagExtra == 0 {
		return false
	}
	xlen := int(binary.LittleEndian.Uint16(prefix[10:12]))
	extra := prefix[12:]
	if xlen < len(extra) {
		extra = extra[:xlen]
	}
	return parseBGZFExtra(extra) > 0
}

// UpdateCRC extends crc (0 to start) with p, matching RFC 1952's CRC32.
func UpdateCRC(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crc32.IEEETable, p)
}
