package zstdx

import (
	"encoding/binary"
	"math/bits"
)

// revBitReader reads a zstd bitstream backwards: the stream is written
// forward LSB-first, terminated by a 1-bit sentinel in its last byte,
// and consumed from the end. Fields come back in reverse write order,
// which is how every entropy-coded payload in the format (FSE states,
// Huffman codes, sequence extra bits) is laid out.
type revBitReader struct {
	data      []byte
	totalBits int // bits below the sentinel
	consumed  int
	// win caches the 8-byte little-endian window at bit offset winOff*8,
	// so consecutive reads (which walk downward) cost a shift and mask
	// instead of an 8-byte reload with bounds checks each.
	win    uint64
	winOff int
}

func newRevBitReader(data []byte) (revBitReader, error) {
	if len(data) == 0 || data[len(data)-1] == 0 {
		return revBitReader{}, errCorrupt("bitstream missing sentinel")
	}
	pad := bits.LeadingZeros8(data[len(data)-1]) + 1
	r := revBitReader{data: data, totalBits: len(data)*8 - pad}
	r.reload(max(0, len(data)-8))
	return r, nil
}

// reload caches the window at byte offset byteOff, zero-padding reads
// past the end of data.
func (r *revBitReader) reload(byteOff int) {
	if byteOff+8 <= len(r.data) {
		r.win = binary.LittleEndian.Uint64(r.data[byteOff:])
	} else {
		var buf [8]byte
		copy(buf[:], r.data[byteOff:])
		r.win = binary.LittleEndian.Uint64(buf[:])
	}
	r.winOff = byteOff
}

// overflowed reports reads past the start of the stream — the end
// condition for self-delimiting payloads (FSE-compressed weights) and a
// corruption signal everywhere else.
func (r *revBitReader) overflowed() bool { return r.consumed > r.totalBits }

// finished reports exact consumption; the format requires it of every
// entropy payload with a known symbol count.
func (r *revBitReader) finished() bool { return r.consumed == r.totalBits }

// peek returns the next n (≤ 32) bits without consuming them,
// zero-filling past the start of the stream.
func (r *revBitReader) peek(n int) uint32 {
	if n == 0 {
		return 0
	}
	start := r.totalBits - r.consumed - n
	shift := 0
	if start < 0 {
		shift = -start
		n -= shift
		if n <= 0 {
			return 0
		}
		start = 0
	}
	off := start - r.winOff<<3
	if off < 0 || off+n > 64 {
		r.reload(start >> 3)
		off = start & 7
	}
	return uint32(r.win>>uint(off)&(1<<uint(n)-1)) << shift
}

// read consumes and returns the next n (≤ 32) bits.
func (r *revBitReader) read(n int) uint32 {
	v := r.peek(n)
	r.consumed += n
	return v
}

// extractBits reads n (≤ 32) bits at absolute bit position start,
// LSB-first within the forward byte order.
func extractBits(data []byte, start, n int) uint32 {
	byteOff := start >> 3
	var window uint64
	if byteOff+8 <= len(data) {
		window = binary.LittleEndian.Uint64(data[byteOff:])
	} else {
		var buf [8]byte
		copy(buf[:], data[byteOff:])
		window = binary.LittleEndian.Uint64(buf[:])
	}
	return uint32(window >> (start & 7) & (uint64(1)<<n - 1))
}

// fwdBitReader reads bits LSB-first in forward byte order — the layout
// of FSE table descriptions (the only forward-coded bit payload).
type fwdBitReader struct {
	data []byte
	pos  int // in bits
}

func (r *fwdBitReader) read(n int) (uint32, bool) {
	if r.pos+n > len(r.data)*8 {
		return 0, false
	}
	v := extractBits(r.data, r.pos, n)
	r.pos += n
	return v, true
}

func (r *fwdBitReader) rewind(n int) { r.pos -= n }

// bytesConsumed returns the byte-aligned length of what was read.
func (r *fwdBitReader) bytesConsumed() int { return (r.pos + 7) / 8 }

// bitWriter builds a forward LSB-first bitstream; close appends the
// sentinel bit the backward reader looks for.
type bitWriter struct {
	out   []byte
	acc   uint64
	nbits int
}

// addBits appends the low n (≤ 32) bits of v. Whole 32-bit words go
// out as they fill, so fewer than 32 bits are ever held back.
func (w *bitWriter) addBits(v uint32, n int) {
	w.acc |= uint64(v) & (1<<n - 1) << w.nbits
	w.nbits += n
	if w.nbits >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.nbits -= 32
	}
}

func (w *bitWriter) close() []byte {
	w.addBits(1, 1)
	return w.flush()
}

// flush appends the last partial byte, zero-padded and with no
// sentinel: the end of a forward-read payload (an FSE table
// description).
func (w *bitWriter) flush() []byte {
	for ; w.nbits > 0; w.nbits -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	w.acc, w.nbits = 0, 0
	return w.out
}
