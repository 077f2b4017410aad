// Package bitio provides bit-granular readers and writers over byte
// streams using the LSB-first bit order mandated by the Deflate format
// (RFC 1951): bits are consumed from the least-significant end of each
// byte, and multi-bit fields are assembled with the earliest bit in the
// least-significant position.
//
// BitReader is the performance-critical substrate of the whole
// decompressor: the Deflate decoder, the block finder and the chunk
// fetcher all pull their input through it (paper §4.1, Figure 7).
package bitio

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrSeekOutOfRange is returned by SeekBits for a position outside the
// underlying source.
var ErrSeekOutOfRange = errors.New("bitio: seek position out of range")

// defaultBufSize is the refill granularity when reading from an
// io.ReaderAt source. 128 KiB matches the stride used by the paper's
// SharedFileReader benchmark and amortises pread syscalls well.
const defaultBufSize = 128 * 1024

// maxReadBits is the largest count accepted by Read and Peek. The bit
// buffer holds at least 57 valid bits after a refill, which covers the
// largest unit any caller needs in one call (the 57-bit precode field of
// a Dynamic Block header, paper §3.4.2).
const maxReadBits = 57

// BitReader reads an LSB-first bit stream from an in-memory buffer or an
// io.ReaderAt. It supports seeking to arbitrary *bit* offsets, which is
// what lets decompression start in the middle of a Deflate stream.
//
// A BitReader is not safe for concurrent use; the parallel decompressor
// gives every worker its own instance (paper §4.1).
type BitReader struct {
	src  io.ReaderAt // nil when reading a fixed in-memory buffer
	size int64       // total size of the source in bytes

	buf      []byte // current window of the source
	bufStart int64  // byte offset of buf[0] within the source
	pos      int    // index in buf of the next byte to load into bits

	bits  uint64 // bit accumulator; next stream bit is bit 0
	nbits uint   // number of valid bits in bits
}

// NewBitReader returns a BitReader over an io.ReaderAt of the given size
// in bytes. The reader refills an internal buffer with ReadAt calls and
// therefore never mutates shared state in src, so many BitReaders may
// share one src concurrently.
func NewBitReader(src io.ReaderAt, size int64) *BitReader {
	return NewBitReaderSize(src, size, defaultBufSize)
}

// NewBitReaderSize is NewBitReader with a refill window of the caller's
// choosing, for readers that stop long before size and should not have
// read far past where they stopped.
func NewBitReaderSize(src io.ReaderAt, size int64, window int) *BitReader {
	return &BitReader{src: src, size: size, buf: make([]byte, 0, window)}
}

// NewBitReaderBytes returns a BitReader over data without copying it.
func NewBitReaderBytes(data []byte) *BitReader {
	return &BitReader{size: int64(len(data)), buf: data}
}

// Reset repositions the reader at bit 0 of data, reusing the receiver.
func (r *BitReader) Reset(data []byte) {
	r.src = nil
	r.size = int64(len(data))
	r.buf = data
	r.bufStart = 0
	r.pos = 0
	r.bits = 0
	r.nbits = 0
}

// Size returns the size of the underlying source in bytes.
func (r *BitReader) Size() int64 { return r.size }

// BitPos returns the absolute position of the next unread bit.
func (r *BitReader) BitPos() uint64 {
	return uint64(r.bufStart+int64(r.pos))*8 - uint64(r.nbits)
}

// refillBuf loads the next window from src. It reports whether any new
// bytes became available.
func (r *BitReader) refillBuf() bool {
	if r.src == nil {
		return false
	}
	next := r.bufStart + int64(len(r.buf))
	if next >= r.size {
		return false
	}
	n := min(r.size-next, int64(cap(r.buf)))
	r.buf = r.buf[:n]
	read, err := r.src.ReadAt(r.buf, next)
	if read == 0 && err != nil {
		r.buf = r.buf[:0]
		return false
	}
	r.buf = r.buf[:read]
	r.bufStart = next
	r.pos = 0
	return read > 0
}

// fill tops up the bit accumulator to at least 57 bits or until the
// source is exhausted.
func (r *BitReader) fill() {
	for {
		if r.pos+8 <= len(r.buf) && r.nbits <= 0 {
			r.bits = binary.LittleEndian.Uint64(r.buf[r.pos:])
			r.pos += 8
			r.nbits = 64
			return
		}
		if r.pos+4 <= len(r.buf) && r.nbits <= 32 {
			r.bits |= uint64(binary.LittleEndian.Uint32(r.buf[r.pos:])) << r.nbits
			r.pos += 4
			r.nbits += 32
			if r.nbits >= maxReadBits {
				return
			}
			continue
		}
		if r.pos < len(r.buf) {
			if r.nbits > 56 {
				return
			}
			r.bits |= uint64(r.buf[r.pos]) << r.nbits
			r.pos++
			r.nbits += 8
			continue
		}
		if !r.refillBuf() {
			return
		}
	}
}

// Read consumes and returns the next n bits (0 < n <= 57) as an
// LSB-first integer. It returns io.ErrUnexpectedEOF when fewer than n
// bits remain.
func (r *BitReader) Read(n uint) (uint64, error) {
	if r.nbits < n {
		r.fill()
		if r.nbits < n {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := r.bits & (1<<n - 1)
	r.bits >>= n
	r.nbits -= n
	return v, nil
}

// Peek returns up to n bits (n <= 57) without consuming them, along with
// the number of bits actually available. Missing bits near end of stream
// are zero-padded, which is the convention Huffman decoders rely on.
func (r *BitReader) Peek(n uint) (v uint64, avail uint) {
	if r.nbits < n {
		r.fill()
	}
	avail = r.nbits
	if avail > n {
		avail = n
	}
	return r.bits & (1<<n - 1), avail
}

// Skip consumes n bits, which must not exceed the number remaining.
func (r *BitReader) Skip(n uint) error {
	for n > r.nbits {
		n -= r.nbits
		r.bits = 0
		r.nbits = 0
		r.fill()
		if r.nbits == 0 {
			return io.ErrUnexpectedEOF
		}
	}
	r.bits >>= n
	r.nbits -= n
	return nil
}

// View exposes the buffered source window and the accumulator state for
// inlined hot loops. The caller decodes on local copies — refilling the
// accumulator straight from buf with 8-byte loads while pos+8 <=
// len(buf) — and must Commit the advanced state before calling any
// other method of r. The contract mirrors the wide-refill discipline:
//
//	bits |= binary.LittleEndian.Uint64(buf[pos:]) << nbits
//	pos += int((63 - nbits) >> 3)
//	nbits |= 56
//
// which tops the accumulator up to 56..63 valid bits per iteration.
// Bits of buf[pos:] beyond nbits may be OR-ed into bits redundantly
// across refills; the alignment invariant (bit i of buf[pos] sits at
// accumulator position nbits+i) makes that idempotent.
func (r *BitReader) View() (buf []byte, pos int, bits uint64, nbits uint) {
	return r.buf, r.pos, r.bits, r.nbits
}

// Commit stores fast-loop state advanced from View back into the
// reader. nbits must be < 64; bits above nbits are masked off so the
// slow-path fill() can rebuild them from buf.
func (r *BitReader) Commit(pos int, bits uint64, nbits uint) {
	r.pos = pos
	r.bits = bits & (1<<nbits - 1)
	r.nbits = nbits
}

// AlignToByte discards bits up to the next byte boundary and returns the
// number of bits skipped (0..7).
func (r *BitReader) AlignToByte() uint {
	n := r.nbits & 7
	r.bits >>= n
	r.nbits -= n
	return n
}

// SeekBits repositions the reader at the absolute bit offset off.
func (r *BitReader) SeekBits(off uint64) error {
	if off > uint64(r.size)*8 {
		return ErrSeekOutOfRange
	}
	byteOff := int64(off / 8)
	bitRem := uint(off % 8)
	if r.src == nil {
		r.pos = int(byteOff)
		r.bits = 0
		r.nbits = 0
	} else if byteOff >= r.bufStart && byteOff <= r.bufStart+int64(len(r.buf)) {
		r.pos = int(byteOff - r.bufStart)
		r.bits = 0
		r.nbits = 0
	} else {
		r.buf = r.buf[:0]
		r.bufStart = byteOff
		r.pos = 0
		r.bits = 0
		r.nbits = 0
	}
	if bitRem > 0 {
		if err := r.Skip(bitRem); err != nil {
			return err
		}
	}
	return nil
}

// ReadFull fills p with the next len(p) bytes. The reader must be
// byte-aligned; Non-Compressed Deflate blocks guarantee this after their
// padding is skipped, and the gzip header/footer are byte-aligned by
// construction. This is the fast path the paper's stored-block copy
// relies on (§3.3).
func (r *BitReader) ReadFull(p []byte) error {
	if r.nbits&7 != 0 {
		return errors.New("bitio: ReadFull requires byte alignment")
	}
	n := 0
	// Drain whole bytes already in the accumulator.
	for r.nbits >= 8 && n < len(p) {
		p[n] = byte(r.bits)
		r.bits >>= 8
		r.nbits -= 8
		n++
	}
	for n < len(p) {
		if r.pos >= len(r.buf) {
			if !r.refillBuf() {
				return io.ErrUnexpectedEOF
			}
		}
		c := copy(p[n:], r.buf[r.pos:])
		r.pos += c
		n += c
	}
	return nil
}

// ReadByte consumes the next 8 bits as a byte. Unlike ReadFull it does
// not require alignment; gzip header parsing after a bit-offset seek
// uses it.
func (r *BitReader) ReadByte() (byte, error) {
	v, err := r.Read(8)
	return byte(v), err
}

// RemainingBits returns the number of unread bits in the source.
func (r *BitReader) RemainingBits() uint64 {
	return uint64(r.size)*8 - r.BitPos()
}
