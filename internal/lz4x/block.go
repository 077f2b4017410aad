// Package lz4x implements the LZ4 block and frame formats from
// scratch: a hash-table LZ77 compressor, a bounds-checked block
// decompressor, the frame container with xxHash32 checksums, a serial
// Decompress that is the reference, and Codec: the header walk and the
// one-frame decode under which the shared span engine decompresses
// frames in parallel and serves random access. The package has no reader
// of its own: the root package opens an LZ4 file as
// spanengine.New(src, Codec{}, cfg).
//
// In the reproduction, lz4x plays two roles from the paper's Table 4:
// the serial "lz4" row (fast LZ with modest ratio), and — via files
// holding many independent frames that each declare their content size
// — the "pzstd" analog: a format whose metadata makes parallel
// decompression trivial, against which the rapidgzip architecture is
// compared (§4.9).
package lz4x

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Block format constants.
const (
	minMatch   = 4  // shortest encodable match
	mfLimit    = 12 // matches must start this many bytes before the end
	lastLits   = 5  // the final bytes are always literals
	maxOffset  = 65535
	hashLog    = 16
	hashShift  = 32 - hashLog
	hashPrime  = 2654435761
	tokenLitSh = 4
)

// ErrCorrupt reports a malformed LZ4 block.
var ErrCorrupt = errors.New("lz4x: corrupt block")

// ErrDstTooSmall reports an undersized destination buffer.
var ErrDstTooSmall = errors.New("lz4x: destination too small")

// CompressBlockBound returns the maximum compressed size of a block of
// n input bytes (the worst case is incompressible data).
func CompressBlockBound(n int) int {
	return n + n/255 + 16
}

func blockHash(v uint32) uint32 {
	return (v * hashPrime) >> hashShift
}

// CompressBlock compresses src into the LZ4 block format and returns
// the compressed bytes (appended to dst, which may be nil).
func CompressBlock(src, dst []byte) []byte {
	var table [1 << hashLog]int32
	for i := range table {
		table[i] = -1
	}
	n := len(src)
	anchor := 0
	pos := 0

	emitSeq := func(litEnd, matchLen, offset int) {
		litLen := litEnd - anchor
		token := byte(0)
		if litLen >= 15 {
			token = 15 << tokenLitSh
		} else {
			token = byte(litLen) << tokenLitSh
		}
		if matchLen > 0 {
			ml := matchLen - minMatch
			if ml >= 15 {
				token |= 15
			} else {
				token |= byte(ml)
			}
		}
		dst = append(dst, token)
		if litLen >= 15 {
			for rest := litLen - 15; ; rest -= 255 {
				if rest >= 255 {
					dst = append(dst, 255)
				} else {
					dst = append(dst, byte(rest))
					break
				}
			}
		}
		dst = append(dst, src[anchor:litEnd]...)
		if matchLen > 0 {
			dst = append(dst, byte(offset), byte(offset>>8))
			if ml := matchLen - minMatch; ml >= 15 {
				for rest := ml - 15; ; rest -= 255 {
					if rest >= 255 {
						dst = append(dst, 255)
					} else {
						dst = append(dst, byte(rest))
						break
					}
				}
			}
		}
	}

	if n >= mfLimit {
		limit := n - mfLimit
		matchLimit := n - lastLits
		for pos <= limit {
			v := binary.LittleEndian.Uint32(src[pos:])
			h := blockHash(v)
			cand := int(table[h])
			table[h] = int32(pos)
			if cand < 0 || pos-cand > maxOffset || binary.LittleEndian.Uint32(src[cand:]) != v {
				pos++
				continue
			}
			// Extend the match forward.
			mlen := minMatch
			for pos+mlen < matchLimit && src[cand+mlen] == src[pos+mlen] {
				mlen++
			}
			// Extend backward over pending literals.
			for pos > anchor && cand > 0 && src[cand-1] == src[pos-1] {
				pos--
				cand--
				mlen++
			}
			emitSeq(pos, mlen, pos-cand)
			pos += mlen
			anchor = pos
			if pos <= limit {
				table[blockHash(binary.LittleEndian.Uint32(src[pos-2:]))] = int32(pos - 2)
			}
		}
	}
	// Final literals-only sequence.
	emitSeq(n, 0, 0)
	return dst
}

// DecompressBlock decompresses an LZ4 block into dst, which must have
// the exact decompressed length. It returns the number of bytes
// written.
func DecompressBlock(src, dst []byte) (int, error) {
	sp, dp := 0, 0
	readLen := func(base int) (int, error) {
		v := base
		for {
			if sp >= len(src) {
				return 0, ErrCorrupt
			}
			b := src[sp]
			sp++
			v += int(b)
			if b != 255 {
				return v, nil
			}
		}
	}
	for sp < len(src) {
		token := src[sp]
		sp++
		litLen := int(token >> tokenLitSh)
		if litLen == 15 {
			var err error
			if litLen, err = readLen(15); err != nil {
				return dp, err
			}
		}
		if sp+litLen > len(src) || dp+litLen > len(dst) {
			return dp, ErrCorrupt
		}
		copy(dst[dp:], src[sp:sp+litLen])
		sp += litLen
		dp += litLen
		if sp == len(src) {
			// Terminating literals-only sequence.
			if dp != len(dst) {
				return dp, fmt.Errorf("%w: %d of %d bytes decoded", ErrCorrupt, dp, len(dst))
			}
			return dp, nil
		}
		if sp+2 > len(src) {
			return dp, ErrCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[sp:]))
		sp += 2
		if offset == 0 || offset > dp {
			return dp, ErrCorrupt
		}
		matchLen := int(token & 15)
		if matchLen == 15 {
			var err error
			if matchLen, err = readLen(15); err != nil {
				return dp, err
			}
		}
		matchLen += minMatch
		if dp+matchLen > len(dst) {
			return dp, ErrCorrupt
		}
		// Overlapping copies must run byte-by-byte (offset < matchLen
		// replicates the period).
		m := dp - offset
		for i := 0; i < matchLen; i++ {
			dst[dp+i] = dst[m+i]
		}
		dp += matchLen
	}
	if dp != len(dst) {
		return dp, fmt.Errorf("%w: %d of %d bytes decoded", ErrCorrupt, dp, len(dst))
	}
	return dp, nil
}
