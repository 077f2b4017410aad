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
	n, err := decodeBlock(src, dst, 0)
	if err == nil && n != len(dst) {
		err = fmt.Errorf("%w: %d of %d bytes decoded", ErrCorrupt, n, len(dst))
	}
	return n, err
}

// Margins of decodeBlock's fast stretch.
const (
	// shortMatch is the longest match a token holds without extension
	// bytes; matchStore is what the stretch writes for one, three 8-byte
	// steps.
	shortMatch = 14 + minMatch
	matchStore = 24
	// fastIn is the input a sequence may load from its token on: the
	// token, then 16 bytes that hold up to 14 literals and the offset.
	fastIn = 1 + 16
	// fastRoom is the output it may store from dp on: 16 literal bytes of
	// which at most 14 count, then a match store behind those.
	fastRoom = 14 + matchStore
)

// decodeBlock decodes the LZ4 block src into dst from index start on
// and returns the number of bytes it produced, which may stop short of
// len(dst). dst[:start] is match history: offsets may reach into it
// (linked blocks), never before it.
//
// Loop discipline. A sequence is decoded by the fast stretch when, at
// its token, fastIn input bytes and fastRoom output bytes remain. Then a
// run of < 15 literals and a match of ≤ 18 bytes — the lengths a token
// holds without extension bytes — need no further size test: the
// literals are one 16-byte store and the match three 8-byte steps, right
// for every offset ≥ 8; what either writes past its length lies inside
// dst and is overwritten by the next sequence. With ≥ 17 input bytes and
// < 15 literals the literals cannot end the block, so the offset is
// always there to read. Longer runs and matches test their own length
// against what remains and go through copy; a match closer than 8 bytes
// replicates its period by doubling.
//
// The stretch commits a sequence (sp, dp) only once all of it checked
// out. Anything else — a zero or too-far offset, a length that does not
// fit, extension bytes running off the input — leaves sp at the token
// and falls through to the checked path below, which decodes that one
// sequence byte-exactly. It alone ends the block and it alone returns
// ErrCorrupt, so there is one place where verdicts are decided.
func decodeBlock(src, dst []byte, start int) (int, error) {
	sp, dp := 0, start
	for sp < len(src) {
		for sp+fastIn <= len(src) && dp+fastRoom <= len(dst) {
			token := src[sp]
			s, d := sp+1, dp
			litLen := int(token >> tokenLitSh)
			if litLen < 15 {
				store64(dst, d, load64(src, s))
				store64(dst, d+8, load64(src, s+8))
			} else {
				if litLen, s = readLen(src, s); litLen < 0 || litLen > len(src)-s-2 || litLen > len(dst)-d-matchStore {
					break
				}
				copy(dst[d:d+litLen], src[s:])
			}
			s += litLen
			d += litLen
			offset := int(binary.LittleEndian.Uint16(src[s:]))
			s += 2
			if offset == 0 || offset > d {
				break
			}
			matchLen := int(token&15) + minMatch
			if matchLen <= shortMatch && offset >= 8 {
				m := d - offset
				store64(dst, d, load64(dst, m))
				store64(dst, d+8, load64(dst, m+8))
				store64(dst, d+16, load64(dst, m+16))
			} else {
				if matchLen > shortMatch {
					if matchLen, s = readLen(src, s); matchLen < 0 {
						break
					}
					matchLen += minMatch
				}
				if matchLen > len(dst)-d {
					break
				}
				copyMatch(dst, d, offset, matchLen)
			}
			sp, dp = s, d+matchLen
		}
		if sp == len(src) {
			break
		}

		// Checked path: one sequence, every length against what is left.
		token := src[sp]
		sp++
		litLen := int(token >> tokenLitSh)
		if litLen == 15 {
			if litLen, sp = readLen(src, sp); litLen < 0 {
				return dp - start, ErrCorrupt
			}
		}
		if litLen > len(src)-sp || litLen > len(dst)-dp {
			return dp - start, ErrCorrupt
		}
		copy(dst[dp:], src[sp:sp+litLen])
		sp += litLen
		dp += litLen
		if sp == len(src) {
			break // the terminating literals-only sequence
		}
		if sp+2 > len(src) {
			return dp - start, ErrCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[sp:]))
		sp += 2
		if offset == 0 || offset > dp {
			return dp - start, ErrCorrupt
		}
		matchLen := int(token & 15)
		if matchLen == 15 {
			if matchLen, sp = readLen(src, sp); matchLen < 0 {
				return dp - start, ErrCorrupt
			}
		}
		matchLen += minMatch
		if matchLen > len(dst)-dp {
			return dp - start, ErrCorrupt
		}
		copyMatch(dst, dp, offset, matchLen)
		dp += matchLen
	}
	return dp - start, nil
}

// readLen reads the extension bytes of a length whose token nibble was
// 15, starting at src[sp]: each adds its value, the first below 255
// ends the run. It returns the length and the position after it, or a
// negative length when the input ends first.
func readLen(src []byte, sp int) (int, int) {
	v := 15
	for sp < len(src) {
		b := src[sp]
		sp++
		v += int(b)
		if b != 255 {
			return v, sp
		}
	}
	return -1, sp
}

func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i : i+8 : i+8]) }

func store64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[i:i+8:i+8], v) }

// copyMatch copies the n bytes that lie offset back from dst[d] to
// dst[d:d+n] and writes nothing else. A match that overlaps itself
// (offset < n) repeats its period: the period is copied once and what
// has been written is doubled until n bytes are there.
func copyMatch(dst []byte, d, offset, n int) {
	if offset >= n {
		copy(dst[d:d+n], dst[d-offset:])
		return
	}
	out := dst[d : d+n]
	for k := copy(out, dst[d-offset:d]); k < n; {
		k += copy(out[k:], out[:k])
	}
}
