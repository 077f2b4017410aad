// Package gzipw is a from-scratch Deflate/gzip compressor used to create
// the paper's evaluation inputs with controlled block structure: plain
// gzip streams, pigz-style independently-compressed chunks joined by
// empty stored blocks, BGZF files with size metadata, and igzip -0 style
// single-huge-block streams (paper §4.4, §4.8, Table 3). It exists so
// the reproduction does not depend on external compression tools; its
// output is verified against the standard library's gzip reader.
package gzipw

import (
	"encoding/binary"
	"math/bits"
)

// Token encoding: literals are the byte value; matches set bit 31 and
// pack length-3 in bits 16..23 and distance-1 in bits 0..15.
type token uint32

const tokenMatch token = 1 << 31

func literalToken(b byte) token { return token(b) }

func matchToken(length, dist int) token {
	return tokenMatch | token(length-3)<<16 | token(dist-1)
}

func (t token) isMatch() bool { return t&tokenMatch != 0 }
func (t token) literal() byte { return byte(t) }
func (t token) length() int   { return int(t>>16&0xFF) + 3 }
func (t token) dist() int     { return int(t&0xFFFF) + 1 }

const (
	minMatch   = 3
	maxMatch   = 258
	maxDist    = 32768
	hashBits   = 15
	hashSize   = 1 << hashBits
	hashShift  = 32 - hashBits
	windowMask = maxDist - 1
)

// levelParams mirror zlib's configuration table: how greedily to search
// the hash chains per compression level. zlib's good_length (cut the
// chain short behind a good match) has no counterpart here.
type levelParams struct {
	lazy, nice, chain int
	useLazy           bool
}

var levels = [10]levelParams{
	{}, // 0 = stored only
	{lazy: 0, nice: 8, chain: 4},
	{lazy: 0, nice: 16, chain: 8},
	{lazy: 0, nice: 32, chain: 32},
	{lazy: 4, nice: 16, chain: 16, useLazy: true},
	{lazy: 16, nice: 32, chain: 32, useLazy: true},
	{lazy: 16, nice: 128, chain: 128, useLazy: true},
	{lazy: 32, nice: 128, chain: 256, useLazy: true},
	{lazy: 128, nice: 258, chain: 1024, useLazy: true},
	{lazy: 258, nice: 258, chain: 4096, useLazy: true},
}

type matcher struct {
	head [hashSize]int32
	prev [maxDist]int32
	p    levelParams
	// tok is the token scratch reused across blocks (and, via
	// matcherPool, across shards): tokenising a 128 KiB block grows a
	// multi-hundred-KiB slice, which dominated the encode path's GC
	// pressure when allocated fresh per block.
	tok []token
}

func newMatcher(level int) *matcher {
	m := &matcher{p: levels[level]}
	for i := range m.head {
		m.head[i] = -1
	}
	return m
}

// reset clears the dictionary; used between independent chunks
// (pigz-style compression resets state at chunk boundaries).
func (m *matcher) reset() {
	for i := range m.head {
		m.head[i] = -1
	}
}

func hash4(data []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(data[i:]) * 2654435761 >> hashShift
}

func (m *matcher) insert(data []byte, i int) {
	h := hash4(data, i)
	m.prev[i&windowMask] = m.head[h]
	m.head[h] = int32(i)
}

// findMatch returns the best match for position i, searching back to
// windowStart. Positions older than i-maxDist are unreachable.
func (m *matcher) findMatch(data []byte, i, end, windowStart int) (length, dist int) {
	limit := i - maxDist
	if limit < windowStart {
		limit = windowStart
	}
	maxLen := end - i
	if maxLen > maxMatch {
		maxLen = maxMatch
	}
	if maxLen < minMatch {
		return 0, 0
	}
	chain := m.p.chain
	nice := m.p.nice
	if nice > maxLen {
		nice = maxLen
	}
	best := minMatch - 1
	bestPos := -1
	cand := m.head[hash4(data, i)]
	for cand >= int32(limit) && chain > 0 {
		c := int(cand)
		if c >= i {
			// Stale entry from a previous (resetless) region; follow chain.
			cand = m.prev[c&windowMask]
			chain--
			continue
		}
		if data[c+best] == data[i+best] && data[c] == data[i] {
			n := matchLen(data, c, i, maxLen)
			if n > best {
				best = n
				bestPos = c
				if n >= nice {
					break
				}
			}
		}
		next := m.prev[c&windowMask]
		if next >= cand {
			break // cycle guard for stale ring entries
		}
		cand = next
		chain--
	}
	if bestPos < 0 {
		return 0, 0
	}
	return best, i - bestPos
}

func matchLen(data []byte, a, b, limit int) int {
	n := 0
	// Compare eight bytes per step while both runs stay in bounds; the
	// first differing byte falls out of the XOR's trailing zeros.
	for n+8 <= limit && b+n+8 <= len(data) {
		x := binary.LittleEndian.Uint64(data[a+n:]) ^ binary.LittleEndian.Uint64(data[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < limit && data[a+n] == data[b+n] {
		n++
	}
	return n
}

// appendTokens tokenises data[start:end] with back-references reaching
// no further than windowStart, appending to tokens. blockBounds receives
// the token index at which each multiple of blockSize input bytes is
// crossed (used to segment Deflate blocks along input positions).
func (m *matcher) appendTokens(tokens []token, data []byte, start, end, windowStart int) []token {
	i := start
	p := m.p
	for i < end {
		if end-i < minMatch+1 {
			for ; i < end; i++ {
				tokens = append(tokens, literalToken(data[i]))
			}
			break
		}
		m.insert(data, i)
		length, dist := m.findMatch(data, i, end, windowStart)
		if length < minMatch {
			tokens = append(tokens, literalToken(data[i]))
			i++
			continue
		}
		if p.useLazy && length < p.lazy && i+1 < end-minMatch {
			// One-step lazy matching: prefer a longer match at i+1.
			m.insert(data, i+1)
			l2, d2 := m.findMatch(data, i+1, end, windowStart)
			if l2 > length {
				tokens = append(tokens, literalToken(data[i]))
				// Insert hash entries for the skipped span of the new match.
				for j := i + 2; j < i+1+l2 && j < end-minMatch; j++ {
					m.insert(data, j)
				}
				tokens = append(tokens, matchToken(l2, d2))
				i = i + 1 + l2
				continue
			}
			// Keep original match; i+1 already inserted.
			for j := i + 2; j < i+length && j < end-minMatch; j++ {
				m.insert(data, j)
			}
			tokens = append(tokens, matchToken(length, dist))
			i += length
			continue
		}
		for j := i + 1; j < i+length && j < end-minMatch; j++ {
			m.insert(data, j)
		}
		tokens = append(tokens, matchToken(length, dist))
		i += length
	}
	return tokens
}
