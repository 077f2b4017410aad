package lz4x

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// referenceDecodeBlock is the definition decodeBlock is tested against:
// the loop it replaced, one length test per field and every match
// copied a byte at a time. Same contract: dst[:start] is history, the
// output may stop short of len(dst), the result is the bytes produced.
func referenceDecodeBlock(src, dst []byte, start int) (int, error) {
	sp, dp := 0, start
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
				return dp - start, err
			}
		}
		if sp+litLen > len(src) || dp+litLen > len(dst) {
			return dp - start, ErrCorrupt
		}
		copy(dst[dp:], src[sp:sp+litLen])
		sp += litLen
		dp += litLen
		if sp == len(src) {
			return dp - start, nil
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
			var err error
			if matchLen, err = readLen(15); err != nil {
				return dp - start, err
			}
		}
		matchLen += minMatch
		if dp+matchLen > len(dst) {
			return dp - start, ErrCorrupt
		}
		m := dp - offset
		for i := 0; i < matchLen; i++ {
			dst[dp+i] = dst[m+i]
		}
		dp += matchLen
	}
	return dp - start, nil
}

// history is n bytes no block produces by accident, so a match that
// reaches the wrong place in it shows.
func history(n int) []byte {
	h := make([]byte, n)
	for i := range h {
		h[i] = byte(i*7 + 3)
	}
	return h
}

// sameDecode runs block through both loops into room bytes after hist
// bytes of history and requires the same verdict: an error from both,
// or the same length and bytes.
func sameDecode(t testing.TB, block []byte, hist, room int) {
	t.Helper()
	got := append(history(hist), make([]byte, room)...)
	want := append(history(hist), make([]byte, room)...)
	n, err := decodeBlock(block, got, hist)
	wn, werr := referenceDecodeBlock(block, want, hist)
	if (err != nil) != (werr != nil) {
		t.Fatalf("hist %d room %d block %x: decodeBlock err %v, reference err %v", hist, room, block, err, werr)
	}
	if err != nil {
		return
	}
	if n != wn || !bytes.Equal(got[:hist+n], want[:hist+n]) {
		t.Fatalf("hist %d room %d block %x: decodeBlock %d bytes, reference %d, or bytes differ", hist, room, block, n, wn)
	}
}

// FuzzLZ4Block holds decodeBlock to the loop it replaced, on arbitrary
// bytes taken as a block and on the encoder's output for the same bytes
// with one bit flipped, each with and without linked-block history and
// with the room exact, short and generous.
func FuzzLZ4Block(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint16(0))
	f.Add([]byte{0x54, 'a', 'b', 'c', 'd', 'e', 5, 0, 0x30, 'x', 'y', 'z'}, uint16(16), uint8(0), uint16(3))
	f.Add([]byte{0x0F, 3, 0, 200, 0x00}, uint16(400), uint8(9), uint16(77))
	f.Add(CompressBlock(workloads.SilesiaLike(3000, 1), nil), uint16(3000), uint8(40), uint16(1234))
	f.Add(CompressBlock(bytes.Repeat([]byte("abc"), 400), nil), uint16(1200), uint8(0), uint16(9))
	f.Add(workloads.SilesiaLike(2000, 2), uint16(2100), uint8(17), uint16(40000))
	f.Fuzz(func(t *testing.T, data []byte, room uint16, hist uint8, flip uint16) {
		for _, h := range []int{0, int(hist)} {
			sameDecode(t, data, h, int(room))
			enc := CompressBlock(data, nil)
			sameDecode(t, enc, h, len(data))
			sameDecode(t, enc, h, len(data)+int(room))
			enc[int(flip>>3)%len(enc)] ^= 1 << (flip & 7)
			sameDecode(t, enc, h, len(data))
			sameDecode(t, enc, h, int(room))
		}
	})
}

// appendSeq appends one sequence in block syntax: the literals, then —
// unless matchLen is 0, which makes it the closing sequence — a match.
func appendSeq(block, lits []byte, offset, matchLen int) []byte {
	appendLen := func(n int) {
		for ; n >= 255; n -= 255 {
			block = append(block, 255)
		}
		block = append(block, byte(n))
	}
	token := byte(min(len(lits), 15)) << tokenLitSh
	if matchLen > 0 {
		token |= byte(min(matchLen-minMatch, 15))
	}
	block = append(block, token)
	if len(lits) >= 15 {
		appendLen(len(lits) - 15)
	}
	block = append(block, lits...)
	if matchLen > 0 {
		block = append(block, byte(offset), byte(offset>>8))
		if matchLen-minMatch >= 15 {
			appendLen(matchLen - minMatch - 15)
		}
	}
	return block
}

// TestLZ4OverlapDistances decodes one match of every offset 1…20 and
// length 4…300 in the three places a copy routine can go wrong — as the
// first match of a block, reaching back across a linked-block boundary,
// and ending on the last byte of dst — each once with input and room to
// spare behind it (the fast stretch) and once without (the checked
// path), against the replicated bytes written out longhand.
func TestLZ4OverlapDistances(t *testing.T) {
	tail := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGH")
	places := []struct {
		name  string
		hist  int    // bytes of linked-block history; else the literals come first
		after []byte // literals closing the block behind the match
		spare int    // room left over behind them
	}{
		{"block start, fast stretch", 0, tail, 64},
		{"block start, checked path", 0, tail[:5], 0},
		{"linked boundary, fast stretch", 64, tail, 64},
		{"linked boundary, checked path", 64, tail[:5], 0},
		{"end of dst", 0, nil, 0},
	}
	for offset := 1; offset <= 20; offset++ {
		for matchLen := 4; matchLen <= 300; matchLen++ {
			for _, pl := range places {
				var lits []byte
				if pl.hist == 0 {
					lits = []byte("the lazy dog's back.")[:offset]
				}
				want := append(history(pl.hist), lits...)
				for i := 0; i < matchLen; i++ {
					want = append(want, want[len(want)-offset])
				}
				want = append(want, pl.after...)
				block := appendSeq(appendSeq(nil, lits, offset, matchLen), pl.after, 0, 0)
				room := len(want) - pl.hist + pl.spare
				dst := append(history(pl.hist), make([]byte, room)...)
				n, err := decodeBlock(block, dst, pl.hist)
				name := fmt.Sprintf("offset %d length %d, %s", offset, matchLen, pl.name)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(dst[:pl.hist+n], want) {
					t.Fatalf("%s: decoded %d bytes, want %d, or bytes differ", name, n, len(want)-pl.hist)
				}
				sameDecode(t, block, pl.hist, room)
			}
		}
	}
}

// benchBlocks compresses a 1 MiB frame of the bench corpus the way the
// repository benchmark does and returns its compressed block payloads.
func benchBlocks(tb testing.TB) (blocks [][]byte, blockMax int) {
	tb.Helper()
	frame := CompressFrames(workloads.SilesiaLike(1<<20, 1), FrameOptions{})
	h, err := parseFrameHeader(frame)
	if err != nil {
		tb.Fatal(err)
	}
	_, blockMax = bdClass(64 << 10)
	for p := h.headerLen; ; {
		bsize := binary.LittleEndian.Uint32(frame[p:])
		p += 4
		if bsize == 0 {
			return blocks, blockMax
		}
		n := int(bsize &^ (1 << 31))
		if bsize&(1<<31) == 0 {
			blocks = append(blocks, frame[p:p+n])
		}
		p += n
	}
}

// BenchmarkLZ4Block times the block loop alone over one bench-corpus
// frame's compressed blocks and reports which share of their matches
// the token holds whole (≤ 18 bytes: the unconditional 18-byte store).
func BenchmarkLZ4Block(b *testing.B) {
	blocks, blockMax := benchBlocks(b)
	if len(blocks) == 0 {
		b.Fatal("bench-corpus frame has no compressed block")
	}
	dst := make([]byte, blockMax)
	var total, matches, short int
	for _, blk := range blocks {
		n, err := decodeBlock(blk, dst, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += n
		for sp := 0; sp < len(blk); {
			token := blk[sp]
			sp++
			litLen := int(token >> tokenLitSh)
			if litLen == 15 {
				litLen, sp = readLen(blk, sp)
			}
			if sp += litLen; sp >= len(blk) {
				break
			}
			sp += 2
			matches++
			if token&15 < 15 {
				short++
			} else {
				_, sp = readLen(blk, sp)
			}
		}
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			if _, err := decodeBlock(blk, dst, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(short)/float64(matches), "short_match_share")
	b.ReportMetric(float64(total)/float64(matches), "B/match")
}
