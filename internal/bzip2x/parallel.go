package bzip2x

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/filereader"
	"repro/internal/spanengine"
)

// FormatTag identifies bzip2 checkpoint tables in persisted indexes.
const FormatTag = "bz2 "

// streamMagicLen is the prefix of a stream the scan checks for its level:
// "BZh", a level digit, and the first block's 48-bit magic (or the footer
// magic of an empty stream).
const streamMagicLen = 10

// magicSpan is how many bytes a block magic can touch: 48 bits from any
// bit of its first byte.
const magicSpan = 7

var streamPrefix = []byte("BZh")

// streamLevel returns the level of the stream header b (at least
// streamMagicLen bytes) spells, followed by a block or footer magic, or 0.
func streamLevel(b []byte) int {
	if b[0] != 'B' || b[1] != 'Z' || b[2] != 'h' || b[3] < '1' || b[3] > '9' {
		return 0
	}
	if m := binary.BigEndian.Uint64(b[2:10]) & (1<<48 - 1); m != blockMagic && m != footerMagic {
		return 0
	}
	return int(b[3] - '0')
}

// A block magic that begins at bit s of a byte fills bytes 1 to 5 after
// it whole, and those five bytes — needles[s] — are what the scan looks
// for; the bits it shares with the bytes either side are checked after.
var needles = func() (n [8][]byte) {
	for s := range n {
		v := uint64(blockMagic) << (16 - s) // the magic at bit s of an 8-byte word
		n[s] = binary.BigEndian.AppendUint64(nil, v)[1:6]
	}
	return n
}()

// magicAt reports whether a block magic begins at bit s of b[0]; b must
// hold the bytes it touches.
func magicAt(b []byte, s int) bool {
	var w [8]byte
	copy(w[:], b[:min(len(b), 8)])
	return binary.BigEndian.Uint64(w[:])<<s>>16 == blockMagic
}

// magicShift returns the bit of b[0] at which a block magic begins, or -1.
// A magic overlaps no shift of itself by fewer than eight bits, so there
// is at most one.
func magicShift(b []byte) int {
	for s := range 8 {
		if len(b)*8 >= s+48 && magicAt(b, s) {
			return s
		}
	}
	return -1
}

// findWindow is the chunk size the scan reads at a time. bzip2 declares
// nothing, so the magic scan must touch every byte of the file either
// way — the window only bounds how much of it is resident at once.
const findWindow = 1 << 20

// scan reads src once, in windows of window bytes overlapping by
// streamMagicLen-1, so that every magic lies whole in some window, and
// returns the byte offsets that hold the first bit of a block magic, in
// order, and the levels of the stream headers it saw, as a bit set. Like
// the gzip block finder it may find false positives — compressed payload
// bits can spell a magic — so the caller must be ready to fall back (§3:
// trial and error). A source held in memory is read the same way.
func scan(src filereader.FileReader, window int64) (blocks []int64, levels uint16, err error) {
	size := src.Size()
	buf := make([]byte, min(window, size))
	for base := int64(0); base < size; {
		chunk := buf[:min(window, size-base)]
		if rn, err := src.ReadAt(chunk, base); rn < len(chunk) {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, fmt.Errorf("%w: bzip2 magic scan at offset %d: %w", filereader.ErrIO, base, err)
		}
		blocks = scanBlocks(blocks, chunk, base)
		for p := 0; ; p++ {
			i := bytes.Index(chunk[p:], streamPrefix)
			if i < 0 || p+i+streamMagicLen > len(chunk) {
				break
			}
			p += i
			levels |= 1 << streamLevel(chunk[p:]) &^ 1
		}
		if base+int64(len(chunk)) == size {
			break
		}
		base += int64(len(chunk)) - (streamMagicLen - 1)
	}
	return blocks, levels, nil
}

// scanBlocks appends to blocks the file offset of every block magic that
// lies whole in win, the bytes of the file from offset base on, past the
// last one blocks holds: the windows overlap. Each of the eight needles
// is one bytes.Index pass over the window; nearly every byte is no
// candidate.
func scanBlocks(blocks []int64, win []byte, base int64) []int64 {
	last := int64(-1)
	if len(blocks) > 0 {
		last = blocks[len(blocks)-1]
	}
	start := len(blocks)
	for s, needle := range needles {
		touch := 6 + min(s, 1) // the bytes a magic at bit s touches
		for p := 1; ; p++ {
			i := bytes.Index(win[p:], needle)
			if i < 0 {
				break
			}
			p += i
			if b := p - 1; b+touch <= len(win) && base+int64(b) > last && magicAt(win[b:], s) {
				blocks = append(blocks, base+int64(b))
			}
		}
	}
	found := blocks[start:]
	for i := 1; i < len(found); i++ { // few: insertion sort
		for j := i; j > 0 && found[j] < found[j-1]; j-- {
			found[j], found[j-1] = found[j-1], found[j]
		}
	}
	return blocks
}

// Codec is the bzip2 half of the shared span engine: the magic scan and
// the per-span decode. A span is a block — the unit bzip2 compresses
// independently — but the first, which begins at the file's first byte so
// that its decode reads the stream header the first block follows.
// bzip2 declares no sizes anywhere, so the scan leaves them all open and
// the engine grows its table from the first decode of each block
// (spanengine's deferred sizes).
type Codec struct{}

// FormatTag implements spanengine.Codec.
func (Codec) FormatTag() string { return FormatTag }

// Scan implements spanengine.Codec: candidate block starts come from one
// bounded windowed pass over the file, and nothing is decoded. A span
// runs from a block magic to the next, its compressed extent from the
// byte that holds the first bit of one to the byte that holds the first
// bit of the next (or the end of the file); what lies between two blocks
// — a stream's footer, the next stream's header — belongs to the span
// before. The engine merges a span that a false-positive magic cut short
// with its successor, which converges on the true block layout. The
// table's flags are the level the file's streams share, or 0 where they
// mix levels; a table of stream spans, which an index written before
// spans were blocks holds, has 0 too. The decode needs neither: an extent
// that begins with a stream header is read from it, any other from the
// block magic in its first byte.
func (Codec) Scan(src filereader.FileReader) (spanengine.ScanResult, error) {
	blocks, levels, err := scan(src, findWindow)
	if err != nil {
		return spanengine.ScanResult{}, err
	}
	starts := []int64{0}
	if len(blocks) > 1 {
		starts = append(starts, blocks[1:]...)
	}
	res := spanengine.ScanResult{Candidates: true, Spans: make([]spanengine.Span, len(starts))}
	if bits.OnesCount16(levels) == 1 {
		res.Flags = uint8(bits.TrailingZeros16(levels))
	}
	for i, off := range starts {
		end := src.Size()
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		res.Spans[i] = spanengine.Span{CompOff: off, CompEnd: end, DecompSize: -1}
	}
	return res, nil
}

// DecodeSpan implements spanengine.Codec: DecodeLinked without what the
// stream check needs.
func (c Codec) DecodeSpan(src filereader.FileReader, s spanengine.Span) ([]byte, error) {
	out, _, err := c.DecodeLinked(src, s)
	return out, err
}

// DecodeLinked implements spanengine.Chained: one pread of the span's
// compressed extent and the magicSpan bytes after it, where its last
// block ends and the next magic lies, decoded whole with every block CRC
// checked, and the CRC of every stream whose header and footer it holds.
// The decode must end exactly where the next span's block magic begins,
// or at the end of the file; a stream span ends where a stream header
// begins. The link is the extent's headers, blocks and footers in order,
// from which Chain checks the streams that run over several spans.
func (Codec) DecodeLinked(src filereader.FileReader, s spanengine.Span) ([]byte, any, error) {
	ext, release, err := filereader.Extent(src, s.CompOff, min(s.CompEnd+magicSpan, src.Size()))
	if err != nil {
		return nil, nil, err
	}
	defer release()
	header := s.CompOff == 0 || bytes.HasPrefix(ext, streamPrefix[:2])
	out, marks, err := decodeExtent(ext, int(s.CompEnd-s.CompOff), header)
	if err != nil {
		return nil, nil, fmt.Errorf("bzip2x: span at offset %d: %w", s.CompOff, err)
	}
	return out, marks, nil
}

// Chain implements spanengine.Chained: the stream check, carried from
// one span to the next in table order. A stream's CRC is chained from
// its blocks' CRCs, which are spans of their own, and each block must
// fit its stream's level.
func (Codec) Chain(state, link any) (any, error) {
	c, _ := state.(streamCheck)
	return c.replay(link.([]mark))
}
