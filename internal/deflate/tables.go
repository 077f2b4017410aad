// Package deflate implements a custom Deflate (RFC 1951) decoder that
// can start at arbitrary *bit* offsets and decode in two stages: when
// the 32 KiB back-reference window is unknown, unresolved references are
// emitted as 16-bit marker symbols that are replaced once the window
// becomes available (paper §2.2). This is the decoding engine behind the
// parallel gzip reader; it also supports conventional single-stage
// decoding when a window is given, the fast path for Non-Compressed
// Blocks, and the fallback from two-stage to single-stage decoding once
// the sliding window no longer contains markers (paper §3.3).
//
// A decode has one stop rule on its output, ChunkConfig.StopAtOutput:
// it returns once that many bytes exist. Single-stage decodes check it
// at every element — literal, match, stored byte — so they stop in the
// middle of a block, less than one match past the limit, and the Decoder
// stays behind as the state to continue from: the reader's bit position,
// the open block's Huffman tables and final flag, the output so far and
// the window it began with. Decoder.Resume picks up there, and the
// pieces add up to exactly what one unpaused decode produces. That is
// what lets a seek through an index cost the bytes it asks for when the
// file's blocks are larger than its reads.
package deflate

import "repro/internal/huffman"

// Deflate format constants.
const (
	// WindowSize is the back-reference window of Deflate (RFC 1951 §2).
	WindowSize = 32768
	// MaxMatchLen is the longest back-reference copy.
	MaxMatchLen = 258
	// MinMatchLen is the shortest back-reference copy.
	MinMatchLen = 3
	// EndOfBlock is the literal-alphabet symbol terminating a block.
	EndOfBlock = 256

	// MaxLitSymbols and MaxDistSymbols bound the dynamic alphabets.
	MaxLitSymbols  = 286
	MaxDistSymbols = 30
	// NumPrecodeSymbols is the size of the code-length alphabet.
	NumPrecodeSymbols = 19
	// MaxPrecodeLen is the longest precode code length (3-bit entries).
	MaxPrecodeLen = 7

	// MarkerBase is the first 16-bit output value that denotes a marker
	// rather than a literal byte. Marker value MarkerBase+i stands for
	// position i within the (unknown) initial 32 KiB window, i.e. window
	// offset 0 is the oldest unknown byte (paper §2.2: "unique 15-bit
	// wide markers corresponding to the offset in the buffer").
	MarkerBase = 256
)

// BlockType enumerates the three Deflate block kinds (paper Figure 2).
type BlockType uint8

const (
	BlockStored  BlockType = 0
	BlockFixed   BlockType = 1
	BlockDynamic BlockType = 2
	blockInvalid BlockType = 3
)

func (t BlockType) String() string {
	switch t {
	case BlockStored:
		return "stored"
	case BlockFixed:
		return "fixed"
	case BlockDynamic:
		return "dynamic"
	}
	return "invalid"
}

// precodeOrder is the storage order of precode code lengths (RFC 1951 §3.2.7).
var precodeOrder = [NumPrecodeSymbols]uint8{
	16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
}

// Length code table: symbols 257..285 map to (base, extra bits).
var (
	lengthBase = [29]uint16{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lengthExtra = [29]uint8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
)

// Distance code table: symbols 0..29 map to (base, extra bits).
var (
	distBase = [30]uint32{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
		8193, 12289, 16385, 24577,
	}
	distExtra = [30]uint8{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}
)

// Fixed Huffman code lengths (RFC 1951 §3.2.6).
var fixedLitLengths, fixedDistLengths []uint8

// What each symbol of the two alphabets does, as the table entries the
// block loops act on (huffman.Symbol): a literal byte, end of block, or a
// length or distance base with its extra-bit count. Literal/length
// symbols 286 and 287 and distance symbols 30 and 31 have codes in the
// fixed alphabets but may not occur: their entries have no kind.
var (
	litlenSymbols [288]huffman.Entry
	distSymbols   [32]huffman.Entry
)

// The fixed tables are built once and shared read-only by all decoders.
var fixedLit, fixedDist huffman.Decoder

func init() {
	fixedLitLengths = make([]uint8, 288)
	for i := 0; i <= 143; i++ {
		fixedLitLengths[i] = 8
	}
	for i := 144; i <= 255; i++ {
		fixedLitLengths[i] = 9
	}
	for i := 256; i <= 279; i++ {
		fixedLitLengths[i] = 7
	}
	for i := 280; i <= 287; i++ {
		fixedLitLengths[i] = 8
	}
	fixedDistLengths = make([]uint8, 32)
	for i := range fixedDistLengths {
		fixedDistLengths[i] = 5
	}

	for i := 0; i < EndOfBlock; i++ {
		litlenSymbols[i] = huffman.Symbol(huffman.Literal, uint16(i), 0)
	}
	litlenSymbols[EndOfBlock] = huffman.Symbol(huffman.EndOfBlock, 0, 0)
	for i, base := range lengthBase {
		litlenSymbols[EndOfBlock+1+i] = huffman.Symbol(huffman.Base, base, uint(lengthExtra[i]))
	}
	for i, base := range distBase {
		distSymbols[i] = huffman.Symbol(huffman.Base, uint16(base), uint(distExtra[i]))
	}
	if err := fixedLit.Init(fixedLitLengths, false, litlenSymbols[:]); err != nil {
		panic(err)
	}
	if err := fixedDist.Init(fixedDistLengths, false, distSymbols[:]); err != nil {
		panic(err)
	}
}

// FixedLitLengths returns a copy of the fixed literal code lengths; the
// compressor uses it to emit Fixed Blocks.
func FixedLitLengths() []uint8 { return append([]uint8(nil), fixedLitLengths...) }

// FixedDistLengths returns a copy of the fixed distance code lengths.
func FixedDistLengths() []uint8 { return append([]uint8(nil), fixedDistLengths...) }

// LengthCode returns the literal-alphabet symbol, extra-bit count and
// extra-bit value encoding a match length (3..258). Used by the
// compressor suite.
func LengthCode(length int) (sym uint16, extra uint8, extraVal uint32) {
	// Linear scan is fine for table construction; the compressor caches
	// a direct lookup (see internal/gzipw).
	for i := len(lengthBase) - 1; i >= 0; i-- {
		if int(lengthBase[i]) <= length {
			// Symbol 285 (index 28) encodes exactly 258 with 0 extra bits;
			// lengths 227..257 must use index 27.
			if i == 28 && length != 258 {
				continue
			}
			return uint16(257 + i), lengthExtra[i], uint32(length - int(lengthBase[i]))
		}
	}
	return 0, 0, 0
}

// DistCode returns the distance-alphabet symbol, extra-bit count and
// extra-bit value encoding a distance (1..32768).
func DistCode(dist int) (sym uint16, extra uint8, extraVal uint32) {
	for i := len(distBase) - 1; i >= 0; i-- {
		if int(distBase[i]) <= dist {
			return uint16(i), distExtra[i], uint32(dist - int(distBase[i]))
		}
	}
	return 0, 0, 0
}
