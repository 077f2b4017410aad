package zstdx

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/filereader"
	"repro/internal/spanengine"
	"repro/internal/workloads"
)

// errClass names what kind of failure err is, for comparing two decodes.
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrChecksum):
		return "checksum"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrNotZstd):
		return "not zstd"
	}
	return "other"
}

// FuzzPrefixVsWhole holds DecodeSpanPrefix to DecodeSpan. A frame the
// encoder wrote for a seeded corpus and shape (block size, content
// checksum, content size in the header or only in the span table), with
// or without one bit flipped, is decoded by a chain of prefixes at seeded
// steps and whole. Each prefix reaches its step and keeps what the calls
// before returned; the chain ends with the whole decode's bytes, or with
// a failure of the same class.
func FuzzPrefixVsWhole(f *testing.F) {
	for shape := uint8(0); shape < 32; shape += 7 {
		f.Add(int64(shape), shape, uint32(0))
		f.Add(int64(shape)+100, shape, uint32(7919*int(shape)+40_000))
	}
	// 88,323 bytes in 22 blocks of 4 KiB, no checksum: 21 of its tables
	// repeat the block's before, and 194 sequences code a repeat offset
	// with no literals before them, so chains park between blocks that
	// lean on state the blocks before them left.
	f.Add(int64(107), uint8(1), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, flip uint32) {
		rng := rand.New(rand.NewSource(seed))
		plain := workloads.SilesiaLike(1+rng.Intn(200<<10), uint64(seed))
		comp := CompressFrames(plain, FrameOptions{
			Level:           1,
			BlockSize:       2 << 10 << (shape & 7),
			ContentChecksum: shape&8 != 0,
			OmitContentSize: shape&16 != 0,
		})
		if flip != 0 {
			comp[int(flip>>3)%len(comp)] ^= 1 << (flip & 7)
		}
		src := filereader.MemoryReader(comp)
		s := spanengine.Span{CompEnd: int64(len(comp)), DecompSize: int64(len(plain))}
		whole, wholeErr := Codec{}.DecodeSpan(src, s)

		var got []byte
		var parked any
		var err error
		for upTo := int64(0); ; {
			upTo = min(upTo+1+rng.Int63n(48<<10), s.DecompSize)
			var data []byte
			if data, parked, err = (Codec{}).DecodeSpanPrefix(src, s, parked, upTo); err != nil {
				break
			}
			if n := int64(len(data)); n < upTo || parked != nil && n >= s.DecompSize || !bytes.HasPrefix(data, got) {
				t.Fatalf("prefix to %d: %d bytes, parked %v; or the %d returned before changed", upTo, n, parked != nil, len(got))
			}
			got = bytes.Clone(data)
			if parked == nil {
				break
			}
		}
		if errClass(err) != errClass(wholeErr) {
			t.Fatalf("prefixes: %v; whole: %v", err, wholeErr)
		}
		if err == nil && !bytes.Equal(got, whole) {
			t.Fatalf("prefixes made %d bytes, the whole decode %d, and they differ", len(got), len(whole))
		}
	})
}
