package deflate_test

// Edge cases of the rewritten inner loops that the differential fuzzer
// only hits probabilistically: overlapping back-references at every
// distance below the 8-byte copy width, and streams whose final Huffman
// codes land inside the last words of input, where the wide-refill fast
// path must hand off to the checked tail.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bitio"
	deflate "repro/internal/deflate"
	"repro/internal/gzipw"
)

// decodeGzip decodes comp, once more through readers that starve the
// fast path (which must not change the result), and resolves the output.
func decodeGzip(t *testing.T, comp []byte, twoStage bool) []byte {
	t.Helper()
	return decode(t, comp, deflate.ChunkConfig{Stop: deflate.StopAtEOF, StartsAtGzipHeader: true, TwoStage: twoStage})
}

func decode(t *testing.T, comp []byte, cfg deflate.ChunkConfig) []byte {
	t.Helper()
	twoStage := cfg.TwoStage
	deflate.RequireSameStarved(t, comp, cfg)
	var dec deflate.Decoder
	cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(comp), cfg)
	if err != nil {
		t.Fatalf("decode (twoStage=%v): %v", twoStage, err)
	}
	out := make([]byte, cr.TotalOut())
	if err := cr.ResolveRange(out, 0, nil); err != nil {
		t.Fatalf("resolve (twoStage=%v): %v", twoStage, err)
	}
	return out
}

// TestOverlapDistances round-trips periodic data whose repeat period
// steers the compressor toward back-references at that distance — every
// distance below the 8-byte copy width, plus straddling ones. The
// overlap-safe replication path must reproduce the pattern exactly in
// both the raw and the marker-resolution pipelines. Then every length at
// that distance, in a crafted block that decodes on the fast path: the
// word copies take over at distance 8 (4 in marked mode), reach past the
// match's end, and may not change a byte behind it.
func TestOverlapDistances(t *testing.T) {
	for _, dist := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
		t.Run(fmt.Sprintf("dist=%d", dist), func(t *testing.T) {
			prefix, suffix := []byte("0123456789abcdef~!@#"), []byte("the bytes behind the match, and some more of them")
			for length := deflate.MinMatchLen; length <= deflate.MaxMatchLen; length++ {
				want := append([]byte(nil), prefix...)
				for i := 0; i < length; i++ {
					want = append(want, want[len(want)-dist])
				}
				want = append(want, suffix...)
				comp := deflate.MatchStream(prefix, length, dist, suffix)
				for _, twoStage := range []bool{false, true} {
					if got := decode(t, comp, deflate.ChunkConfig{Stop: deflate.StopAtEOF, TwoStage: twoStage}); !bytes.Equal(got, want) {
						t.Fatalf("length %d twoStage=%v: got %q, want %q", length, twoStage, got, want)
					}
				}
			}

			pattern := make([]byte, dist)
			for i := range pattern {
				pattern[i] = byte('a' + i)
			}
			// A literal prefix so the first match has history to copy
			// from, then enough repetition for long matches.
			data := append([]byte("0123456789abcdef~!@#"), bytes.Repeat(pattern, 4096/dist+2)...)
			for _, level := range []int{1, 9} {
				comp, _, err := gzipw.Compress(data, gzipw.Options{Level: level})
				if err != nil {
					t.Fatal(err)
				}
				for _, twoStage := range []bool{false, true} {
					if got := decodeGzip(t, comp, twoStage); !bytes.Equal(got, data) {
						t.Fatalf("level %d twoStage=%v: round trip mismatch", level, twoStage)
					}
				}
			}
		})
	}
}

// TestNearEndRefills sweeps tiny members so the final Huffman codes and
// the 8-byte gzip footer land within the last input words at every
// alignment: the wide-refill guard (pos+8 <= len) must hand off to the
// checked byte-at-a-time tail without losing or inventing bits.
func TestNearEndRefills(t *testing.T) {
	seed := []byte("near-end refills: the quick brown fox jumps over the lazy dog; ")
	for _, level := range []int{1, 6, 9} {
		for n := 0; n <= 300; n++ {
			data := bytes.Repeat(seed, n/len(seed)+1)[:n]
			comp, _, err := gzipw.Compress(data, gzipw.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			if got := decodeGzip(t, comp, false); !bytes.Equal(got, data) {
				t.Fatalf("level %d n=%d: round trip mismatch", level, n)
			}
		}
	}
}
