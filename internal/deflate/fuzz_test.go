package deflate_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"testing"

	"repro/internal/bitio"
	deflate "repro/internal/deflate"
)

// refCap bounds the reference decode so compression bombs cannot make
// the fuzzer crawl; inputs that legitimately exceed it are skipped.
const refCap = 1 << 20

// FuzzDeflateVsStdlib decodes arbitrary bytes as a raw Deflate stream
// with both compress/flate and the custom decoder: when stdlib
// succeeds the custom decoder must produce byte-identical output (in
// single-stage and two-stage mode both), and when stdlib rejects the
// stream the custom decoder must reject it too. This pins the
// rewritten fast loops — wide refills, inlined two-level table walks,
// 8-byte copies — to an independent implementation of the format.
//
// DecodeChunk expects a gzip footer after the final block, which raw
// Deflate does not have; on the success path the input is padded with
// 8 zero bytes that are consumed as the footer (they sit past the
// payload stdlib validated, so they cannot change block decoding), and
// only the first member's output is compared, in case trailing bytes
// happen to parse as another gzip member.
func FuzzDeflateVsStdlib(f *testing.F) {
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 80)
	for _, level := range []int{flate.HuffmanOnly, 1, 6, 9} {
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, level)
		w.Write(text)
		w.Close()
		f.Add(buf.Bytes())
	}
	var overlap bytes.Buffer
	w, _ := flate.NewWriter(&overlap, 9)
	w.Write(bytes.Repeat([]byte("abc"), 2000)) // dist-3 overlapping copies
	w.Close()
	f.Add(overlap.Bytes())
	f.Add([]byte{0x01, 0x02, 0x00, 0xfd, 0xff, 0xca, 0xfe}) // final stored block
	f.Add([]byte{0x03, 0x00})                               // final fixed block, EOB only
	f.Add(overlap.Bytes()[:20])                             // truncated mid-block

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data)), refCap))
		if refErr == nil && len(ref) >= refCap {
			return // possibly truncated by the cap: not comparable
		}

		if refErr != nil {
			// Invalid payload: the custom decoder must reject it as well.
			// No footer pad — the stream must already fail inside block
			// decoding or at the (absent) footer.
			var dec deflate.Decoder
			cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(data), deflate.ChunkConfig{
				Stop: deflate.StopAtEOF, MaxDecompressed: 4 * refCap,
			})
			if err == nil {
				t.Fatalf("stdlib rejects (%v), custom decoder accepted %d bytes", refErr, cr.TotalOut())
			}
			return
		}

		padded := append(append([]byte{}, data...), make([]byte, 8)...)
		for _, twoStage := range []bool{false, true} {
			var dec deflate.Decoder
			cr, err := dec.DecodeChunk(bitio.NewBitReaderBytes(padded), deflate.ChunkConfig{
				Stop: deflate.StopAtEOF, TwoStage: twoStage, MaxDecompressed: 4 * refCap,
			})
			if errors.Is(err, deflate.ErrOutputLimit) {
				return // a trailing pseudo-member blew the cap: not comparable
			}
			if err != nil {
				t.Fatalf("stdlib accepts %d bytes, custom decoder (twoStage=%v) failed: %v", len(ref), twoStage, err)
			}
			out := make([]byte, cr.TotalOut())
			if err := cr.ResolveRange(out, 0, nil); err != nil {
				t.Fatalf("marker resolution failed on a windowless stream (twoStage=%v): %v", twoStage, err)
			}
			if len(cr.Members) == 0 {
				t.Fatalf("successful decode recorded no member end (twoStage=%v)", twoStage)
			}
			if end := cr.Members[0].DecompOffset; end != uint64(len(ref)) {
				t.Fatalf("first member decoded %d bytes, stdlib %d (twoStage=%v)", end, len(ref), twoStage)
			}
			if !bytes.Equal(out[:len(ref)], ref) {
				t.Fatalf("output differs from stdlib (twoStage=%v)", twoStage)
			}
		}
	})
}
