package zstdx

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workloads"
)

// sameDecode requires the window path and the checked reader to agree
// on data — an error from both, or the same bytes — and returns what
// Decompress made of it.
func sameDecode(t testing.TB, name string, data []byte) ([]byte, error) {
	t.Helper()
	got, err := Decompress(data)
	want, werr := decompressTailOnly(data)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: Decompress err %v, checked reader err %v", name, err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: Decompress gave %d bytes, checked reader %d, or bytes differ", name, len(got), len(want))
	}
	return got, err
}

// TestSeqFastPathSameDecode runs every stream we have through both
// readers of the sequence loop: the reference encoder's fixtures (FSE-
// described and repeated tables, long offsets, treeless literals), our
// encoder's block and literal types, streams too short to hold one
// window, and each of them with single bytes damaged.
func TestSeqFastPathSameDecode(t *testing.T) {
	streams := map[string][]byte{}
	fixtures, err := filepath.Glob("testdata/*.zst")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, f := range fixtures {
		if streams[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range encoderInputs() {
		streams[name] = CompressFrames(data, FrameOptions{Level: 1, FrameSize: 256 << 10, ContentChecksum: true})
		streams[name+"/nosize"] = CompressFrames(data, FrameOptions{Level: 1, BlockSize: 10000, OmitContentSize: true})
	}
	for n := 1; n <= 40; n++ {
		streams["short"] = append(streams["short"], CompressFrames(workloads.SilesiaLike(n*3, uint64(n)), FrameOptions{Level: 1})...)
	}
	for name, data := range streams {
		if _, err := sameDecode(t, name, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Damage that reaches the sequence loop mostly ends in an error;
		// both readers must find the same one, or the same bytes.
		step := max(len(data)/40, 1)
		for i := 0; i < len(data); i += step {
			damaged := bytes.Clone(data)
			damaged[i] ^= 1 << (i & 7)
			sameDecode(t, name+" damaged", damaged)
		}
	}
}

// Crafted frames: one window descriptor, no content size, then blocks.

func craftedFrame(blocks ...[]byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, FrameMagic)
	f = append(f, 0x00, 0x50) // no checksum, no content size; 1 MiB window
	for i, b := range blocks {
		if i == len(blocks)-1 {
			b[0] |= 1 // last block
		}
		f = append(f, b...)
	}
	return f
}

func rawBlock(content []byte) []byte {
	return append(blockHeader(len(content), 0, false), content...)
}

// seqFields are the extra bits of one sequence's three fields.
type seqFields struct{ ll, ml, of uint32 }

// rleSeqBlock is a compressed block with raw literals and all three
// sequence tables in RLE mode: every sequence has the literal-length,
// match-length and offset codes given and differs only in extra bits,
// so the bitstream is those bits and nothing else. junk adds bits below
// the first field written, drop removes bytes from the stream's start.
func rleSeqBlock(lit []byte, nbSeq int, llCode, mlCode, ofCode uint8, seqs []seqFields, junk, drop int) []byte {
	var w bitWriter
	w.addBits(0, junk)
	// The reader starts at the end: write the last sequence first, and
	// each sequence's fields in the reverse of offset, match, literal.
	for i := len(seqs) - 1; i >= 0; i-- {
		w.addBits(seqs[i].ll, int(llCodeTable[llCode].bits))
		w.addBits(seqs[i].ml, int(mlCodeTable[mlCode].bits))
		w.addBits(seqs[i].of, int(ofCodeTable[ofCode].bits))
	}
	stream := w.close()[drop:]
	body := []byte{byte(len(lit)<<3) | 0} // raw literals, 5-bit size
	if len(lit) > 31 {
		body = []byte{byte(len(lit)<<4) | 0x0C, byte(len(lit) >> 4), byte(len(lit) >> 12)}
	}
	body = append(body, lit...)
	body = append(body, byte(nbSeq), 0x54, llCode, ofCode, mlCode)
	body = append(body, stream...)
	return append(blockHeader(len(body), 2, false), body...)
}

// craftedOutcomes is what Decompress made of each crafted frame at
// commit 70b1dab, before the sequence loop was rewritten: the output
// length, or -1 for an error. Both readers must still say the same.
var craftedOutcomes = []struct {
	name  string
	frame func() []byte
	want  int
}{
	{"valid: two sequences, offsets 1 and 4", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("abcde"), 2, 2, 5, 2, []seqFields{{of: 0}, {of: 3}}, 0, 0))
	}, 21},
	{"valid: literal-length and match-length extra bits", func() []byte {
		return craftedFrame(rleSeqBlock(bytes.Repeat([]byte("xy"), 20), 2, 16, 32, 3, []seqFields{{ll: 1, ml: 1, of: 1}, {ll: 0, ml: 0, of: 7}}, 0, 0))
	}, 111},
	{"truncated bitstream", func() []byte {
		// Four sequences of four bits each; the byte that goes held two.
		return craftedFrame(rleSeqBlock(bytes.Repeat([]byte("xy"), 40), 4, 16, 32, 2, make([]seqFields, 4), 0, 1))
	}, -1},
	{"overrun in extra bits: three sequences, bits for two", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("abcdef"), 3, 2, 5, 2, []seqFields{{of: 0}, {of: 3}}, 0, 0))
	}, -1},
	{"overrun in a state update: predefined tables, states only", func() []byte {
		// Two sequences, all tables predefined, and a stream holding the
		// three initial states (all 0: codes without extra bits) and not
		// one bit of the first state update. Repeat offset 2 (4 bytes
		// back) finds the raw block's bytes.
		body := []byte{0x00, 2, 0x00, 0x00, 0x00, 0x02}
		return craftedFrame(rawBlock([]byte("12345678")), append(blockHeader(len(body), 2, false), body...))
	}, -1},
	{"zero repeat offset", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("abc"), 1, 0, 0, 1, []seqFields{{of: 1}}, 0, 0))
	}, -1},
	{"offset beyond window", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("abc"), 1, 1, 0, 10, []seqFields{{of: 5}}, 0, 0))
	}, -1},
	{"literals over-consumed", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("ab"), 1, 16, 0, 2, []seqFields{{ll: 0, of: 0}}, 0, 0))
	}, -1},
	{"block output over 128 KiB by a match", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("abc"), 3, 1, 52, 2, []seqFields{{of: 0}, {of: 0}, {of: 0}}, 0, 0))
	}, -1},
	{"block output under 128 KiB by its matches, over with the literals left", func() []byte {
		return craftedFrame(rleSeqBlock(bytes.Repeat([]byte("z"), 70001), 1, 1, 52, 2, []seqFields{{of: 0}}, 0, 0))
	}, 135540},
	{"bitstream not fully consumed", func() []byte {
		return craftedFrame(rleSeqBlock([]byte("abcde"), 2, 2, 5, 2, []seqFields{{of: 0}, {of: 3}}, 8, 0))
	}, -1},
}

func TestCraftedSequenceOutcomes(t *testing.T) {
	for _, c := range craftedOutcomes {
		frame := c.frame()
		for reader, decompress := range map[string]func([]byte) ([]byte, error){"window": Decompress, "checked": decompressTailOnly} {
			out, err := decompress(frame)
			got := len(out)
			if err != nil {
				got = -1
			}
			if got != c.want {
				t.Errorf("%s (%s reader): outcome %d (%v), want %d", c.name, reader, got, err, c.want)
			}
		}
	}
}
