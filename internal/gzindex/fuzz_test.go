package gzindex

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadIndex hardens index import against corrupt, truncated and
// adversarial files: Read must reject them with an error, never panic
// or over-allocate — a stale sibling .rgzidx is auto-imported by Open,
// so this parser sees unvetted bytes in normal operation. The stream
// and file reads of an input must give the same index or the same
// sentinel error.
func FuzzReadIndex(f *testing.F) {
	for _, golden := range []string{
		"testdata/golden-v5.rgzidx",
		"testdata/golden-v5-marks.rgzidx",
		"testdata/golden-v5-checkpoints.rgzidx",
		"testdata/golden-v5-inblock.rgzidx",
	} {
		if raw, err := os.ReadFile(golden); err == nil {
			f.Add(raw)
		}
	}
	// Fresh valid indexes as well-formed seeds: bare, then with the
	// fingerprint and member marks every writer records, then the same
	// index still in progress (not finalized).
	ix := New(4 << 20)
	ix.Add(SeekPoint{CompressedBitOffset: 80, UncompressedOffset: 0}, nil)
	ix.Add(SeekPoint{CompressedBitOffset: 4096, UncompressedOffset: 70_000}, []byte("window bytes"))
	ix.Finalized = true
	ix.CompressedSize = 9_000
	ix.UncompressedSize = 140_000
	for _, step := range []func(){
		func() {},
		func() {
			ix.SourceFP = &Fingerprint{Head: 0x1234, Tail: 0x5678}
			ix.MemberMarksComplete = true
			ix.AddMemberEnd(4096, MemberEnd{RelEnd: 70_000, CRC32: 0xC0FFEE})
		},
		func() { ix.Finalized = false },
	} {
		step()
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err == nil {
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Accepted indexes must be internally consistent enough to
		// re-serialise without panicking, and every read path must
		// accept or refuse alike.
		readAllPaths(t, data)
	})
}

// FuzzReadIndexV5 targets the sections of the version-5 format that feed
// offsets straight into decodes: the checkpoint table — the corpus seeds
// an export of each per-format span table (bzip2, LZ4, zstd, including a
// compressed gap, as a skippable frame leaves) — and the seek points
// inside blocks, whose header distances a decode reads the file at.
// Accepted inputs must survive a serialise/re-read round trip with the
// table and the points intact: a parser discrepancy here is an
// out-of-bounds read waiting in a backend.
func FuzzReadIndexV5(f *testing.F) {
	seed := func(tag string, flags uint8, spans []Checkpoint, compSize, decompSize uint64) {
		ix := New(0)
		ix.Finalized = true
		ix.CompressedSize = compSize
		ix.UncompressedSize = decompSize
		ix.SourceFP = &Fingerprint{Head: 0x1234, Tail: 0x5678}
		ix.Checkpoints = &CheckpointTable{Format: tag, Flags: flags, Spans: spans}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed("bz2 ", 0, []Checkpoint{
		{CompOff: 0, CompEnd: 900, DecompOff: 0, DecompSize: 100_000},
		{CompOff: 900, CompEnd: 2_000, DecompOff: 100_000, DecompSize: 123_456},
	}, 2_000, 223_456)
	seed("lz4 ", 0x03, []Checkpoint{
		{CompOff: 0, CompEnd: 64, DecompOff: 0, DecompSize: 0}, // empty frame
		{CompOff: 64, CompEnd: 512, DecompOff: 0, DecompSize: 64_000},
	}, 512, 64_000)
	seed("zstd", 0x03, []Checkpoint{
		{CompOff: 0, CompEnd: 300, DecompOff: 0, DecompSize: 50_000},
		{CompOff: 428, CompEnd: 700, DecompOff: 50_000, DecompSize: 50_000}, // gap: skippable frame
	}, 700, 100_000)
	for _, golden := range []string{"testdata/golden-v5-checkpoints.rgzidx", "testdata/golden-v5-inblock.rgzidx"} {
		if raw, err := os.ReadFile(golden); err == nil {
			f.Add(raw)
		}
	}
	// Points inside blocks: two in one block after its block-start point,
	// one in a block without a point of its own, then a block start.
	ix := New(1 << 20)
	ix.Finalized = true
	ix.CompressedSize = 50_000
	ix.UncompressedSize = 900_000
	ix.SourceFP = &Fingerprint{Head: 0x1234, Tail: 0x5678}
	for _, p := range []SeekPoint{
		{CompressedBitOffset: 0, AtMemberStart: true},
		{CompressedBitOffset: 30_000, UncompressedOffset: 100_000},
		{CompressedBitOffset: 90_000, UncompressedOffset: 300_000, BlockHeaderBit: 30_000},
		{CompressedBitOffset: 150_000, UncompressedOffset: 500_000, BlockHeaderBit: 30_000},
		{CompressedBitOffset: 250_000, UncompressedOffset: 700_000, BlockHeaderBit: 200_123},
		{CompressedBitOffset: 300_000, UncompressedOffset: 800_000},
	} {
		var win []byte
		if !p.AtMemberStart {
			win = []byte("window")
		}
		ix.Add(p, win)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err == nil {
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readAllPaths(t, data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted index failed to re-serialise: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialised index failed to re-read: %v", err)
		}
		if got.Len() != back.Len() {
			t.Fatalf("%d points re-read as %d", got.Len(), back.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if got.Point(i) != back.Point(i) {
				t.Fatalf("point %d mutated in round trip: %+v vs %+v", i, got.Point(i), back.Point(i))
			}
		}
		g, b := got.Checkpoints, back.Checkpoints
		if (g == nil) != (b == nil) {
			t.Fatal("checkpoint table lost in round trip")
		}
		if g != nil {
			if g.Format != b.Format || g.Flags != b.Flags || len(g.Spans) != len(b.Spans) {
				t.Fatalf("checkpoint table mutated in round trip: %+v vs %+v", g, b)
			}
			for i := range g.Spans {
				if g.Spans[i] != b.Spans[i] {
					t.Fatalf("span %d mutated in round trip: %+v vs %+v", i, g.Spans[i], b.Spans[i])
				}
			}
		}
	})
}
