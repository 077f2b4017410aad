package gzindex

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadIndex hardens index import against corrupt, truncated and
// adversarial files: Read must reject them with an error, never panic
// or over-allocate — a stale sibling .rgzidx is auto-imported by Open,
// so this parser sees unvetted bytes in normal operation.
func FuzzReadIndex(f *testing.F) {
	for _, golden := range []string{
		"testdata/golden-v4.rgzidx",
		"testdata/golden-v4-marks.rgzidx",
		"testdata/golden-v4-checkpoints.rgzidx",
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
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted indexes must be internally consistent enough to
		// re-serialise without panicking.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted index failed to re-serialise: %v", err)
		}
	})
}

// FuzzReadIndexV4 targets the version-4 checkpoint-table section: the
// corpus seeds a v4 export of each per-format span table (bzip2, LZ4,
// zstd — including a compressed gap, as a skippable frame leaves).
// Accepted inputs must survive a serialise/re-read round trip with the
// checkpoint table intact: the section feeds span extents straight
// into backend slicing, so a parser discrepancy here is an
// out-of-bounds read waiting in a backend.
func FuzzReadIndexV4(f *testing.F) {
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
	if raw, err := os.ReadFile("testdata/golden-v4-checkpoints.rgzidx"); err == nil {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
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
