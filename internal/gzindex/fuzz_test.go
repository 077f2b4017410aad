package gzindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"

	"repro/internal/workloads"
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

// trailingIndex writes, by hand, a table-first index of a member-start
// point and one point per window behind it, each record declaring the
// lengths and CRC32 in decl, with body as the bytes behind the table —
// so that a table can lie about its windows and still pass its own
// CRC32.
func trailingIndex(decl [][3]uint64, body []byte) []byte {
	var table bytes.Buffer
	writeUvarint(&table, uint64(len(decl)+1))
	table.Write([]byte{0, 0, 1}) // bit 0, offset 0, at a member start
	for _, d := range decl {
		writeUvarint(&table, 1000)
		writeUvarint(&table, 10_000)
		table.WriteByte(2)
		writeUvarint(&table, d[0])
		writeUvarint(&table, d[1])
		binary.Write(&table, binary.LittleEndian, uint32(d[2]))
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(windowsTrail | 1 | 4)
	writeUvarint(&buf, 1<<20)
	writeUvarint(&buf, 1<<20)
	writeUvarint(&buf, 1<<22)
	buf.Write(make([]byte, 8)) // the fingerprint
	writeUvarint(&buf, uint64(table.Len()+4))
	buf.Write(table.Bytes())
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(body)
	return buf.Bytes()
}

// FuzzTrailingWindows forges the table of a table-first index whose
// table CRC32 holds: one window's declared raw or compressed length, or
// its CRC32, lies, or the windows are cut short. Every read path must
// then fail, on import or at the first Bytes of some window, and what it
// allocates stays within the file plus the declared raw lengths, which
// the import caps; a table that tells the truth serves every window.
func FuzzTrailingWindows(f *testing.F) {
	f.Add(uint64(1), uint8(0), int32(0), int32(0), uint32(0), uint16(0))
	f.Add(uint64(2), uint8(1), int32(-3), int32(0), uint32(0), uint16(0))
	f.Add(uint64(3), uint8(2), int32(5), int32(0), uint32(0), uint16(0))
	f.Add(uint64(4), uint8(0), int32(0), int32(-1), uint32(0), uint16(0))
	f.Add(uint64(5), uint8(1), int32(0), int32(1<<20), uint32(0), uint16(0))
	f.Add(uint64(6), uint8(2), int32(1<<30), int32(0), uint32(0), uint16(0))
	f.Add(uint64(7), uint8(1), int32(0), int32(0), uint32(1), uint16(0))
	f.Add(uint64(8), uint8(0), int32(0), int32(0), uint32(0), uint16(7))
	f.Fuzz(func(t *testing.T, seed uint64, which uint8, compDelta, rawDelta int32, crcXor uint32, cut uint16) {
		text := workloads.SilesiaLike(3*20_000, seed)
		var decl [][3]uint64
		var body []byte
		var raws [][]byte
		for i := range 3 {
			raw := text[i*20_000 : i*20_000+5_000*(i+1)]
			raws = append(raws, raw)
			comp, err := flateCompress(raw)
			if err != nil {
				t.Fatal(err)
			}
			decl = append(decl, [3]uint64{uint64(len(raw)), uint64(len(comp)), uint64(crc32.ChecksumIEEE(comp))})
			body = append(body, comp...)
		}
		k := int(which) % len(decl)
		decl[k][0] = uint64(int64(decl[k][0]) + int64(rawDelta))
		decl[k][1] = uint64(int64(decl[k][1]) + int64(compDelta))
		decl[k][2] ^= uint64(crcXor)
		body = body[:len(body)-int(cut)%len(body)]
		data := trailingIndex(decl, body)
		honest := compDelta == 0 && rawDelta == 0 && crcXor == 0 && int(cut)%len(body) == 0
		var declared uint64
		for _, d := range decl {
			declared += min(d[0], maxWindowRaw)
		}
		for _, p := range readPaths {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ix, err := p.read(data)
			if err == nil {
				err = windowsErr(ix)
			}
			runtime.ReadMemStats(&after)
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(data))+declared+256<<10; alloc > limit {
				t.Fatalf("%s: %d bytes allocated, want at most %d", p.name, alloc, limit)
			}
			if honest != (err == nil) {
				t.Fatalf("%s: honest table %v, read: %v", p.name, honest, err)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: untyped error %v", p.name, err)
			}
			for i := 0; err == nil && i < len(raws); i++ {
				if got, _, _ := windowBytes(ix, uint64(1000*(i+1))); !bytes.Equal(got, raws[i]) {
					t.Fatalf("%s: window %d: %d bytes, want %d", p.name, i, len(got), len(raws[i]))
				}
			}
		}
	})
}
