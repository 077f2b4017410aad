package gzindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenIndex is the index of the golden-v5 fixture without its
// fingerprint (goldenIndexFP adds it). The fixtures golden-v5*.rgzidx
// but one were written before the windows trailed the table, and each
// must parse back to exactly its index; golden-v5-trailing.rgzidx and
// golden-v5-trailing-checkpoints.rgzidx are the layout every writer
// emits, and WriteTo must write their indexes back byte for byte. A change that breaks either is an on-disk format break
// and must bump the version magic instead.
func goldenIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(4 << 20)
	ix.Finalized = true
	ix.CompressedSize = 123456
	ix.UncompressedSize = 654321
	for _, e := range []struct {
		p   SeekPoint
		win []byte
	}{
		{SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil},
		{SeekPoint{CompressedBitOffset: 100_003, UncompressedOffset: 262144}, bytes.Repeat([]byte("window!?"), 4096)},
		{SeekPoint{CompressedBitOffset: 220_111, UncompressedOffset: 524288}, []byte("short tail window")},
	} {
		if err := ix.Add(e.p, e.win); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func assertEqualIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.Len() != want.Len() || got.ChunkSize != want.ChunkSize ||
		got.Finalized != want.Finalized ||
		got.CompressedSize != want.CompressedSize ||
		got.UncompressedSize != want.UncompressedSize {
		t.Fatalf("metadata mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	for i := 0; i < want.Len(); i++ {
		if got.Point(i) != want.Point(i) {
			t.Fatalf("point %d: got %+v want %+v", i, got.Point(i), want.Point(i))
		}
		w1, ok1, err1 := windowBytes(want, want.Point(i).CompressedBitOffset)
		w2, ok2, err2 := windowBytes(got, want.Point(i).CompressedBitOffset)
		if err1 != nil || err2 != nil || ok1 != ok2 || !bytes.Equal(w1, w2) {
			t.Fatalf("window %d mismatch (ok %v/%v)", i, ok1, ok2)
		}
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// goldenIndexFP is goldenIndex plus a source fingerprint.
func goldenIndexFP(t *testing.T) *Index {
	ix := goldenIndex(t)
	ix.SourceFP = &Fingerprint{Head: 0x11223344, Tail: 0x55667788}
	return ix
}

// TestGoldenV4: the version-4 fixture, written before points inside
// blocks, is not read; the error says to export the index again.
func TestGoldenV4(t *testing.T) {
	raw := readGolden(t, "golden-v4.rgzidx")
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("version 4: %v", err)
	}
}

// readOldLayout reads a fixture written with the windows inside the
// table both ways, and its index written back out, which is table-first,
// and returns what the stream read gave after checking that the others
// agree with it.
func readOldLayout(t *testing.T, name string) *Index {
	t.Helper()
	raw := readGolden(t, name)
	if raw[len(magic)]&windowsTrail != 0 {
		t.Fatalf("%s is table-first", name)
	}
	got, err := readAllPaths(t, raw)
	if err != nil {
		t.Fatal(err)
	}
	out := serialized(t, got)
	if out[len(magic)]&windowsTrail == 0 {
		t.Fatalf("%s written back in the old layout", name)
	}
	back, err := readAllPaths(t, out)
	if err != nil {
		t.Fatalf("%s written back: %v", name, err)
	}
	assertEqualIndex(t, back, got)
	assertEqualMarks(t, back, got)
	assertEqualCheckpoints(t, back, got)
	return got
}

func TestGoldenV5(t *testing.T) {
	got := readOldLayout(t, "golden-v5.rgzidx")
	want := goldenIndexFP(t)
	assertEqualIndex(t, got, want)
	if got.SourceFP == nil || *got.SourceFP != *want.SourceFP {
		t.Fatalf("fingerprint: got %+v, want %+v", got.SourceFP, want.SourceFP)
	}
}

// TestGoldenV5Trailing: the table-first fixture parses back to its
// index on both read paths, and the writer still produces it byte for
// byte — from the index, from a stream's import of it, and from a
// file's, which reads the windows it never inflated from the file. The
// format is deterministic, so this locks the layout, not just
// parseability.
func TestGoldenV5Trailing(t *testing.T) {
	raw := readGolden(t, "golden-v5-trailing.rgzidx")
	want := inBlockIndex(t)
	if out := serialized(t, want); !bytes.Equal(out, raw) {
		t.Fatalf("WriteTo output diverged from the table-first golden fixture (%d vs %d bytes)", len(out), len(raw))
	}
	for _, p := range readPaths {
		got, err := p.read(raw)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if out := serialized(t, got); !bytes.Equal(out, raw) {
			t.Fatalf("%s: written back as %d bytes, not the fixture's %d", p.name, len(out), len(raw))
		}
		assertEqualIndex(t, got, want)
		assertEqualMarks(t, got, want)
		if *got.SourceFP != *want.SourceFP {
			t.Fatalf("%s: fingerprint %+v", p.name, got.SourceFP)
		}
	}
}

// checkpointIndex is the sample serialised into
// golden-v5-checkpoints.rgzidx: a zstd-style span table with a
// compressed gap (skippable frame) between the second and third span,
// no seek points.
func checkpointIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(0)
	ix.Finalized = true
	ix.CompressedSize = 10_000
	ix.UncompressedSize = 5_000_000
	ix.SourceFP = &Fingerprint{Head: 0xAABBCCDD, Tail: 0x99887766}
	ix.Checkpoints = &CheckpointTable{
		Format: "zstd",
		Flags:  0x03,
		Spans: []Checkpoint{
			{CompOff: 0, CompEnd: 3_000, DecompOff: 0, DecompSize: 2_000_000},
			{CompOff: 3_000, CompEnd: 5_500, DecompOff: 2_000_000, DecompSize: 1_500_000},
			{CompOff: 6_000, CompEnd: 9_999, DecompOff: 3_500_000, DecompSize: 1_500_000},
		},
	}
	return ix
}

func assertEqualCheckpoints(t *testing.T, got, want *Index) {
	t.Helper()
	g, w := got.Checkpoints, want.Checkpoints
	if (g == nil) != (w == nil) {
		t.Fatalf("Checkpoints presence: got %v, want %v", g != nil, w != nil)
	}
	if g == nil {
		return
	}
	if g.Format != w.Format || g.Flags != w.Flags || len(g.Spans) != len(w.Spans) {
		t.Fatalf("checkpoint table header mismatch:\ngot  %+v\nwant %+v", g, w)
	}
	for i := range w.Spans {
		if g.Spans[i] != w.Spans[i] {
			t.Fatalf("span %d: got %+v want %+v", i, g.Spans[i], w.Spans[i])
		}
	}
}

func TestGoldenV5Checkpoints(t *testing.T) {
	got := readOldLayout(t, "golden-v5-checkpoints.rgzidx")
	want := checkpointIndex(t)
	assertEqualCheckpoints(t, got, want)
	if got.CompressedSize != want.CompressedSize || got.UncompressedSize != want.UncompressedSize {
		t.Fatalf("sizes: got %d/%d, want %d/%d",
			got.CompressedSize, got.UncompressedSize, want.CompressedSize, want.UncompressedSize)
	}
}

// TestGoldenV5TrailingCheckpoints: the checkpoint table every bzip2,
// LZ4 and zstd export carries, written table-first
// (golden-v5-trailing-checkpoints.rgzidx), parses back on both read
// paths, and the writer produces the fixture byte for byte, from the
// index and from each import of it.
func TestGoldenV5TrailingCheckpoints(t *testing.T) {
	raw := readGolden(t, "golden-v5-trailing-checkpoints.rgzidx")
	want := checkpointIndex(t)
	if raw[len(magic)]&windowsTrail == 0 {
		t.Fatal("the fixture is not table-first")
	}
	if out := serialized(t, want); !bytes.Equal(out, raw) {
		t.Fatalf("WriteTo output diverged from the table-first checkpoint fixture (%d vs %d bytes)", len(out), len(raw))
	}
	for _, p := range readPaths {
		got, err := p.read(raw)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		assertEqualCheckpoints(t, got, want)
		if got.CompressedSize != want.CompressedSize || got.UncompressedSize != want.UncompressedSize || *got.SourceFP != *want.SourceFP {
			t.Fatalf("%s: header %d/%d %+v", p.name, got.CompressedSize, got.UncompressedSize, got.SourceFP)
		}
		if out := serialized(t, got); !bytes.Equal(out, raw) {
			t.Fatalf("%s: written back as %d bytes, not the fixture's %d", p.name, len(out), len(raw))
		}
	}
}

func TestCheckpointTableRoundTrip(t *testing.T) {
	want := checkpointIndex(t)
	var buf bytes.Buffer
	if _, err := want.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualCheckpoints(t, got, want)
}

func TestCheckpointTableRejectsBadShapes(t *testing.T) {
	// Serialisation-side: overlapping or inverted spans must not write.
	bad := checkpointIndex(t)
	bad.Checkpoints.Spans[1].CompOff = 100 // overlaps span 0
	if _, err := bad.WriteTo(io.Discard); err == nil {
		t.Fatal("overlapping checkpoint spans serialised")
	}
	short := checkpointIndex(t)
	short.Checkpoints.Format = "xz"
	if _, err := short.WriteTo(io.Discard); err == nil {
		t.Fatal("2-byte format tag serialised")
	}
	// Read-side: a table whose decompressed total disagrees with the
	// declared uncompressed size is rejected by validation.
	lying := checkpointIndex(t)
	lying.UncompressedSize = 1
	var buf bytes.Buffer
	if _, err := lying.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("size-lying checkpoint table: err = %v, want ErrCorrupt", err)
	}
	// ...as is one whose spans overrun the compressed size.
	overrun := checkpointIndex(t)
	overrun.CompressedSize = 9_000
	buf.Reset()
	if _, err := overrun.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrunning checkpoint table: err = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointIndexRejectsEveryByteFlip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := checkpointIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x01
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("byte flip at offset %d accepted", i)
		}
	}
}

// markedIndex is the sample serialised into golden-v5-marks.rgzidx:
// member marks on two points, windows on two, MemberMarksComplete set.
func markedIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(1 << 20)
	ix.Finalized = true
	ix.MemberMarksComplete = true
	ix.CompressedSize = 999_999
	ix.UncompressedSize = 3_500_000
	if err := ix.Add(SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
		t.Fatal(err)
	}
	ix.AddMemberEnd(0, MemberEnd{RelEnd: 700_000, CRC32: 0xDEADBEEF})
	if err := ix.Add(SeekPoint{CompressedBitOffset: 2_000_001, UncompressedOffset: 1_000_000}, bytes.Repeat([]byte{0x5A}, 32768)); err != nil {
		t.Fatal(err)
	}
	ix.AddMemberEnd(2_000_001, MemberEnd{RelEnd: 400_000, CRC32: 0x01020304})
	ix.AddMemberEnd(2_000_001, MemberEnd{RelEnd: 900_000, CRC32: 0xCAFEBABE})
	if err := ix.Add(SeekPoint{CompressedBitOffset: 5_500_007, UncompressedOffset: 2_500_000}, []byte("tail window")); err != nil {
		t.Fatal(err)
	}
	return ix
}

func assertEqualMarks(t *testing.T, got, want *Index) {
	t.Helper()
	if got.MemberMarksComplete != want.MemberMarksComplete {
		t.Fatalf("MemberMarksComplete: got %v want %v", got.MemberMarksComplete, want.MemberMarksComplete)
	}
	for i := 0; i < want.Len(); i++ {
		off := want.Point(i).CompressedBitOffset
		g, w := got.MemberEnds(off), want.MemberEnds(off)
		if len(g) != len(w) {
			t.Fatalf("point %d: %d marks, want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("point %d mark %d: got %+v want %+v", i, j, g[j], w[j])
			}
		}
	}
}

func TestGoldenV5WithMemberMarks(t *testing.T) {
	got := readOldLayout(t, "golden-v5-marks.rgzidx")
	want := markedIndex(t)
	assertEqualIndex(t, got, want)
	assertEqualMarks(t, got, want)
}

// inBlockIndex is the sample serialised into golden-v5-inblock.rgzidx:
// two points inside the block that starts at the second point, one
// inside a block that has no point of its own, a member mark on one.
func inBlockIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(256 << 10)
	ix.Finalized = true
	ix.MemberMarksComplete = true
	ix.CompressedSize = 400_000
	ix.UncompressedSize = 1_500_000
	ix.SourceFP = &Fingerprint{Head: 0x0BADF00D, Tail: 0x12345678}
	for _, e := range []struct {
		p   SeekPoint
		win []byte
	}{
		{SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil},
		{SeekPoint{CompressedBitOffset: 700_005, UncompressedOffset: 262_144}, bytes.Repeat([]byte("abc"), 10_000)},
		{SeekPoint{CompressedBitOffset: 1_400_321, UncompressedOffset: 524_301, BlockHeaderBit: 700_005}, []byte("window inside a block")},
		{SeekPoint{CompressedBitOffset: 2_100_777, UncompressedOffset: 786_500, BlockHeaderBit: 700_005}, []byte("another")},
		{SeekPoint{CompressedBitOffset: 2_800_002, UncompressedOffset: 1_048_600, BlockHeaderBit: 2_500_000}, []byte("next block")},
	} {
		if err := ix.Add(e.p, e.win); err != nil {
			t.Fatal(err)
		}
	}
	ix.AddMemberEnd(2_100_777, MemberEnd{RelEnd: 100_000, CRC32: 0x89ABCDEF})
	return ix
}

func TestGoldenV5InBlock(t *testing.T) {
	got := readOldLayout(t, "golden-v5-inblock.rgzidx")
	want := inBlockIndex(t)
	assertEqualIndex(t, got, want)
	assertEqualMarks(t, got, want)
}

// forged serialises the in-block sample with its point i replaced by p,
// as no writer would: Add refuses what the reader has to refuse too.
func forged(t *testing.T, i int, p SeekPoint) []byte {
	t.Helper()
	ix := inBlockIndex(t)
	ix.points[i] = p
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsForgedHeaderDistances: the distance back to an in-block
// point's header must be nonzero, reach no further than bit 1, not go
// back behind the header of the in-block point before, nor before the
// last point that is not inside a block.
func TestReadRejectsForgedHeaderDistances(t *testing.T) {
	ix := inBlockIndex(t)
	at := func(i int, header uint64) SeekPoint {
		p := ix.Point(i)
		p.BlockHeaderBit = header
		return p
	}
	for _, c := range []struct {
		name string
		i    int
		p    SeekPoint
	}{
		{"zero", 4, at(4, ix.Point(4).CompressedBitOffset)},
		// The writer subtracts: a header past the point wraps.
		{"wrapping", 4, at(4, ix.Point(4).CompressedBitOffset+1)},
		{"decreasing", 4, at(4, 700_004)},
		{"before the block-start point", 2, at(2, 700_004)},
		{"at a member start", 4, SeekPoint{CompressedBitOffset: 2_800_002, UncompressedOffset: 1_048_600, BlockHeaderBit: 2_500_000, AtMemberStart: true}},
	} {
		if _, err := Read(bytes.NewReader(forged(t, c.i, c.p))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", c.name, err)
		}
	}
	// The rules hold for the first point too, and on the way in.
	first := New(1 << 20)
	if err := first.Add(SeekPoint{CompressedBitOffset: 100, BlockHeaderBit: 80}, []byte("w")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("in-block first point: %v", err)
	}
	if err := ix.Add(SeekPoint{CompressedBitOffset: 3_000_000, UncompressedOffset: 1_200_000, BlockHeaderBit: 2_400_000}, []byte("w")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decreasing header accepted by Add: %v", err)
	}
}

// tableEnd is where the table of the index raw ends, behind its CRC32:
// the end of the file in the old layout.
func tableEnd(raw []byte) int {
	if raw[len(magic)]&windowsTrail == 0 {
		return len(raw)
	}
	at := len(magic) + 1
	for range 3 { // chunk size, file sizes
		_, n := binary.Uvarint(raw[at:])
		at += n
	}
	if raw[len(magic)]&4 != 0 {
		at += 8
	}
	n, k := binary.Uvarint(raw[at:])
	return at + k + int(n)
}

// reseal recomputes raw's table checksum.
func reseal(raw []byte) []byte {
	end := tableEnd(raw)
	binary.LittleEndian.PutUint32(raw[end-4:end], crc32.ChecksumIEEE(raw[:end-4]))
	return raw
}

// TestReadRefusesUnknownFlags: a flag bit this version does not know, in
// the header or in a record, belongs to a later version's field.
func TestReadRefusesUnknownFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := goldenIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := bytes.Clone(buf.Bytes())
	hdr[len(magic)] |= 0x20
	if _, err := Read(bytes.NewReader(reseal(hdr))); !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("unknown header flag: %v", err)
	}
	// The first record follows the header's fields: flags, chunk size
	// (4 MiB is three bytes), sizes, table length, point count, two deltas.
	rec := bytes.Clone(buf.Bytes())
	i := bytes.Index(rec[len(magic):], []byte{0x03, 0x00, 0x00, 0x01}) // count 3, point 0 at 0/0, member start
	if i < 0 {
		t.Fatal("first record not found")
	}
	rec[len(magic)+i+3] |= 0x80
	if _, err := Read(bytes.NewReader(reseal(rec))); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("unknown record flag: %v", err)
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	want := goldenIndexFP(t)
	var buf bytes.Buffer
	if _, err := want.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SourceFP == nil || *got.SourceFP != *want.SourceFP {
		t.Fatalf("fingerprint: got %+v, want %+v", got.SourceFP, want.SourceFP)
	}
}

func TestComputeFingerprint(t *testing.T) {
	// Distinct content of identical length must yield distinct
	// fingerprints — the wrong-file import hole this exists to close.
	a := bytes.Repeat([]byte("abcdefgh"), 2048) // 16 KiB
	b := bytes.Clone(a)
	b[10_000] ^= 1 // differs only in the middle... which neither span covers
	c := bytes.Clone(a)
	c[1] ^= 1 // head difference
	d := bytes.Clone(a)
	d[len(d)-2] ^= 1 // tail difference

	fa, err := ComputeFingerprint(bytes.NewReader(a), int64(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := ComputeFingerprint(bytes.NewReader(b), int64(len(b)))
	fc, _ := ComputeFingerprint(bytes.NewReader(c), int64(len(c)))
	fd, _ := ComputeFingerprint(bytes.NewReader(d), int64(len(d)))
	if fa != fb {
		t.Fatal("a mid-file difference outside both spans should not change the fingerprint")
	}
	if fa == fc || fa == fd {
		t.Fatal("head/tail differences must change the fingerprint")
	}
	// Short files: spans overlap, still deterministic.
	s1, err := ComputeFingerprint(bytes.NewReader([]byte("tiny")), 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := ComputeFingerprint(bytes.NewReader([]byte("tinz")), 4)
	if s1 == s2 {
		t.Fatal("short-file fingerprints collide")
	}
	if _, err := ComputeFingerprint(bytes.NewReader(nil), 0); err != nil {
		t.Fatalf("empty file: %v", err)
	}
}

func TestMemberMarksRoundTrip(t *testing.T) {
	want := markedIndex(t)
	var buf bytes.Buffer
	if _, err := want.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualIndex(t, got, want)
	assertEqualMarks(t, got, want)
}

func TestReadRejectsOutOfSpanMemberMarks(t *testing.T) {
	// A structurally valid, checksummed index whose member mark points
	// past its seek point's span must be rejected: imported, it would
	// desynchronise the member-CRC verification chain.
	mk := func(relEnd uint64) []byte {
		ix := New(1 << 20)
		ix.Finalized = true
		ix.MemberMarksComplete = true
		ix.CompressedSize = 1000
		ix.UncompressedSize = 5000
		if err := ix.Add(SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(SeekPoint{CompressedBitOffset: 4000, UncompressedOffset: 3000}, []byte("w")); err != nil {
			t.Fatal(err)
		}
		ix.AddMemberEnd(0, MemberEnd{RelEnd: relEnd, CRC32: 1})
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := Read(bytes.NewReader(mk(3000))); err != nil {
		t.Fatalf("mark at span edge rejected: %v", err)
	}
	if _, err := Read(bytes.NewReader(mk(3001))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-span mark: got %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsInconsistentSizes(t *testing.T) {
	// Declared file sizes must bound the seek points: importers derive
	// the final chunk's extent from them by subtraction. A finalized
	// index whose last point lies beyond either size is corrupt even
	// when its checksum is intact.
	mk := func(tweak func(*Index)) []byte {
		ix := New(1 << 20)
		ix.Finalized = true
		ix.CompressedSize = 1000
		ix.UncompressedSize = 5000
		if err := ix.Add(SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(SeekPoint{CompressedBitOffset: 4000, UncompressedOffset: 3000}, []byte("w")); err != nil {
			t.Fatal(err)
		}
		tweak(ix)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := Read(bytes.NewReader(mk(func(*Index) {}))); err != nil {
		t.Fatalf("consistent index rejected: %v", err)
	}
	if _, err := Read(bytes.NewReader(mk(func(ix *Index) { ix.UncompressedSize = 2999 }))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("undersized uncompressed size: got %v, want ErrCorrupt", err)
	}
	if _, err := Read(bytes.NewReader(mk(func(ix *Index) { ix.CompressedSize = 499 }))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("undersized compressed size: got %v, want ErrCorrupt", err)
	}
}

func TestNonFinalizedIndexWithMarksRoundTrips(t *testing.T) {
	// An in-progress index (not finalized, sizes still zero) that
	// already carries member marks must survive its own WriteTo→Read
	// round trip: the last point's span is simply unknown yet.
	ix := New(1 << 20)
	ix.CompressedSize = 1000
	if err := ix.Add(SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(SeekPoint{CompressedBitOffset: 4000, UncompressedOffset: 3000}, []byte("w")); err != nil {
		t.Fatal(err)
	}
	ix.AddMemberEnd(4000, MemberEnd{RelEnd: 500, CRC32: 7})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("library rejected its own in-progress index: %v", err)
	}
	if len(got.MemberEnds(4000)) != 1 {
		t.Fatal("mark lost in round trip")
	}
}

func TestReadRejectsWrappingMarkDeltas(t *testing.T) {
	// Marks are delta-coded; a delta that wraps uint64 would hide a
	// huge intermediate mark from validate's last-mark span check (the
	// wrapped final mark lands back in range). WriteTo reproduces the
	// wire pattern faithfully when fed out-of-order marks, so the
	// reader must reject it.
	ix := New(1 << 20)
	ix.Finalized = true
	ix.MemberMarksComplete = true
	ix.CompressedSize = 1000
	ix.UncompressedSize = 5000
	if err := ix.Add(SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil); err != nil {
		t.Fatal(err)
	}
	ix.AddMemberEnd(0, MemberEnd{RelEnd: 1 << 62, CRC32: 1})
	ix.AddMemberEnd(0, MemberEnd{RelEnd: 100, CRC32: 2}) // delta wraps
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrapping mark delta: got %v, want ErrCorrupt", err)
	}
}

func TestMarkedIndexRejectsEveryByteFlip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := markedIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("byte flip at offset %d accepted", i)
		}
	}
}

func TestReadSurvivesOverflowingVarints(t *testing.T) {
	// A corrupt/hostile varint must produce ErrCorrupt, not feed a huge
	// partial value into an allocation (historic panic: makeslice: len
	// out of range on a ~24-byte input).
	overflow := bytes.Repeat([]byte{0xFF}, 10)
	craft := func(tail ...byte) []byte {
		raw := []byte(magic)
		raw = append(raw, 0x01)                   // flags: finalized
		raw = append(raw, 0x04, 0x0A, 0x0A, 0x01) // chunk, sizes, 1 point
		raw = append(raw, 0x00, 0x00)             // point deltas
		return append(raw, tail...)
	}
	cases := map[string][]byte{
		"window-compLen-overflow": craft(append([]byte{0x02, 0x05}, overflow...)...),
		"window-rawLen-overflow":  craft(append([]byte{0x02}, overflow...)...),
		"mark-count-overflow":     craft(append([]byte{0x04}, overflow...)...),
		"point-count-overflow": append([]byte(magic+"\x01\x04\x0A\x0A"),
			overflow...),
	}
	for name, raw := range cases {
		if _, err := Read(bytes.NewReader(raw)); err == nil {
			t.Fatalf("%s: accepted", name)
		} // a panic fails the test; any error is a pass
	}
}

func TestReadRejectsEveryByteFlip(t *testing.T) {
	// The trailing CRC32 must catch a corruption of any single byte —
	// including within the compressed windows and the checksum itself.
	var buf bytes.Buffer
	if _, err := goldenIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("byte flip at offset %d accepted", i)
		}
	}
}

func TestReadRejectsEveryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := goldenIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(raw))
		}
	}
}

func TestReadErrorTaxonomy(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("GIF89a more bytes here........."))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign file: %v", err)
	}
	if _, err := Read(bytes.NewReader([]byte("RGZIDX99whatever"))); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: %v", err)
	}
	// The versions before the fingerprint, the checkpoint table and the
	// points inside blocks are not read: the error says to export the
	// index again.
	var cur bytes.Buffer
	goldenIndexFP(t).WriteTo(&cur)
	for _, m := range []string{"RGZIDX01", "RGZIDX02", "RGZIDX03", "RGZIDX04"} {
		old := append([]byte(m), cur.Bytes()[len(m):]...)
		if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), "re-export") {
			t.Fatalf("%s: %v", m, err)
		}
	}
	clean := serialized(t, goldenIndex(t))
	raw := bytes.Clone(clean)
	raw[tableEnd(raw)-1] ^= 0xFF // corrupt only the table checksum
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum corruption: %v", err)
	}
	// The last byte is the last window's, which fails its own checksum
	// on the way in from a stream.
	raw = bytes.Clone(clean)
	raw[len(raw)-1] ^= 0xFF
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("window corruption: %v", err)
	}
}

func TestReadFrom(t *testing.T) {
	want := goldenIndex(t)
	var buf bytes.Buffer
	n, err := want.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ix Index
	m, err := ix.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("ReadFrom consumed %d bytes, WriteTo wrote %d", m, n)
	}
	assertEqualIndex(t, &ix, want)

	// A failed ReadFrom must not leave partial state behind.
	before := ix.Len()
	if _, err := ix.ReadFrom(bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Fatal("truncated ReadFrom succeeded")
	}
	if ix.Len() != before {
		t.Fatal("failed ReadFrom mutated the index")
	}
}

func TestDeltaCodingIsCompact(t *testing.T) {
	// 1000 windowless checkpoints with ~4 MiB compressed spacing: a
	// fixed-width encoding takes 21 bytes per record; delta varints must
	// stay below half that.
	ix := New(4 << 20)
	ix.Finalized = true
	for i := uint64(1); i <= 1000; i++ {
		if err := ix.Add(SeekPoint{
			CompressedBitOffset: i * (4 << 23),
			UncompressedOffset:  i * (10 << 20),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ix.CompressedSize = 1001 * (4 << 20)
	ix.UncompressedSize = 1001 * (10 << 20)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if perRecord := buf.Len() / 1000; perRecord > 10 {
		t.Fatalf("%d bytes per checkpoint record; delta coding broken", perRecord)
	}
}

func TestReadStopsAtIndexEnd(t *testing.T) {
	// An index followed by trailing data (e.g. read from a combined
	// stream) must parse without consuming past its own trailer.
	var buf bytes.Buffer
	goldenIndex(t).WriteTo(&buf)
	indexLen := buf.Len()
	buf.WriteString("TRAILING GARBAGE THAT IS NOT PART OF THE INDEX")
	r := bytes.NewReader(buf.Bytes())
	got, err := Read(r)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualIndex(t, got, goldenIndex(t))
	if consumed := int(r.Size()) - r.Len(); consumed != indexLen {
		t.Fatalf("Read consumed %d bytes, index is %d", consumed, indexLen)
	}
}

var _ io.ReaderFrom = (*Index)(nil)
var _ io.WriterTo = (*Index)(nil)
