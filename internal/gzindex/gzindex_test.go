package gzindex

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/quick"
)

func sampleIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(4 << 20)
	ix.CompressedSize = 123456
	ix.UncompressedSize = 654321
	ix.Finalized = true
	points := []struct {
		p      SeekPoint
		window []byte
	}{
		{SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, nil},
		{SeekPoint{CompressedBitOffset: 1001, UncompressedOffset: 4096}, bytes.Repeat([]byte{0xAB}, 32768)},
		{SeekPoint{CompressedBitOffset: 2002, UncompressedOffset: 8192}, []byte("short window")},
		{SeekPoint{CompressedBitOffset: 3003, UncompressedOffset: 8192}, []byte{}},
	}
	for _, e := range points {
		if err := ix.Add(e.p, e.window); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestAddAndLookup(t *testing.T) {
	ix := sampleIndex(t)
	if ix.Len() != 4 {
		t.Fatalf("len %d", ix.Len())
	}
	if p := ix.Point(1); p.CompressedBitOffset != 1001 || p.UncompressedOffset != 4096 {
		t.Fatalf("point 1: %+v", p)
	}
	w, ok, err := windowBytes(ix, 1001)
	if err != nil || !ok || len(w) != 32768 {
		t.Fatalf("window 1001: ok=%v len=%d", ok, len(w))
	}
	if _, ok := ix.Window(999); ok {
		t.Fatal("window for unknown offset")
	}
}

func TestAddRejectsOutOfOrder(t *testing.T) {
	ix := New(0)
	ix.Add(SeekPoint{CompressedBitOffset: 100, UncompressedOffset: 50}, nil)
	if err := ix.Add(SeekPoint{CompressedBitOffset: 100, UncompressedOffset: 60}, nil); err == nil {
		t.Fatal("equal compressed offset accepted")
	}
	if err := ix.Add(SeekPoint{CompressedBitOffset: 200, UncompressedOffset: 40}, nil); err == nil {
		t.Fatal("decreasing uncompressed offset accepted")
	}
	// Equal uncompressed offsets are legal (empty members / split points).
	if err := ix.Add(SeekPoint{CompressedBitOffset: 300, UncompressedOffset: 50}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTruncate drops points with their windows and marks, and leaves the
// index taking what may follow the points it keeps: an in-block point
// whose header lies before a dropped point.
func TestTruncate(t *testing.T) {
	ix := sampleIndex(t)
	ix.AddMemberEnd(2002, MemberEnd{RelEnd: 0, CRC32: 7})
	ix.Truncate(2)
	if ix.Len() != 2 || ix.MemberEnds(2002) != nil {
		t.Fatalf("%d points, marks %v left", ix.Len(), ix.MemberEnds(2002))
	}
	if _, ok := ix.Window(2002); ok {
		t.Fatal("a dropped point's window is left")
	}
	if err := ix.Add(SeekPoint{CompressedBitOffset: 1500, UncompressedOffset: 6000, BlockHeaderBit: 1001}, nil); err != nil {
		t.Fatal(err)
	}
	ix.Truncate(2)
	if err := ix.Add(SeekPoint{CompressedBitOffset: 1700, UncompressedOffset: 7000, BlockHeaderBit: 1000}, nil); err == nil {
		t.Fatal("a header before the last kept point was accepted")
	}
}

// TestAddMemberGroups: a group closes before the first member with
// output once it holds the target, and members without output join the
// group before them, the first member's group included.
func TestAddMemberGroups(t *testing.T) {
	ix := New(0)
	for i, size := range []uint64{0, 60, 40, 0, 50, 70, 0} {
		if err := ix.AddMember(uint64(100*i), size, uint32(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	want := []struct {
		p     SeekPoint
		marks []MemberEnd
	}{
		{SeekPoint{CompressedBitOffset: 0, UncompressedOffset: 0, AtMemberStart: true}, []MemberEnd{{0, 0}, {60, 1}, {100, 2}, {100, 3}}},
		{SeekPoint{CompressedBitOffset: 400 * 8, UncompressedOffset: 100, AtMemberStart: true}, []MemberEnd{{50, 4}, {120, 5}, {120, 6}}},
	}
	if ix.Len() != len(want) {
		t.Fatalf("%d points, want %d", ix.Len(), len(want))
	}
	for i, w := range want {
		if p, marks := ix.Point(i), ix.MemberEnds(w.p.CompressedBitOffset); p != w.p || !slices.Equal(marks, w.marks) {
			t.Errorf("point %d is %+v with marks %v, want %+v with %v", i, p, marks, w.p, w.marks)
		}
	}
}

func TestFind(t *testing.T) {
	ix := sampleIndex(t)
	cases := []struct {
		target uint64
		want   int
		ok     bool
	}{
		{0, 0, true},
		{4095, 0, true},
		{4096, 1, true},
		{8191, 1, true},
		{8192, 3, true}, // last of the two equal-offset points
		{1 << 40, 3, true},
	}
	for _, c := range cases {
		got, ok := ix.Find(c.target)
		if ok != c.ok || got != c.want {
			t.Fatalf("Find(%d) = %d,%v want %d,%v", c.target, got, ok, c.want, c.ok)
		}
	}
	empty := New(0)
	if _, ok := empty.Find(0); ok {
		t.Fatal("Find on empty index succeeded")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	ix := sampleIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ix.Len() || got.CompressedSize != ix.CompressedSize ||
		got.UncompressedSize != ix.UncompressedSize || got.Finalized != ix.Finalized ||
		got.ChunkSize != ix.ChunkSize {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, ix)
	}
	for i := 0; i < ix.Len(); i++ {
		if got.Point(i) != ix.Point(i) {
			t.Fatalf("point %d: %+v vs %+v", i, got.Point(i), ix.Point(i))
		}
		w1, ok1, err1 := windowBytes(ix, ix.Point(i).CompressedBitOffset)
		w2, ok2, err2 := windowBytes(got, ix.Point(i).CompressedBitOffset)
		if err1 != nil || err2 != nil || ok1 != ok2 || !bytes.Equal(w1, w2) {
			t.Fatalf("window %d mismatch (ok %v/%v, %d vs %d bytes)", i, ok1, ok2, len(w1), len(w2))
		}
	}
}

func TestSerializedWindowsCompress(t *testing.T) {
	// 32 KiB windows of repetitive data must not be stored verbatim.
	ix := New(1 << 20)
	ix.Finalized = true
	win := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB
	for i := uint64(1); i <= 64; i++ {
		if err := ix.Add(SeekPoint{CompressedBitOffset: i * 1000, UncompressedOffset: i * 5000}, win); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := 64 * len(win)
	if buf.Len() > raw/4 {
		t.Fatalf("index %d bytes for %d bytes of windows: windows not compressed", buf.Len(), raw)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an index file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	ix := sampleIndex(t)
	var buf bytes.Buffer
	ix.WriteTo(&buf)
	raw := buf.Bytes()
	for _, cut := range []int{1, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(offsets []uint32, winSeed byte) bool {
		ix := New(64 << 10)
		ix.Finalized = true
		bit, dec := uint64(0), uint64(0)
		for i, o := range offsets {
			bit += uint64(o%100_000) + 1
			dec += uint64(o % 65536)
			var win []byte
			if i%2 == 1 {
				win = bytes.Repeat([]byte{winSeed ^ byte(i)}, int(o%200))
			}
			if err := ix.Add(SeekPoint{CompressedBitOffset: bit, UncompressedOffset: dec}, win); err != nil {
				return false
			}
		}
		ix.CompressedSize = bit/8 + 1
		ix.UncompressedSize = dec
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil || got.Len() != ix.Len() {
			return false
		}
		for i := 0; i < ix.Len(); i++ {
			if got.Point(i) != ix.Point(i) {
				return false
			}
			w1, ok1, err1 := windowBytes(ix, ix.Point(i).CompressedBitOffset)
			w2, ok2, err2 := windowBytes(got, got.Point(i).CompressedBitOffset)
			if err1 != nil || err2 != nil || ok1 != ok2 || !bytes.Equal(w1, w2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteToReportsBytes(t *testing.T) {
	ix := sampleIndex(t)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	// WriteTo must also work for non-buffer writers.
	n2, err := ix.WriteTo(io.Discard)
	if err != nil || n2 != n {
		t.Fatalf("io.Discard: %d, %v", n2, err)
	}
}
