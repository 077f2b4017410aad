package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
)

// TestFirstEntryOnlyChangesCellZero: confirming the file's first entry
// ahead of the rest of its unit changes the index a cold pass builds in
// the first cell's entries and nowhere else. Against a pass whose first
// unit is the whole cell, the seek points, windows and member marks from
// the second unit on are the same; the first unit gains an entry a
// quarter chunk long, at most a match further.
func TestFirstEntryOnlyChangesCellZero(t *testing.T) {
	const chunk = 64 << 10
	data := mkText(31, 2<<20)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	index := func(firstEntry uint64) *gzindex.Index {
		r, err := NewReader(filereader.MemoryReader(comp), Config{Parallelism: 2, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.codec.firstEntry = firstEntry
		if got := readAll(t, &seqReader{Reader: r}); !bytes.Equal(got, data) {
			t.Fatal("cold pass decoded wrong bytes")
		}
		return r.Index()
	}
	split, whole := index(chunk/4), index(0)
	type entry struct {
		gzindex.SeekPoint
		window  []byte
		members []gzindex.MemberEnd
	}
	entries := func(ix *gzindex.Index) []entry {
		out := make([]entry, ix.Len())
		for i := range out {
			p := ix.Point(i)
			out[i] = entry{SeekPoint: p, members: ix.MemberEnds(p.CompressedBitOffset)}
			if w, ok := ix.Window(p.CompressedBitOffset); ok {
				if out[i].window, err = w.Bytes(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	s, w := entries(split), entries(whole)
	// The first unit ends at the first entry past the first cell: every
	// entry from there on must match.
	unitEnd := 0
	for unitEnd < len(w) && w[unitEnd].CompressedBitOffset < chunk*8 {
		unitEnd++
	}
	if unitEnd < 2 || unitEnd == len(w) {
		t.Fatalf("the whole first unit has %d of %d entries; the corpus does not show the split", unitEnd, len(w))
	}
	cut := len(s) - (len(w) - unitEnd)
	if cut != unitEnd+1 || !reflect.DeepEqual(s[cut:], w[unitEnd:]) {
		t.Fatalf("entries past the first unit differ: %d and %d entries, the first unit %d and %d", len(s), len(w), cut, unitEnd)
	}
	if first := s[1].UncompressedOffset; first < chunk/4 || first > chunk/4+258 {
		t.Fatalf("first entry is %d bytes long, want a quarter chunk (%d) and at most a match more", first, chunk/4)
	}
	t.Logf("first unit: %d entries, %d whole; %d entries past it", cut, unitEnd, len(w)-unitEnd)
}
