package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/spanengine"
)

// TestFirstEntryOnlyChangesCellZero: confirming the file's first entry
// ahead of the rest of its unit changes the index a cold pass builds in
// the first cell's entries and nowhere else. Against a pass whose first
// unit is the whole cell, the seek points, windows and member marks from
// the second unit on are the same; the first unit gains an entry as long
// as a stream's first round, at most a match further — at a chunk size
// whose quarter is longer.
func TestFirstEntryOnlyChangesCellZero(t *testing.T) {
	const chunk = 256 << 10
	data := mkText(31, 6<<20)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	index := func(split bool) *gzindex.Index {
		r, err := NewReader(filereader.MemoryReader(comp), Config{Parallelism: 2, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !split {
			r.gz().firstEntry = 0
		}
		if got := readAll(t, &seqReader{Reader: r}); !bytes.Equal(got, data) {
			t.Fatal("cold pass decoded wrong bytes")
		}
		return r.index()
	}
	split, whole := index(true), index(false)
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
	if first := s[1].UncompressedOffset; first < spanengine.FirstRound || first > spanengine.FirstRound+258 {
		t.Fatalf("first entry is %d bytes long, want a first round (%d) and at most a match more", first, spanengine.FirstRound)
	}
	t.Logf("first unit: %d entries, %d whole; %d entries past it", cut, unitEnd, len(w)-unitEnd)
}

// TestLongBlockUnitsPause: over a file that is one Huffman block, every
// frontier unit pauses inside the block, guessScan past the end of the
// cell it began in at the chunk size here, and the next decodes on from
// there. The pass decodes the right bytes with its member check, issues
// no guess once the frontier stands in the block, and builds the same
// index at one worker and four; reads through that index give the same
// bytes.
func TestLongBlockUnitsPause(t *testing.T) {
	const chunk = 64 << 10
	data := mkBase64(32, 3<<20)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 1, SingleBlock: true, Strategy: gzipw.DynamicOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) < 6*guessScan {
		t.Fatalf("%d compressed bytes: too few long units to show", len(comp))
	}
	var first []byte
	for _, p := range []int{1, 4} {
		r := open(t, comp, Config{Parallelism: p, ChunkSize: chunk, VerifyChecksums: true})
		if got := readAll(t, r); !bytes.Equal(got, data) {
			t.Fatalf("P=%d: cold pass decoded wrong bytes", p)
		}
		st := r.eng.Stats()
		if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
			t.Fatalf("P=%d: member check failed", p)
		}
		// Past its cap a unit pauses at the next point, a sixteenth of a
		// chunk of output on.
		if st.MaxPastStop > guessScan+chunk/16 {
			t.Errorf("P=%d: a unit reached %d B past its stop", p, st.MaxPastStop)
		}
		// The guesses issued before the first unit found the block long:
		// at most twice the prefetch depth.
		if limit := uint64(2 * 2 * p); st.GuessTasks > limit {
			t.Errorf("P=%d: %d guesses over one block, want <= %d", p, st.GuessTasks, limit)
		}
		var ix bytes.Buffer
		if err := r.exportIndex(&ix); err != nil {
			t.Fatal(err)
		}
		t.Logf("P=%d: %d spans, %d decoded bytes, %d guesses, %d finder bytes, %d B past a stop at most",
			p, r.eng.NumSpans(), r.eng.Stats().DecodedBytes, st.GuessTasks, st.FinderBytes, st.MaxPastStop)
		if first == nil {
			first = ix.Bytes()
		} else if !bytes.Equal(ix.Bytes(), first) {
			t.Errorf("P=%d: the exported index differs from the one at P=1", p)
		}
	}
	// Halfway through, the frontier stands in the block: no candidate past
	// it maps to a cell to guess.
	r := open(t, comp, Config{Parallelism: 1, ChunkSize: chunk})
	buf := make([]byte, 1000)
	if n, err := r.eng.ReadAt(buf, int64(len(data)/2)); n != len(buf) || err != nil || !bytes.Equal(buf, data[len(data)/2:][:n]) {
		t.Fatalf("cold ReadAt halfway: %d bytes, %v", n, err)
	}
	r.gz().mu.Lock()
	long, spans := r.gz().long, uint64(r.gz().index.Len())
	r.gz().mu.Unlock()
	if !long {
		t.Fatal("halfway through the block, the frontier is not paused in it")
	}
	for cand := spans; cand < spans+8; cand++ {
		if g, ok := r.gz().Slot(r.eng, cand); ok {
			t.Errorf("candidate %d maps to cell %d while the frontier stands in the block", cand, g)
		}
	}

	parsed, err := gzindex.Read(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	ri, err := newReaderFromIndex(filereader.MemoryReader(comp), parsed, Config{Parallelism: 2, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer ri.Close()
	for _, off := range []int{0, len(data) / 3, len(data) - 70_000} {
		buf := make([]byte, 70_000)
		if n, err := ri.eng.ReadAt(buf, int64(off)); n != len(buf) || err != nil || !bytes.Equal(buf, data[off:off+n]) {
			t.Fatalf("ReadAt(%d) through the index: %d bytes, %v", off, n, err)
		}
	}
}
