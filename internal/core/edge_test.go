package core

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/filereader"
	"repro/internal/gzipw"
)

func TestTinyMembers(t *testing.T) {
	// Many tiny gzip members (e.g. concatenated per-record logs): lots
	// of headers/footers inside chunks, tiny final blocks everywhere.
	data := mkText(30, 200_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, MemberSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 16 << 10, VerifyChecksums: true})
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("tiny-member decode mismatch")
	}
	if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC: %v %d", ok, fails)
	}
}

func TestIndexBuiltAtDifferentChunkSize(t *testing.T) {
	// An index built with one chunk size must work in a reader
	// configured with another.
	data := mkText(31, 500_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r1 := open(t, comp, Config{Parallelism: 2, ChunkSize: 16 << 10})
	var ix bytes.Buffer
	if err := r1.exportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, comp, Config{Parallelism: 4, ChunkSize: 256 << 10, VerifyChecksums: true})
	if err := r2.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	if ok, fails := r2.gz().CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC: %v %d", ok, fails)
	}
}

func TestReadPastEOF(t *testing.T) {
	data := mkText(32, 50_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r := open(t, comp, Config{Parallelism: 2})

	if _, err := r.Seek(int64(len(data))+1000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("read past EOF: n=%d err=%v", n, err)
	}
	// ReadAt at the exact end.
	if n, err := r.ReadAt(buf, int64(len(data))); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at EOF: n=%d err=%v", n, err)
	}
	// ReadAt straddling the end returns the tail plus EOF per io.ReaderAt.
	n, err := r.ReadAt(buf, int64(len(data))-4)
	if n != 4 || (err != io.EOF && err != nil) {
		t.Fatalf("straddling ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf[:4], data[len(data)-4:]) {
		t.Fatal("tail bytes wrong")
	}
}

func TestZeroLengthReads(t *testing.T) {
	data := mkText(33, 10_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	r := open(t, comp, Config{Parallelism: 2})
	if n, err := r.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil): %d %v", n, err)
	}
	got := readAll(t, r)
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after zero-length read")
	}
}

func TestBGZFWithChecksums(t *testing.T) {
	// Corrupting a payload byte must surface as an error even with the
	// architecture-level CRC chain off: the member scan, the decoder or
	// the ISIZE check notices, or the output differs.
	data := mkText(34, 400_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(comp)
	bad[len(bad)/2] ^= 0x11
	r, err := NewReader(filereader.MemoryReader(bad), Config{Parallelism: 2})
	if err != nil {
		// Corruption in the member scan metadata is also acceptable.
		return
	}
	defer r.Close()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err == nil && bytes.Equal(buf.Bytes(), data) {
		t.Fatal("BGZF corruption silently ignored")
	}
}

func TestStatsIndexedDecodes(t *testing.T) {
	// Index-primed reads run the custom single-stage decoder on every
	// chunk, and count each once it is whole.
	data := mkBase64(35, 600_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r1 := open(t, comp, Config{Parallelism: 2, ChunkSize: 32 << 10})
	var ix bytes.Buffer
	if err := r1.exportIndex(&ix); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, comp, Config{Parallelism: 4, ChunkSize: 32 << 10})
	if err := r2.ImportIndex(bytes.NewReader(ix.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	s := r2.eng.Stats()
	if s.IndexedDecodes == 0 {
		t.Fatalf("no indexed decodes (onDemand=%d)", s.OnDemandDecodes)
	}
}

func TestSequentialReadAfterRandomAccess(t *testing.T) {
	// Random access must not corrupt a later full sequential pass
	// (regression guard for cache/frontier interactions).
	data := mkText(36, 400_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	r := open(t, comp, Config{Parallelism: 3, ChunkSize: 32 << 10})
	buf := make([]byte, 100)
	for _, off := range []int{300_000, 10, 200_000, 399_000, 0} {
		if _, err := r.ReadAt(buf, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sequential pass after random access: %v", err)
	}
}

func TestGuessRunsOffItsSlack(t *testing.T) {
	// Blocks of ~190 KiB compressed against 64 KiB cells: a guess that
	// finds a block start decodes far past the slack read with its cell
	// and has to go back to the file for the rest.
	const chunk = 64 << 10
	data := mkBase64(33, 1_500_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, comp, Config{Parallelism: 3, ChunkSize: chunk, VerifyChecksums: true})
	ranOff := 0
	for g := uint64(1); g < uint64(len(comp))/chunk; g++ {
		reads := r.gz().src.Reads()
		res, err := r.gz().guessTask(g)
		if err != nil {
			continue // most cells hold no block start
		}
		if res.StartBit < g*chunk*8 || res.StartBit >= (g+1)*chunk*8 || res.EndBit < (g+1)*chunk*8 {
			t.Fatalf("cell %d: result spans bits [%d,%d)", g, res.StartBit, res.EndBit)
		}
		if res.EndBit/8 > (g+1)*chunk+guessSlack {
			ranOff++
			if r.gz().src.Reads()-reads < 2 {
				t.Fatalf("cell %d: decoded to byte %d from a buffer ending at byte %d", g, res.EndBit/8, (g+1)*chunk+guessSlack)
			}
		}
	}
	if ranOff == 0 {
		t.Fatal("no guess ran off its slack")
	}
	// And the reader puts such results together to the right bytes.
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("output differs from the plaintext")
	}
}

func TestGuessMeetsMemberEndAtItsBufferEnd(t *testing.T) {
	// A member whose footer ends exactly where the buffer of cell 2's
	// guess ends: decoded from that buffer alone, the stream seems to end
	// there. The member behind it must still be decoded.
	const chunk = 8 << 10
	const bufEnd = 3*chunk + guessSlack
	c := newCraft()
	c.stored(false, noisy(1, 8000-15))
	c.stored(false, noisy(2, 8000-5))
	c.stored(false, noisy(3, 8460-5)) // unit 1, ending late in cell 2
	start := c.pos()
	c.stored(false, noisy(4, 100)) // the only block start the finder meets in cell 2
	c.stored(true, noisy(5, bufEnd-8-c.pos()-5))
	c.footer()
	if start < 2*chunk || start >= 3*chunk || c.pos() != bufEnd {
		t.Fatalf("unit 2 starts at byte %d, the first member ends at byte %d (want %d)", start, c.pos(), bufEnd)
	}
	c.header()
	c.stored(true, noisy(6, 3000))
	stream := c.finish(t)

	r := open(t, stream, Config{Parallelism: 2, ChunkSize: chunk})
	res, err := r.gz().guessTask(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartBit/8 != uint64(start) || !res.EndIsEOF || res.EndBit != uint64(len(stream))*8 || len(res.Members) != 2 {
		t.Fatalf("guess for cell 2 spans bits [%d,%d) with %d member ends, EOF %v; want both members, from byte %d to byte %d",
			res.StartBit, res.EndBit, len(res.Members), res.EndIsEOF, start, len(stream))
	}
	if got := readAll(t, r); !bytes.Equal(got, c.plain) {
		t.Fatalf("read %d bytes, want the %d of both members", len(got), len(c.plain))
	}
}
