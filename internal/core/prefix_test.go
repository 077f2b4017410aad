package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/deflate"
	"repro/internal/filereader"
	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/spanengine"
)

// importedReader opens comp through ixRaw, as the root package does.
func importedReader(t *testing.T, comp, ixRaw []byte, cfg Config) *seqReader {
	t.Helper()
	ix, err := gzindex.Read(bytes.NewReader(ixRaw))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReaderFromIndex(filereader.MemoryReader(comp), ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return &seqReader{Reader: r}
}

// TestReadThroughIndexDecodesAsFarAsItReaches: a read into a cold span
// decodes from the seek point to its own last byte and reads that much
// of the file; the span counts as an indexed decode once a later read
// has taken it to its end.
func TestReadThroughIndexDecodesAsFarAsItReaches(t *testing.T) {
	data := mkText(60, 3_000_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r := importedReader(t, comp, exportIndex(t, comp, 512<<10), Config{Parallelism: 1})
	ix := r.index()
	if ix.Len() < 3 {
		t.Fatalf("%d seek points", ix.Len())
	}
	start := int64(ix.Point(1).UncompressedOffset)
	size := int64(ix.Point(2).UncompressedOffset) - start
	compLen := int64(ix.Point(2).CompressedBitOffset-ix.Point(1).CompressedBitOffset) / 8

	buf := make([]byte, 10_000)
	off := start + 50_000
	if _, err := r.ReadAt(buf, off); err != nil || !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
		t.Fatalf("ReadAt: err %v", err)
	}
	es := r.eng.Stats()
	if es.SpanDecodes != 1 || es.SpanResumes != 0 || es.IndexedDecodes != 0 {
		t.Fatalf("after a read of the span's front: %+v", es)
	}
	if es.DecodedBytes < 60_000 || es.DecodedBytes >= 60_000+deflate.MaxMatchLen {
		t.Fatalf("decoded %d bytes for a read ending 60000 bytes into its span (of %d)", es.DecodedBytes, size)
	}
	// A sixteenth of the span's output should not have read the span's
	// whole extent, only the windows the decode got to.
	if got := int64(es.SourceBytesRead); got >= compLen/2 || got > compLen/8+2*prefixWindow {
		t.Fatalf("read %d compressed bytes of the span's %d", got, compLen)
	}

	end := start + size
	if _, err := r.ReadAt(buf, end-int64(len(buf))); err != nil || !bytes.Equal(buf, data[end-int64(len(buf)):end]) {
		t.Fatalf("ReadAt at the span's end: err %v", err)
	}
	es = r.eng.Stats()
	if es.SpanDecodes != 1 || es.SpanResumes != 1 || es.IndexedDecodes != 1 || es.DecodedBytes != uint64(size) {
		t.Fatalf("after the span was completed: %+v (span of %d)", es, size)
	}
}

// TestSmallSequentialReadsStillVerify: a verifying reader fed through
// Read with a 4 KiB buffer. From offset 0 it is a stream at once: its
// first read decodes 4 KiB of span 0 and the rest of the span is
// continued on the pool, and every span decodes exactly once; after a
// seek into the middle it decodes in pieces until it is made out as one,
// and still nothing twice. Either way a span is continued, never started
// over. The CRC chain sees every span whole and in order.
func TestSmallSequentialReadsStillVerify(t *testing.T) {
	data := mkText(61, 1_200_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10, MemberSize: 300 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ixRaw := exportIndex(t, comp, 64<<10)
	for _, from := range []int64{0, 500_000} {
		// The cache holds the file, so the counts below are exact.
		r := importedReader(t, comp, ixRaw, Config{Parallelism: 2, VerifyChecksums: true, Pool: spanengine.NewCachePool(64 << 20)})
		if _, err := r.Seek(from, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := io.CopyBuffer(struct{ io.Writer }{&got}, struct{ io.Reader }{r}, make([]byte, 4<<10)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), data[from:]) {
			t.Fatalf("from %d: mismatch", from)
		}
		ix := r.index()
		first, _ := ix.Find(uint64(from))
		spans := ix.Len() - first
		es := r.eng.Stats()
		if es.SpanDecodes != uint64(spans) || es.DecodedBytes != uint64(len(data))-ix.Point(first).UncompressedOffset || es.SpanResumes == 0 {
			t.Fatalf("from %d: %d spans read: %+v", from, spans, es)
		}
		if from > 0 {
			continue // a pass that starts in the middle verifies nothing
		}
		if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
			t.Fatalf("CRC: ok=%v fails=%d", ok, fails)
		}
		r.gz().crcMu.Lock()
		verified := r.gz().crcNext
		r.gz().crcMu.Unlock()
		if verified != spans {
			t.Fatalf("%d of %d spans verified", verified, spans)
		}
	}
}

// withoutMemberMarks rewrites a serialised index as one from before
// member marks were persisted: the same points, windows and fingerprint,
// no marks.
func withoutMemberMarks(t *testing.T, ixRaw []byte) []byte {
	t.Helper()
	ix, err := gzindex.Read(bytes.NewReader(ixRaw))
	if err != nil {
		t.Fatal(err)
	}
	legacy := gzindex.New(ix.ChunkSize)
	legacy.Finalized = true
	legacy.CompressedSize, legacy.UncompressedSize = ix.CompressedSize, ix.UncompressedSize
	legacy.SourceFP = ix.SourceFP
	for i := 0; i < ix.Len(); i++ {
		p := ix.Point(i)
		var w []byte
		if win, ok := ix.Window(p.CompressedBitOffset); ok {
			if w, err = win.Bytes(); err != nil {
				t.Fatal(err)
			}
		}
		if err := legacy.Add(p, w); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := legacy.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImportRefusesIndexWithoutMemberMarks: every writer records where
// each gzip member ends, which member verification after an import
// stands on, so an index without complete marks predates them and is
// refused as an unsupported version — by the constructor and by an
// import in place, which leaves the reader as it was.
func TestImportRefusesIndexWithoutMemberMarks(t *testing.T) {
	data := mkText(62, 1_000_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10, MemberSize: 90 << 10})
	if err != nil {
		t.Fatal(err)
	}
	legacy := withoutMemberMarks(t, exportIndex(t, comp, 64<<10))
	ix, err := gzindex.Read(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newReaderFromIndex(filereader.MemoryReader(comp), ix, Config{Parallelism: 2}); !errors.Is(err, gzindex.ErrUnsupportedVersion) {
		t.Fatalf("NewReaderFromIndex: err = %v, want ErrUnsupportedVersion", err)
	}
	r := open(t, comp, Config{Parallelism: 2, VerifyChecksums: true})
	if err := r.ImportIndex(bytes.NewReader(legacy)); !errors.Is(err, gzindex.ErrUnsupportedVersion) {
		t.Fatalf("ImportIndex: err = %v, want ErrUnsupportedVersion", err)
	}
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("the refused import disturbed the reader")
	}
	if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC after the refused import: ok=%v fails=%d", ok, fails)
	}
}

// TestBadWindowFailsItsSpanOnly: windows are inflated when a decode
// first needs them, so one that cannot be is found then, as a corrupt
// index, by the reads of its span and no others.
func TestBadWindowFailsItsSpanOnly(t *testing.T) {
	data := mkText(63, 1_000_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ixRaw := exportIndex(t, comp, 128<<10)
	ix, err := gzindex.Read(bytes.NewReader(ixRaw))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the second point's window, as the index stores it, with
	// zeros (a stored block whose length check fails) and reseal the
	// window's CRC32 in its record and the table's behind the records.
	w, ok := ix.Window(ix.Point(1).CompressedBitOffset)
	if !ok {
		t.Fatal("point 1 has no window")
	}
	win, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var stored bytes.Buffer
	fw, _ := flate.NewWriter(&stored, 6)
	fw.Write(win)
	fw.Close()
	at := bytes.Index(ixRaw, stored.Bytes())
	if at < 0 {
		t.Fatal("window bytes not found in the serialised index")
	}
	forged := bytes.Clone(ixRaw)
	clear(forged[at : at+stored.Len()])
	var was, is [4]byte
	binary.LittleEndian.PutUint32(was[:], crc32.ChecksumIEEE(stored.Bytes()))
	binary.LittleEndian.PutUint32(is[:], crc32.ChecksumIEEE(forged[at:at+stored.Len()]))
	copy(forged[bytes.Index(forged, was[:]):], is[:])
	// Point 1's window is the first, right behind the table's CRC32.
	binary.LittleEndian.PutUint32(forged[at-4:], crc32.ChecksumIEEE(forged[:at-4]))

	r := importedReader(t, comp, forged, Config{Parallelism: 2})
	buf := make([]byte, 1000)
	for i := 0; i < ix.Len(); i++ {
		off := int64(ix.Point(i).UncompressedOffset) + 10
		_, err := r.ReadAt(buf, off)
		switch {
		case i == 1 && !errors.Is(err, gzindex.ErrCorrupt):
			t.Fatalf("read of the span with the forged window: %v", err)
		case i != 1 && (err != nil || !bytes.Equal(buf, data[off:off+int64(len(buf))])):
			t.Fatalf("read of span %d: err %v", i, err)
		}
	}
}
