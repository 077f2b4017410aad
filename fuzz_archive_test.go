package rapidgzip

import (
	"bytes"
	"compress/bzip2"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// archiveDifferential reads comp — an encoding of plain, possibly damaged —
// through OpenBytes with a seeded mix of ReadAts ahead of the span table, a
// WriteTo of the whole stream and more ReadAts behind it, and holds the
// result against a reference decoder's verdict on the same bytes (refOut,
// refErr): where the reference decodes the file so does the archive, to the
// same bytes; where it fails, the archive fails too; and no byte the
// archive ever returns differs from plain.
func archiveDifferential(t *testing.T, comp, plain, refOut []byte, refErr error, rng *rand.Rand) {
	t.Helper()
	a, err := OpenBytes(comp, WithParallelism(2))
	if err != nil {
		if refErr == nil {
			t.Fatalf("OpenBytes failed on a file the reference decodes: %v", err)
		}
		return
	}
	defer a.Close()
	readSome := func() {
		for i := rng.Intn(4); i > 0; i-- {
			buf := make([]byte, 1+rng.Intn(6000))
			off := rng.Int63n(int64(len(plain)) + 100)
			n, err := a.ReadAt(buf, off)
			if n > 0 && (off+int64(n) > int64(len(plain)) || !bytes.Equal(buf[:n], plain[off:off+int64(n)])) {
				t.Fatalf("ReadAt(%d) returned %d bytes that are not the file's", off, n)
			}
			if want := max(min(int64(len(buf)), int64(len(refOut))-off), 0); refErr == nil && (int64(n) != want || err != nil && err != io.EOF) {
				t.Fatalf("ReadAt(%d, %d bytes) = %d, %v on a sound %d-byte file", off, len(buf), n, err, len(refOut))
			}
		}
	}
	readSome()
	var out bytes.Buffer
	_, err = a.WriteTo(&out)
	switch {
	case refErr == nil && (err != nil || !bytes.Equal(out.Bytes(), refOut)):
		t.Fatalf("WriteTo = %d bytes, %v; the reference decodes %d", out.Len(), err, len(refOut))
	case refErr != nil && err == nil:
		t.Fatalf("WriteTo decoded %d bytes of a file the reference rejects: %v", out.Len(), refErr)
	case !bytes.HasPrefix(plain, out.Bytes()):
		t.Fatalf("WriteTo wrote %d bytes that are not the file's before failing", out.Len())
	}
	readSome()
}

// damage returns comp cut short, with one bit flipped, or as it is, by
// how and where.
func damage(comp []byte, how uint8, where uint32) []byte {
	if len(comp) == 0 {
		return comp
	}
	at := int(where) % len(comp)
	switch how % 4 {
	case 1:
		return comp[:at]
	case 2:
		comp = bytes.Clone(comp)
		comp[at] ^= 1 << (where >> 24 & 7)
	}
	return comp
}

// FuzzBzip2Archive builds multi-stream bzip2 files of seeded shape,
// damages some, and reads them through the archive against compress/bzip2
// over the whole file: equal bytes, or an error on both sides.
func FuzzBzip2Archive(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(3000), uint8(0), uint32(0))
	f.Add(uint64(2), uint8(1), uint16(9000), uint8(0), uint32(0))
	f.Add(uint64(3), uint8(5), uint16(2000), uint8(1), uint32(700))   // truncated
	f.Add(uint64(4), uint8(3), uint16(4000), uint8(2), uint32(1500))  // a bit flipped in a payload
	f.Add(uint64(5), uint8(3), uint16(4000), uint8(2), uint32(2<<24)) // in the first magic
	f.Add(uint64(6), uint8(0), uint16(0), uint8(0), uint32(0))        // empty input: one empty stream
	f.Fuzz(func(t *testing.T, seed uint64, streams uint8, streamSize uint16, how uint8, where uint32) {
		rng := rand.New(rand.NewSource(int64(seed)))
		size := int(streamSize)%12000 + 1
		plain := workloads.SilesiaLike(max(int(streams%8)*size-rng.Intn(size), 0), seed)
		comp := damage(compress(t, "bzip2", plain, size), how, where)
		refOut, refErr := io.ReadAll(bzip2.NewReader(bytes.NewReader(comp)))
		archiveDifferential(t, comp, plain, refOut, refErr, rng)
	})
}

// TestUnsizedZstdArchiveDifferential runs the same harness over a
// multi-frame zstd file whose frames omit their content size, sound and
// damaged, against the package's serial decoder.
func TestUnsizedZstdArchiveDifferential(t *testing.T) {
	plain := workloads.SilesiaLike(300_000, 7)
	sound := compress(t, "zstd-unsized-checksum", plain, 40_000)
	for i, d := range []struct {
		how   uint8
		where uint32
	}{{0, 0}, {1, uint32(len(sound) / 2)}, {1, uint32(len(sound) - 3)}, {2, uint32(len(sound) / 3)}, {2, uint32(len(sound) - 2)}} {
		comp := damage(sound, d.how, d.where)
		refOut, refErr := zstdx.Decompress(comp)
		if (refErr == nil) != (d.how == 0) {
			t.Fatalf("case %d: reference = %v", i, refErr)
		}
		archiveDifferential(t, comp, plain, refOut, refErr, rand.New(rand.NewSource(int64(i))))
	}
}

// gzipRows are the format table's gzip and BGZF rows, which
// FuzzGzipArchive picks its compressor from.
var gzipRows = []string{"gzip", "bgzf", "gzip-stdlib", "gzip-single-block", "gzip-multimember"}

// FuzzGzipArchive compresses up to 256 KiB of data of a seeded kind with
// one of the gzip rows, damages some, and reads it cold through the
// archive at a chunk size from 64 B to 4 MiB, verifying, against
// compress/gzip over the whole file: equal bytes with the checksums
// intact, or a failure on both sides — a read error or a checksum
// mismatch. compress/gzip also checks framing that no byte depends on (a
// member whose final-block bit is cleared, where BGZF declares its
// size), so where it fails the archive may instead serve the original
// bytes, every member's checksum verified; or, where bytes that do not
// begin as a member follow a footer, skip them as trailing data, which
// the archive counts, and serve the members before them, which
// compress/gzip decodes alone. A second read after a read error fails
// with the same error: a unit that failed committed nothing. A pass that
// succeeds exports an index that imports and serves the same bytes,
// however finely the chunk size cut the file.
func FuzzGzipArchive(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint32(40000), uint32(1<<20), uint8(0), uint32(0))
	f.Add(uint64(2), uint8(1), uint8(1), uint32(30000), uint32(4000), uint8(0), uint32(0))
	f.Add(uint64(3), uint8(4), uint8(2), uint32(60000), uint32(0), uint8(0), uint32(0))       // zeros in 64 B chunks
	f.Add(uint64(4), uint8(2), uint8(3), uint32(50000), uint32(8000), uint8(0), uint32(0))    // one block in small chunks
	f.Add(uint64(5), uint8(0), uint8(0), uint32(20000), uint32(300), uint8(1), uint32(5000))  // truncated
	f.Add(uint64(6), uint8(3), uint8(1), uint32(20000), uint32(700), uint8(2), uint32(3000))  // a bit flipped
	f.Add(uint64(7), uint8(1), uint8(0), uint32(20000), uint32(2000), uint8(2), uint32(9000)) // in a payload
	f.Add(uint64(8), uint8(0), uint8(0), uint32(0), uint32(0), uint8(0), uint32(0))           // empty input
	// The flipped bit leaves an empty block behind the last byte, so the
	// member ends in a span of no bytes.
	f.Add(uint64(328), uint8(0), uint8(2), uint32(85), uint32(50), uint8(2), uint32(78))
	// A BGZF member's ISIZE flipped to 0: the member's span has no bytes.
	f.Add(uint64(1), uint8(0), uint8(1), uint32(1), uint32(86), uint8(2), uint32(25))
	// 39,939 zeros in BGZF with a bit of the first member's size field
	// flipped: the chain of sizes breaks at byte 82, and the file is read
	// as gzip is.
	f.Add(uint64(1), uint8(4), uint8(1), uint32(39939), uint32(1<<20), uint8(2), uint32(16))
	// 65,535 zeros in BGZF with bit 0 of the second member's ID1 flipped:
	// the chain of sizes breaks at a header that does not parse, where
	// the member before ends. compress/gzip fails; read as gzip is, the
	// file would end there, the first member's checksum intact.
	f.Add(uint64(1), uint8(4), uint8(1), uint32(65535), uint32(1<<20), uint8(2), uint32(105))
	// Two compress/gzip members with the second cut 5 bytes into its
	// header: the file does not end behind the first member.
	f.Add(uint64(9), uint8(0), uint8(4), uint32(60000), uint32(1<<20), uint8(1), uint32(9330))
	// The same two members with bit 0 of the second member's ID1 flipped:
	// what follows the first member does not begin as a member, which the
	// archive skips as trailing data and compress/gzip refuses.
	f.Add(uint64(9), uint8(0), uint8(4), uint32(60000), uint32(1<<20), uint8(2), uint32(9325))
	// 200,000 zeros in BGZF, 389 bytes, with bit 7 of byte 360, the top
	// of the last data member's ISIZE, flipped: the member declares 2 GiB
	// more output than BGZF holds, and the pass must not allocate it.
	f.Add(uint64(1), uint8(4), uint8(1), uint32(200_000), uint32(1<<20), uint8(2), uint32(7<<24+115))
	f.Fuzz(func(t *testing.T, seed uint64, kind, preset uint8, size uint32, chunk uint32, how uint8, where uint32) {
		n := int(size % (256 << 10))
		var plain []byte
		switch kind % 5 {
		case 0:
			plain = workloads.SilesiaLike(n, seed)
		case 1:
			plain = workloads.Base64(n, seed)
		case 2:
			plain = workloads.FASTQ(n, seed)
		case 3:
			plain = workloads.Random(n, seed)
		default:
			plain = make([]byte, n)
		}
		comp := damage(compress(t, gzipRows[int(preset)%len(gzipRows)], plain, 0), how, where)
		var refOut []byte
		zr, refErr := gzip.NewReader(bytes.NewReader(comp))
		if refErr == nil {
			refOut, refErr = io.ReadAll(zr)
		}
		opts := []Option{WithChunkSize(64 + int(chunk%(4<<20-63))), WithVerify(true), WithParallelism(2)}
		a, err := OpenBytes(comp, opts...)
		if err != nil {
			if refErr == nil {
				t.Fatalf("OpenBytes failed on a file compress/gzip decodes: %v", err)
			}
			return
		}
		defer a.Close()
		var out bytes.Buffer
		_, err = a.WriteTo(&out)
		ok, _ := a.(interface{ CRCVerified() (bool, uint64) }).CRCVerified()
		switch {
		case refErr == nil && (err != nil || !ok || !bytes.Equal(out.Bytes(), refOut)):
			t.Fatalf("cold pass = %d bytes, %v, checksums intact %v; compress/gzip decodes %d", out.Len(), err, ok, len(refOut))
		case refErr != nil && err == nil && ok && !bytes.Equal(out.Bytes(), plain) && !servedBeforeTrailing(comp, out.Bytes(), plain, a.Stats().TrailingBytes):
			t.Fatalf("cold pass decoded %d bytes with intact checksums of a file compress/gzip rejects: %v", out.Len(), refErr)
		}
		if err != nil {
			if _, again := a.WriteTo(io.Discard); again == nil || again.Error() != err.Error() {
				t.Fatalf("a read after the failure %q failed with %v", err, again)
			}
			return
		}
		if !ok {
			return
		}
		var ix bytes.Buffer
		if err := a.ExportIndex(&ix); err != nil {
			t.Fatalf("export after a sound pass: %v", err)
		}
		back, err := OpenBytes(comp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		if err := back.ImportIndex(&ix); err != nil {
			t.Fatalf("import of the exported index: %v", err)
		}
		var again bytes.Buffer
		_, err = back.WriteTo(&again)
		if ok, _ := back.(interface{ CRCVerified() (bool, uint64) }).CRCVerified(); err != nil || !ok || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("through the exported index: %d bytes, %v, checksums intact %v", again.Len(), err, ok)
		}
	})
}

// servedBeforeTrailing reports whether out is what a pass over comp that
// skipped trailing bytes behind its last member should serve: bytes that
// do not begin as a member follow a footer, which the archive skips as
// gzip(1) does and compress/gzip refuses. The file before them must then
// be one compress/gzip decodes to out, which is plain up to the end of a
// member.
func servedBeforeTrailing(comp, out, plain []byte, trailing uint64) bool {
	if trailing == 0 || trailing > uint64(len(comp)) || !bytes.HasPrefix(plain, out) {
		return false
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp[:uint64(len(comp))-trailing]))
	if err != nil {
		return false
	}
	before, err := io.ReadAll(zr)
	return err == nil && bytes.Equal(before, out)
}

// TestTrailingBytesCounted: bytes behind the last member that do not
// begin as one are skipped, on every gzip row but BGZF, whose scan reads
// them as no member, and counted once a pass reaches them.
func TestTrailingBytesCounted(t *testing.T) {
	plain := workloads.SilesiaLike(50_000, 3)
	junk := bytes.Repeat([]byte("not gzip "), 11)
	for _, name := range []string{"gzip", "gzip-stdlib", "gzip-multimember"} {
		comp := append(compress(t, name, plain, 0), junk...)
		a, err := OpenBytes(comp, WithVerify(true), WithParallelism(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		_, err = a.WriteTo(&out)
		ok, _ := crcVerified(a)
		if s := a.Stats(); err != nil || !ok || !bytes.Equal(out.Bytes(), plain) || s.TrailingBytes != uint64(len(junk)) {
			t.Errorf("%s: %d bytes, %v, checksums intact %v, %d trailing bytes; want %d", name, out.Len(), err, ok, s.TrailingBytes, len(junk))
		}
		a.Close()
	}
}

// TestCutSecondMember cuts the second member of a two-member file at
// every length, for each gzip row, and holds the archive to
// compress/gzip's verdict on each cut: a cold WriteTo, a ReadAt that
// runs to the end and an index export fail where compress/gzip does, and
// give its bytes where it decodes the file. A cut inside the second
// header leaves bytes that begin as a member does behind the first one,
// which are no trailing data to skip.
func TestCutSecondMember(t *testing.T) {
	first, second := workloads.SilesiaLike(3000, 1), workloads.SilesiaLike(3000, 2)
	for _, name := range gzipRows {
		t.Run(name, func(t *testing.T) {
			head, tail := compress(t, name, first, 0), compress(t, name, second, 0)
			for cut := 0; cut <= len(tail); cut++ {
				comp := append(head[:len(head):len(head)], tail[:cut]...)
				var refOut []byte
				zr, refErr := gzip.NewReader(bytes.NewReader(comp))
				if refErr == nil {
					refOut, refErr = io.ReadAll(zr)
				}
				for _, op := range []string{"WriteTo", "ReadAt", "ExportIndex"} {
					if err := cutVerdict(comp, op, int64(len(first))-10, refOut, refErr); err != nil {
						t.Fatalf("cut %d of %d bytes, %s: %v (compress/gzip: %d bytes, %v)", cut, len(tail), op, err, len(refOut), refErr)
					}
				}
			}
		})
	}
}

// cutVerdict runs op cold over comp and returns what differs from
// compress/gzip's verdict, which decoded refOut or failed with refErr.
// The ReadAt is from off past the end of the file; a checksum mismatch
// after WriteTo is a failure.
func cutVerdict(comp []byte, op string, off int64, refOut []byte, refErr error) error {
	a, err := OpenBytes(comp, WithVerify(true), WithParallelism(2))
	if err != nil {
		if refErr == nil {
			return fmt.Errorf("open: %w", err)
		}
		return nil
	}
	defer a.Close()
	switch op {
	case "WriteTo":
		var out bytes.Buffer
		_, err = a.WriteTo(&out)
		if ok, _ := crcVerified(a); err == nil && !ok {
			err = errors.New("checksum mismatch")
		}
		if err == nil && refErr == nil && !bytes.Equal(out.Bytes(), refOut) {
			return fmt.Errorf("%d bytes differ", out.Len())
		}
	case "ReadAt":
		buf := make([]byte, 10_000)
		var n int
		n, err = a.ReadAt(buf, off)
		if err == io.EOF {
			if refErr == nil && !bytes.Equal(buf[:n], refOut[off:]) {
				return fmt.Errorf("%d bytes at %d differ", n, off)
			}
			err = nil
		}
	case "ExportIndex":
		err = a.ExportIndex(io.Discard)
	}
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("err = %v", err)
	}
	return nil
}
