package rapidgzip

import (
	"bytes"
	"compress/bzip2"
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
