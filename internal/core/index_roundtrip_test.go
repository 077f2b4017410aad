package core

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/deflate"
	"repro/internal/filereader"
	"repro/internal/gzipw"
)

// roundTripCase pairs an input corpus with a compressor structure; the
// matrix covers the acceptance criteria explicitly: multi-member files,
// dynamic-block files, and >4 MiB inputs.
type roundTripCase struct {
	name string
	data []byte
	opts gzipw.Options
}

func roundTripCases() []roundTripCase {
	return []roundTripCase{
		{"multimember", mkBase64(40, 1_200_000), gzipw.Options{Level: 6, BlockSize: 32 << 10, MemberSize: 150 << 10}},
		{"dynamic", mkText(41, 1_000_000), gzipw.Options{Level: 9, BlockSize: 16 << 10, Strategy: gzipw.DynamicOnly}},
		{"large", mkText(42, 5<<20), gzipw.Options{Level: 6, BlockSize: 64 << 10}},
		{"large-multimember", mkBase64(43, 5<<20), gzipw.Options{Level: 6, BlockSize: 64 << 10, MemberSize: 1 << 20}},
		{"stored", mkRandom(44, 1_500_000), gzipw.Options{Level: 0}},
	}
}

// exportIndex builds the full index for comp and returns its serialised
// form.
func exportIndex(t *testing.T, comp []byte, chunkSize int) []byte {
	t.Helper()
	r := open(t, comp, Config{Parallelism: 4, ChunkSize: chunkSize})
	var buf bytes.Buffer
	if err := r.exportIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexRoundTripMatrix is the tentpole acceptance test: for every
// corpus/compressor pair, ExportIndex → NewReader+ImportIndex must
// yield byte-identical output to an independent serial decode, with the
// block finder never invoked on the import path.
func TestIndexRoundTripMatrix(t *testing.T) {
	for _, c := range roundTripCases() {
		t.Run(c.name, func(t *testing.T) {
			comp, _, err := gzipw.Compress(c.data, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := deflate.DecompressGzip(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, c.data) {
				t.Fatal("serial baseline disagrees with input")
			}
			ixRaw := exportIndex(t, comp, 64<<10)

			r := open(t, comp, Config{Parallelism: 4, ChunkSize: 64 << 10})
			if err := r.ImportIndex(bytes.NewReader(ixRaw)); err != nil {
				t.Fatal(err)
			}
			// Whole-stream equality against the serial decode.
			if got := readAll(t, r); !bytes.Equal(got, serial) {
				t.Fatalf("import path output differs from serial decode (%d vs %d bytes)", len(got), len(serial))
			}
			// Positional reads at awkward offsets, byte-compared to the
			// serial decode.
			rng := rand.New(rand.NewSource(7))
			buf := make([]byte, 1537)
			for trial := 0; trial < 25; trial++ {
				off := rng.Intn(len(serial) - len(buf))
				if _, err := r.ReadAt(buf, int64(off)); err != nil {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
				if !bytes.Equal(buf, serial[off:off+len(buf)]) {
					t.Fatalf("ReadAt(%d) mismatch", off)
				}
			}
			s := r.eng.Stats()
			if s.FinderProbes != 0 {
				t.Fatalf("import path probed the block finder %d times", s.FinderProbes)
			}
			if s.GuessTasks != 0 {
				t.Fatalf("import path issued %d speculative tasks", s.GuessTasks)
			}
		})
	}
}

// TestImportedIndexConcurrentReadAt hammers ReadAt from many goroutines
// over an imported index; run under -race this doubles as the
// concurrency-safety assertion of the acceptance criteria.
func TestImportedIndexConcurrentReadAt(t *testing.T) {
	data := mkText(45, 3<<20)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 32 << 10, MemberSize: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ixRaw := exportIndex(t, comp, 64<<10)

	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 64 << 10})
	if err := r.ImportIndex(bytes.NewReader(ixRaw)); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			buf := make([]byte, 2048)
			for trial := 0; trial < 30; trial++ {
				off := rng.Intn(len(data) - len(buf))
				if _, err := r.ReadAt(buf, int64(off)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, data[off:off+len(buf)]) {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := r.eng.Stats(); s.FinderProbes != 0 {
		t.Fatalf("concurrent import-path reads probed the finder %d times", s.FinderProbes)
	}
}

// TestExportedIndexIsV5 pins the reader/CLI handshake: what ExportIndex
// writes must carry the current format magic, so externally saved
// indexes are covered by the format's golden/corruption tests.
func TestExportedIndexIsV5(t *testing.T) {
	data := mkText(46, 200_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6})
	ixRaw := exportIndex(t, comp, 32<<10)
	if len(ixRaw) < 8 || string(ixRaw[:8]) != "RGZIDX05" {
		t.Fatalf("exported index starts with %q", ixRaw[:min(8, len(ixRaw))])
	}
}

// TestImportRejectsCorruptIndex flips one byte in the middle of a valid
// index: the import must fail up front instead of producing a reader
// with silently wrong chunk geometry.
func TestImportRejectsCorruptIndex(t *testing.T) {
	data := mkText(47, 300_000)
	comp, _, _ := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10})
	ixRaw := exportIndex(t, comp, 32<<10)

	for _, pos := range []int{9, len(ixRaw) / 2, len(ixRaw) - 2} {
		bad := bytes.Clone(ixRaw)
		bad[pos] ^= 0x20
		r, err := NewReader(filereader.MemoryReader(comp), Config{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ImportIndex(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupt index (byte %d flipped) accepted", pos)
		}
		r.Close()
	}
}

// TestSequentialAfterImportVerifiesMemberCRCs: the exported index
// persists the member marks, so an import restores the full member-CRC
// verification chain.
func TestSequentialAfterImportVerifiesMemberCRCs(t *testing.T) {
	data := mkText(48, 800_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10, MemberSize: 200 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ixRaw := exportIndex(t, comp, 64<<10)

	r := open(t, comp, Config{Parallelism: 4, ChunkSize: 64 << 10, VerifyChecksums: true})
	if err := r.ImportIndex(bytes.NewReader(ixRaw)); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC after import: ok=%v fails=%d", ok, fails)
	}
}

// TestImportAfterReadsReplacesStaleState: importing an index into a
// reader that has already served reads must discard every cache keyed
// by the old chunk geometry — here forced by importing an index built
// at a different chunk size, so old and new table indices disagree.
func TestImportAfterReadsReplacesStaleState(t *testing.T) {
	data := mkText(50, 1_000_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10, MemberSize: 250 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ixRaw := exportIndex(t, comp, 16<<10) // fine-grained table

	r := open(t, comp, Config{Parallelism: 2, ChunkSize: 128 << 10, VerifyChecksums: true})
	// Serve reads first: populates the access cache and advances the
	// CRC cursor under the coarse self-built table.
	buf := make([]byte, 60_000)
	for _, off := range []int{0, 400_000, 800_000} {
		if _, err := r.ReadAt(buf, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ImportIndex(bytes.NewReader(ixRaw)); err != nil {
		t.Fatal(err)
	}
	// A full sequential pass must verify cleanly: the import reset the
	// CRC cursor along with the table (the pre-import random access had
	// already knocked verification out of sequential order).
	if got := readAll(t, r); !bytes.Equal(got, data) {
		t.Fatal("sequential read after import mismatch")
	}
	if ok, fails := r.gz().CRCStatus(); !ok || fails > 0 {
		t.Fatalf("CRC after import: ok=%v fails=%d", ok, fails)
	}
	// And every positional read must reflect the new table, not the
	// cached spans of the old one.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		off := rng.Intn(len(data) - len(buf))
		if _, err := r.ReadAt(buf, int64(off)); err != nil {
			t.Fatalf("ReadAt(%d) after import: %v", off, err)
		}
		if !bytes.Equal(buf, data[off:off+len(buf)]) {
			t.Fatalf("ReadAt(%d) after import: stale data", off)
		}
	}
}

// TestImportThenVerifyCatchesPayloadCorruption is the end-to-end
// integrity story: a valid index over a compressed file whose payload
// was corrupted after export. The import itself succeeds (the index is
// intact); the read must then fail — decode error, chunk-size
// mismatch, or a member CRC failure — rather than return wrong bytes
// as if verified.
func TestImportThenVerifyCatchesPayloadCorruption(t *testing.T) {
	data := mkText(49, 600_000)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 16 << 10, MemberSize: 150 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ixRaw := exportIndex(t, comp, 64<<10)

	bad := bytes.Clone(comp)
	bad[len(bad)/3] ^= 0x55
	r, err := NewReader(filereader.MemoryReader(bad), Config{Parallelism: 4, ChunkSize: 64 << 10, VerifyChecksums: true})
	if err != nil {
		return // corruption hit the first header: also a detection
	}
	defer r.Close()
	if err := r.ImportIndex(bytes.NewReader(ixRaw)); err != nil {
		t.Fatalf("index import should succeed (the index is intact): %v", err)
	}
	var buf bytes.Buffer
	_, readErr := r.WriteTo(&buf)
	ok, fails := r.gz().CRCStatus()
	if readErr == nil && ok && fails == 0 && bytes.Equal(buf.Bytes(), data) {
		t.Fatal("payload corruption slipped through an index-primed verified read")
	}
}
