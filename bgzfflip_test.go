package rapidgzip

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gzformat"
	"repro/internal/gzipw"
	"repro/internal/workloads"
)

// TestBGZFFlipTable flips every bit of every member header and footer of
// a BGZF file of three members and the EOF marker, 832 flips, and reads
// each damaged file cold at a chunk size of 64 KiB and at the default,
// at P=1 and P=2, and again through the index a cold open exports. Every
// read is an error, after bytes that begin the plaintext, or the whole
// plaintext: a size field that lies fails a read, and never serves the
// bytes of another member in place of its own or skips any. No declared
// size sizes an allocation: a pass allocates at most four times the
// plaintext and 8 MiB. A file compress/gzip decodes is never refused at
// Open; its reads may still fail where a size field the scan trusts
// lies.
func TestBGZFFlipTable(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 832 damaged files eight ways")
	}
	plain := workloads.SilesiaLike(195_840, 5)
	comp, _, err := gzipw.Compress(plain, gzipw.Options{Level: 6, BGZF: true})
	if err != nil {
		t.Fatal(err)
	}
	// The bytes of every member header and footer.
	var meta []int
	for pos := 0; pos < len(comp); {
		hdr, err := gzformat.ParseHeader(bitio.NewBitReaderBytes(comp[pos:]))
		if err != nil {
			t.Fatal(err)
		}
		end := pos + hdr.BGZFBlockSize
		for i := range hdr.HeaderSz {
			meta = append(meta, pos+i)
		}
		for i := end - 8; i < end; i++ {
			meta = append(meta, i)
		}
		pos = end
	}
	if len(comp) != 45_164 || len(meta) != 4*26 {
		t.Fatalf("a %d B file with %d header and footer bytes, want 45,164 B with four members", len(comp), len(meta))
	}

	const allocBound = 4*195_840 + 8<<20
	configs := []struct {
		name string
		opts []Option
	}{
		{"64KiB/P=1", []Option{WithChunkSize(64 << 10), WithParallelism(1)}},
		{"64KiB/P=2", []Option{WithChunkSize(64 << 10), WithParallelism(2)}},
		{"default/P=1", []Option{WithParallelism(1)}},
		{"default/P=2", []Option{WithParallelism(2)}},
	}
	var refused, failed, served, exported, refDecodes, refDecodesFailed int
	var most uint64
	for _, at := range meta {
		for bit := range 8 {
			damaged := bytes.Clone(comp)
			damaged[at] ^= 1 << bit
			zr, refErr := gzip.NewReader(bytes.NewReader(damaged))
			if refErr == nil {
				_, refErr = io.Copy(io.Discard, zr)
			}
			if refErr == nil {
				refDecodes++
			}
			for _, cfg := range configs {
				flip := fmt.Sprintf("byte %d bit %d, %s", at, bit, cfg.name)
				opts := append([]Option{WithVerify(true)}, cfg.opts...)
				var ix bytes.Buffer
				grew, err := flipPass(t, flip, plain, allocBound, func() (Archive, error) { return OpenBytes(damaged, opts...) }, &ix)
				most = max(most, grew)
				switch {
				case errors.Is(err, errRefused) && refErr == nil:
					t.Errorf("%s: refused a file compress/gzip decodes", flip)
				case errors.Is(err, errRefused):
					refused++
				case err != nil:
					failed++
					if refErr == nil {
						refDecodesFailed++
					}
				default:
					served++
				}
				if ix.Len() == 0 {
					continue
				}
				exported++
				grew, _ = flipPass(t, flip+", through its export", plain, allocBound, func() (Archive, error) {
					a, err := OpenBytes(damaged, opts...)
					if err == nil {
						if err = a.ImportIndex(&ix); err != nil {
							a.Close()
						}
					}
					return a, err
				}, nil)
				most = max(most, grew)
			}
		}
	}
	t.Logf("%d flips, %d decoded by compress/gzip; %d cold passes refused at Open, %d failed (%d of files compress/gzip decodes), %d served the plaintext; %d exports read back; at most %d B allocated by a pass",
		len(meta)*8, refDecodes, refused, failed, refDecodesFailed, served, exported, most)
}

// errRefused is flipPass's verdict on an open that failed.
var errRefused = errors.New("refused at Open")

// flipPass opens an archive with open and reads it whole, and fails the
// test unless the read is the plaintext or an error after a prefix of
// it, and unless the open and the read together allocate at most bound
// bytes. It returns what the pass allocated, and errRefused for an open
// that failed, or the read's error. Where ix is not nil and the read
// succeeded, the archive's exported index is written to it.
func flipPass(t *testing.T, flip string, plain []byte, bound uint64, open func() (Archive, error), ix *bytes.Buffer) (uint64, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out bytes.Buffer
	a, err := open()
	if err != nil {
		err = errRefused
	} else {
		_, err = a.WriteTo(&out)
		if err == nil && ix != nil && a.ExportIndex(ix) != nil {
			ix.Reset()
		}
		a.Close()
	}
	runtime.ReadMemStats(&after)
	switch {
	case err == nil && !bytes.Equal(out.Bytes(), plain):
		t.Errorf("%s: served %d wrong bytes with no error", flip, out.Len())
	case !bytes.HasPrefix(plain, out.Bytes()):
		t.Errorf("%s: %d bytes before %v do not begin the plaintext", flip, out.Len(), err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	if grew > bound {
		t.Errorf("%s: allocated %d bytes, want at most %d", flip, grew, bound)
	}
	return grew, err
}
