package rapidgzip

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/gzindex"
	"repro/internal/gzipw"
	"repro/internal/workloads"
	"repro/internal/zstdx"
)

// writerCorpus builds compressible-but-varied input for writer tests.
func writerCorpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dogs", "012345"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(4) == 0 {
			b.WriteByte(byte(rng.Intn(256)))
		}
		b.WriteByte(' ')
	}
	return b.Bytes()[:n]
}

// TestCreateThenOpenCounterAsserted is the tentpole acceptance test:
// Create an archive, reopen it through the emitted sidecar, and
// counter-assert that the reopen was free — zero sizing passes, zero
// block-finder probes — while the archive reports full Parallel and
// RandomAccess capabilities and decodes byte-exact.
func TestCreateThenOpenCounterAsserted(t *testing.T) {
	data := writerCorpus(700_000, 1)
	for _, tc := range []struct {
		name string
		ext  string
		opts []WriterOption
	}{
		{"gzip", ".gz", []WriterOption{WithShardSize(64 << 10)}},
		{"bgzf", ".bgz", nil},
		{"zstd", ".zst", []WriterOption{WithShardSize(64 << 10), WithContentChecksum(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "archive"+tc.ext)
			w, err := Create(path, append(tc.opts, WithWriterParallelism(4))...)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			if _, err := w.ReadFrom(bytes.NewReader(data)); err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st := w.Stats()
			if st.Shards < 2 {
				t.Fatalf("only %d shards encoded; the test needs a multi-shard archive", st.Shards)
			}
			if st.UncompressedBytes != uint64(len(data)) {
				t.Fatalf("Stats counted %d uncompressed bytes, want %d", st.UncompressedBytes, len(data))
			}
			if _, err := os.Stat(path + IndexSuffix); err != nil {
				t.Fatalf("Create left no sidecar: %v", err)
			}

			a, err := Open(path) // sidecar is auto-discovered
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer a.Close()
			got, err := io.ReadAll(a)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
			}
			s := a.Stats()
			if s.SizingPasses != 0 {
				t.Fatalf("reopen cost %d sizing passes, want 0 (index not honoured)", s.SizingPasses)
			}
			if s.FinderProbes != 0 {
				t.Fatalf("reopen ran %d block-finder probes, want 0", s.FinderProbes)
			}
			caps := a.Capabilities()
			if !caps.Parallel || !caps.RandomAccess {
				t.Fatalf("capabilities %+v, want Parallel and RandomAccess", caps)
			}
			// Random access actually works at an interior offset.
			buf := make([]byte, 1000)
			off := int64(len(data) / 2)
			if _, err := a.ReadAt(buf, off); err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if !bytes.Equal(buf, data[off:off+1000]) {
				t.Fatal("ReadAt content mismatch")
			}
		})
	}
}

// TestBGZFSidecarIsColdGeometry: a Create'd BGZF file's sidecar groups
// its members by the rule a cold open's scan groups them by, at a gzip
// sidecar's spacing: it holds the seek points and member marks that an
// export after a cold open at a ChunkSize of 1 MiB does, for an empty
// input, one short member and many members.
func TestBGZFSidecarIsColdGeometry(t *testing.T) {
	for _, n := range []int{0, 1000, 3_500_000} {
		path := filepath.Join(t.TempDir(), "archive.bgz")
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(writerCorpus(n, 3)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path + IndexSuffix)
		if err != nil {
			t.Fatal(err)
		}
		sidecar, err := gzindex.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		a, err := Open(path, WithoutIndexDiscovery(), WithChunkSize(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = a.ExportIndex(&buf)
		a.Close()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := gzindex.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if sidecar.Len() != cold.Len() || sidecar.UncompressedSize != cold.UncompressedSize || sidecar.CompressedSize != cold.CompressedSize {
			t.Fatalf("%d B: the sidecar has %d points over %d/%d B, a cold export %d over %d/%d B",
				n, sidecar.Len(), sidecar.UncompressedSize, sidecar.CompressedSize, cold.Len(), cold.UncompressedSize, cold.CompressedSize)
		}
		for i := range sidecar.Len() {
			p, q := sidecar.Point(i), cold.Point(i)
			if p != q {
				t.Fatalf("%d B: point %d is %+v in the sidecar, %+v in a cold export", n, i, p, q)
			}
			if pm, qm := sidecar.MemberEnds(p.CompressedBitOffset), cold.MemberEnds(q.CompressedBitOffset); !slices.Equal(pm, qm) {
				t.Fatalf("%d B: point %d has member marks %v in the sidecar, %v in a cold export", n, i, pm, qm)
			}
		}
		if n > 2<<20 && sidecar.Len() < 3 {
			t.Fatalf("%d B in %d groups, want one about every MiB of output", n, sidecar.Len())
		}
	}
}

// TestCreateRoundTripMatrix sweeps WriterOption combinations and
// checks every archive decodes byte-exact through Open — including
// boundary sizes (empty, one byte, exact shard multiples).
func TestCreateRoundTripMatrix(t *testing.T) {
	shard := 32 << 10
	sizes := []int{0, 1, shard, shard + 1, 3*shard - 7}
	type combo struct {
		name string
		opts []WriterOption
	}
	combos := []combo{
		{"gzip-sharded-l1", []WriterOption{WithWriterFormat(FormatGzip), WithShardSize(shard), WithLevel(1)}},
		{"gzip-sharded-l6", []WriterOption{WithWriterFormat(FormatGzip), WithShardSize(shard), WithLevel(6)}},
		{"gzip-sharded-l9", []WriterOption{WithWriterFormat(FormatGzip), WithShardSize(shard), WithLevel(9)}},
		{"gzip-stored", []WriterOption{WithWriterFormat(FormatGzip), WithShardSize(shard), WithLevel(0)}},
		{"bgzf", []WriterOption{WithWriterFormat(FormatBGZF), WithLevel(6)}},
		{"zstd-multiframe", []WriterOption{WithWriterFormat(FormatZstd), WithShardSize(shard), WithLevel(1)}},
		{"zstd-stored", []WriterOption{WithWriterFormat(FormatZstd), WithShardSize(shard), WithLevel(0)}},
		{"zstd-checksummed", []WriterOption{WithWriterFormat(FormatZstd), WithShardSize(shard), WithLevel(1), WithContentChecksum(true)}},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range sizes {
				data := writerCorpus(n, int64(n)+7)
				path := filepath.Join(t.TempDir(), "m.bin")
				w, err := Create(path, append(c.opts, WithWriterParallelism(3))...)
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				if _, err := w.Write(data); err != nil {
					t.Fatalf("n=%d Write: %v", n, err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("n=%d Close: %v", n, err)
				}
				a, err := Open(path)
				if err != nil {
					t.Fatalf("n=%d Open: %v", n, err)
				}
				got, err := io.ReadAll(a)
				a.Close()
				if err != nil {
					t.Fatalf("n=%d read: %v", n, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("n=%d mismatch: got %d bytes", n, len(got))
				}
			}
		})
	}
}

// TestCreateReferenceCLIs decodes our archives with the reference
// command-line tools where available — the interop half of the
// round-trip matrix.
func TestCreateReferenceCLIs(t *testing.T) {
	data := writerCorpus(300_000, 5)
	run := func(t *testing.T, tool string, args []string, path string) []byte {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not in PATH", tool)
		}
		cmd := exec.Command(tool, args...)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cmd.Stdin = f
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v (%s)", tool, err, errb.String())
		}
		return out.Bytes()
	}
	t.Run("gzip-d", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.gz")
		w, _ := Create(path, WithShardSize(48<<10), WithWriterParallelism(4))
		w.Write(data)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := run(t, "gzip", []string{"-dc"}, path); !bytes.Equal(got, data) {
			t.Fatalf("gzip -d output mismatch (%d bytes)", len(got))
		}
	})
	t.Run("gzip-d-bgzf", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.bgz")
		w, _ := Create(path, WithWriterParallelism(4))
		w.Write(data)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := run(t, "gzip", []string{"-dc"}, path); !bytes.Equal(got, data) {
			t.Fatalf("gzip -d BGZF output mismatch (%d bytes)", len(got))
		}
	})
	t.Run("zstd-d", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.zst")
		w, _ := Create(path, WithShardSize(48<<10), WithWriterParallelism(4), WithContentChecksum(true))
		w.Write(data)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := run(t, "zstd", []string{"-dc"}, path); !bytes.Equal(got, data) {
			t.Fatalf("zstd -d output mismatch (%d bytes)", len(got))
		}
	})
}

// TestCreateGzipStdlibInterop always runs (no external tool): the
// sharded single-member gzip output must satisfy compress/gzip,
// including the combined footer CRC it verifies at EOF.
func TestCreateGzipStdlibInterop(t *testing.T) {
	data := writerCorpus(200_000, 13)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithShardSize(32<<10), WithWriterParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr) // ReadAll reaches EOF, which checks CRC32+ISIZE
	if err != nil {
		t.Fatalf("stdlib decode: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("stdlib close: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stdlib round trip mismatch")
	}
}

// TestNewWriterExportIndex checks the bring-your-own-destination path:
// NewWriter into a buffer, ExportIndex after Close, then Open the
// bytes with the exported index via OpenBytes+ImportIndex semantics
// (WithIndexFile on a temp file).
func TestNewWriterExportIndex(t *testing.T) {
	data := writerCorpus(400_000, 21)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WithWriterFormat(FormatZstd), WithShardSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ExportIndex(io.Discard); err == nil {
		t.Fatal("ExportIndex before Close succeeded")
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ixPath := filepath.Join(dir, "x.rgzidx")
	ixf, err := os.Create(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ExportIndex(ixf); err != nil {
		t.Fatalf("ExportIndex: %v", err)
	}
	ixf.Close()
	a, err := OpenBytes(buf.Bytes(), WithIndexFile(ixPath))
	if err != nil {
		t.Fatalf("OpenBytes with index: %v", err)
	}
	defer a.Close()
	if s := a.Stats(); s.SizingPasses != 0 {
		t.Fatalf("SizingPasses = %d, want 0", s.SizingPasses)
	}
	got, err := io.ReadAll(a)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip via exported index failed: %v", err)
	}
}

// TestWriterOptionErrors table-tests the writer option surface's typed
// failures.
func TestWriterOptionErrors(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "x.gz")
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"unsupported writer format bzip2", func() error {
			_, err := Create(tmp, WithWriterFormat(FormatBzip2))
			return err
		}, ErrUnsupportedFormat},
		{"unsupported writer format lz4", func() error {
			_, err := NewWriter(io.Discard, WithWriterFormat(FormatLZ4))
			return err
		}, ErrUnsupportedFormat},
		{"sidecar with and without", func() error {
			_, err := Create(tmp, WithIndexSidecar(tmp+".idx"), WithoutIndexSidecar())
			return err
		}, ErrConflictingOptions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	// Level/shard/parallelism validation is eager, before any file I/O.
	if _, err := NewWriter(io.Discard, WithLevel(10)); err == nil {
		t.Fatal("level 10 accepted")
	}
	if _, err := NewWriter(io.Discard, WithShardSize(-1)); err == nil {
		t.Fatal("negative shard size accepted")
	}
	if _, err := NewWriter(io.Discard, WithWriterParallelism(-1)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	// Write after Close reports the typed ErrClosed.
	w, _ := NewWriter(io.Discard)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Close = %v, want ErrClosed", err)
	}
}

// TestCreateFormatInference checks extension-based format selection.
func TestCreateFormatInference(t *testing.T) {
	dir := t.TempDir()
	for ext, want := range map[string]Format{
		".gz": FormatGzip, ".bgz": FormatBGZF, ".bgzf": FormatBGZF,
		".zst": FormatZstd, ".zstd": FormatZstd, ".bin": FormatGzip,
	} {
		w, err := Create(filepath.Join(dir, "f"+strings.ReplaceAll(ext, ".", "_")+ext))
		if err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		if got := w.Format(); got != want {
			t.Fatalf("ext %s inferred %v, want %v", ext, got, want)
		}
		w.Close()
	}
}

// TestCreateWithoutSidecar checks WithoutIndexSidecar leaves no index
// file but keeps ExportIndex working.
func TestCreateWithoutSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.gz")
	w, err := Create(path, WithoutIndexSidecar(), WithShardSize(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	w.Write(writerCorpus(50_000, 2))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + IndexSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sidecar exists despite WithoutIndexSidecar: %v", err)
	}
	var ix bytes.Buffer
	if err := w.ExportIndex(&ix); err != nil {
		t.Fatalf("ExportIndex: %v", err)
	}
	if ix.Len() == 0 {
		t.Fatal("empty exported index")
	}
}

// encodeAll writes data through a new Writer, through ReadFrom (fed in
// short reads) or Write, and returns the output and the closed writer.
func encodeAll(t *testing.T, data []byte, readFrom bool, opts ...WriterOption) ([]byte, *writer) {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if readFrom {
		_, err = w.ReadFrom(iotest.HalfReader(bytes.NewReader(data)))
	} else {
		_, err = w.Write(data)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), w.(*writer)
}

// TestWriterMatchesEncoders ties the one shard loop to the encoders it
// shares: a BGZF archive is gzipw.Compress's BGZF output, a zstd one is
// zstdx.CompressFrames's, every gzip shard inflates on its own, and
// ReadFrom writes the bytes Write does — at every level, one worker and
// three, across member and shard boundaries.
func TestWriterMatchesEncoders(t *testing.T) {
	const shard = 32 << 10
	sizes := []int{0, 1, gzipw.BGZFChunkSize, gzipw.BGZFChunkSize + 1, 1<<20 + 17}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, tc := range []struct {
		format Format
		check  func(t *testing.T, w *writer, data, out []byte, level, p int)
	}{
		{FormatGzip, func(t *testing.T, w *writer, data, out []byte, _, _ int) {
			zr, err := gzip.NewReader(bytes.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("compress/gzip decodes %d bytes, %v", len(got), err)
			}
			comp, decomp := int64(len(gzipw.AppendHeader(nil))), int64(0)
			for i, cp := range w.cps {
				if cp.compOff != comp || cp.decompOff != decomp {
					t.Fatalf("shard %d at (%d,%d), want (%d,%d)", i, cp.compOff, cp.decompOff, comp, decomp)
				}
				want := data[cp.decompOff : cp.decompOff+cp.decompSize]
				got := make([]byte, len(want)+1)
				n, _ := io.ReadFull(flate.NewReader(bytes.NewReader(out[cp.compOff:cp.compEnd])), got)
				if !bytes.Equal(got[:n], want) || cp.crc != crc32.ChecksumIEEE(want) {
					t.Fatalf("shard %d does not inflate on its own to its %d bytes", i, len(want))
				}
				comp, decomp = cp.compEnd, decomp+cp.decompSize
			}
			if decomp != int64(len(data)) || comp+13 != int64(len(out)) {
				t.Fatalf("shards cover %d bytes ending at %d; want %d ending 13 bytes before %d", decomp, comp, len(data), len(out))
			}
		}},
		{FormatBGZF, func(t *testing.T, _ *writer, data, out []byte, level, _ int) {
			want := gzipw.BGZFEOFMarker // an empty input is the EOF member alone
			if len(data) > 0 {
				var err error
				if want, _, err = gzipw.Compress(data, gzipw.Options{Level: level, BGZF: true}); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("BGZF output (%d bytes) differs from gzipw.Compress (%d bytes)", len(out), len(want))
			}
		}},
		{FormatZstd, func(t *testing.T, _ *writer, data, out []byte, level, p int) {
			want := zstdx.CompressFrames(data, zstdx.FrameOptions{FrameSize: shard, Level: level, ContentChecksum: p > 1})
			if !bytes.Equal(out, want) {
				t.Fatalf("zstd output (%d bytes) differs from zstdx.CompressFrames (%d bytes)", len(out), len(want))
			}
		}},
	} {
		t.Run(tc.format.String(), func(t *testing.T) {
			for _, level := range []int{0, 1, 6, 9} {
				for _, p := range []int{1, 3} {
					for _, n := range sizes {
						data := writerCorpus(n, int64(n+level))
						opts := []WriterOption{WithWriterFormat(tc.format), WithLevel(level), WithShardSize(shard),
							WithWriterParallelism(p), WithContentChecksum(p > 1)}
						out, w := encodeAll(t, data, false, opts...)
						if rf, _ := encodeAll(t, data, true, opts...); !bytes.Equal(rf, out) {
							t.Fatalf("level %d P=%d n=%d: ReadFrom and Write wrote different bytes", level, p, n)
						}
						if st := w.Stats(); st.Shards != uint64(len(w.cps)) || st.UncompressedBytes != uint64(n) || st.CompressedBytes != uint64(len(out)) {
							t.Fatalf("level %d P=%d n=%d: Stats %+v for %d shards, %d output bytes", level, p, n, st, len(w.cps), len(out))
						}
						t.Run(fmt.Sprintf("l%d/P%d/n%d", level, p, n), func(t *testing.T) { tc.check(t, w, data, out, level, p) })
					}
				}
			}
		})
	}
}

// errDestination is what failingDestination returns once it is full.
var errDestination = errors.New("destination full")

// failingDestination accepts its first left bytes and fails every
// write after them.
type failingDestination struct{ left int }

func (d *failingDestination) Write(p []byte) (int, error) {
	if len(p) > d.left {
		n := d.left
		d.left = 0
		return n, errDestination
	}
	d.left -= len(p)
	return len(p), nil
}

// TestWriterFailingDestination fails the destination after 300 KiB, in
// the middle of a Write or ReadFrom call, and requires the call and
// Close to report its error, ExportIndex to refuse, no sidecar to be
// written (the Close path Create takes too) and no goroutine to
// outlive Close.
func TestWriterFailingDestination(t *testing.T) {
	data := writerCorpus(2<<20, 17)
	for _, format := range []Format{FormatGzip, FormatBGZF, FormatZstd} {
		for _, readFrom := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/readFrom=%v", format, readFrom), func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				sidecar := filepath.Join(t.TempDir(), "x"+IndexSuffix)
				w, err := NewWriter(&failingDestination{left: 300 << 10}, WithWriterFormat(format), WithLevel(0),
					WithShardSize(64<<10), WithWriterParallelism(2), WithIndexSidecar(sidecar))
				if err != nil {
					t.Fatal(err)
				}
				if readFrom {
					_, err = w.ReadFrom(bytes.NewReader(data))
				} else {
					_, err = w.Write(data)
				}
				if !errors.Is(err, errDestination) {
					t.Fatalf("call returned %v, want the destination's error", err)
				}
				if err := w.Close(); !errors.Is(err, errDestination) {
					t.Fatalf("Close returned %v, want the destination's error", err)
				}
				if err := w.ExportIndex(io.Discard); err == nil {
					t.Fatal("ExportIndex succeeded for a failed archive")
				}
				if _, err := os.Stat(sidecar); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("a failed archive left a sidecar: %v", err)
				}
				// Workers have returned once Close does; give their
				// goroutines a moment to exit.
				for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > goroutines {
					t.Fatalf("%d goroutines after Close, %d before NewWriter", n, goroutines)
				}
			})
		}
	}
}

// BenchmarkWriter encodes 8 MiB through NewWriter for every format at
// the default level, at one worker and two.
func BenchmarkWriter(b *testing.B) {
	data := workloads.Base64(8<<20, 42)
	for _, format := range []Format{FormatGzip, FormatBGZF, FormatZstd} {
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/P=%d", format, p), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					w, err := NewWriter(io.Discard, WithWriterFormat(format), WithWriterParallelism(p))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := w.Write(data); err != nil {
						b.Fatal(err)
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
