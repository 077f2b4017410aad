package rapidgzip_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/lz4x"
)

// gzipped compresses data with the standard library, for examples.
func gzipped(data []byte) []byte {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

// One Open for every format: the content's magic bytes select the
// backend, and the Archive interface is the same regardless.
func ExampleOpen() {
	dir, _ := os.MkdirTemp("", "example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hello.gz")
	os.WriteFile(path, gzipped([]byte("hello, rapidgzip\n")), 0o644)

	a, err := rapidgzip.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	fmt.Printf("format: %s\n", a.Format())
	io.Copy(os.Stdout, a)
	// Output:
	// format: gzip
	// hello, rapidgzip
}

// WithFormat skips sniffing and forces a backend — useful when magic
// bytes are unavailable or only one format is acceptable.
func ExampleWithFormat() {
	comp := lz4x.CompressFrames([]byte("forced through the LZ4 backend\n"), lz4x.FrameOptions{})

	a, err := rapidgzip.OpenBytes(comp, rapidgzip.WithFormat(rapidgzip.FormatLZ4))
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	fmt.Printf("format: %s, seekable: %v\n", a.Format(), a.Capabilities().Seek)
	io.Copy(os.Stdout, a)
	// Output:
	// format: lz4, seekable: true
	// forced through the LZ4 backend
}

// TarFS serves a .tar.gz as a filesystem — the ratarmount scenario: build
// the index once, and every member is then a seek into the stream, not a
// decompression from the front.
func ExampleTarFS() {
	var tarball bytes.Buffer
	tw := tar.NewWriter(&tarball)
	for name, body := range map[string]string{
		"docs/readme.txt":  "random access into a compressed tar\n",
		"data/numbers.csv": "1,2,3\n",
		"notes.txt":        "seek, do not scan\n",
	} {
		tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(body))})
		tw.Write([]byte(body))
	}
	tw.Close()

	a, err := rapidgzip.OpenBytes(gzipped(tarball.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	if err := a.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	fsys, err := rapidgzip.TarFS(a)
	if err != nil {
		log.Fatal(err)
	}
	err = fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			fmt.Println(path)
		}
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	body, err := fs.ReadFile(fsys, "docs/readme.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(string(body))
	// Output:
	// data/numbers.csv
	// docs/readme.txt
	// notes.txt
	// random access into a compressed tar
}

// Open transparently imports a sibling "<file>.rgzidx" index saved by
// an earlier run, making the reader fully indexed from the start —
// the block finder never runs (opt out with WithoutIndexDiscovery).
func ExampleOpen_indexDiscovery() {
	dir, _ := os.MkdirTemp("", "example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "data.gz")
	os.WriteFile(path, gzipped(bytes.Repeat([]byte("log line\n"), 100_000)), 0o644)

	// First run: decompress once and save the index next to the file.
	first, err := rapidgzip.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	ixf, _ := os.Create(path + rapidgzip.IndexSuffix)
	first.ExportIndex(ixf)
	ixf.Close()
	first.Close()

	// Later runs discover it automatically.
	a, err := rapidgzip.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	n, _ := io.Copy(io.Discard, a)
	fmt.Printf("decompressed %d bytes, finder probes: %d\n", n, a.Stats().FinderProbes)
	// Output:
	// decompressed 900000 bytes, finder probes: 0
}
