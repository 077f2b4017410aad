// targzlist is the ratarmount scenario from the paper's introduction:
// random access into a gzip-compressed TAR archive without
// decompressing it from the front every time.
//
// It opens a .tar.gz, builds the seek-point index once, walks the TAR
// structure by *seeking* (headers only — file contents are skipped
// without being decompressed after index build), and then extracts one
// member by name via ReadAt.
//
//	go run ./examples/targzlist [archive.tar.gz [member]]
package main

import (
	"archive/tar"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/gzipw"
	"repro/internal/workloads"
)

func main() {
	var path, member string
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		path = demoArchive()
		fmt.Printf("no input given; demo archive: %s\n", path)
	}
	if len(os.Args) > 2 {
		member = os.Args[2]
	}

	// The default strategy fits: it prefetches for the sequential pass
	// below and for nothing when the member reads jump around.
	r, err := rapidgzip.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	// One parallel pass builds the index; afterwards any offset is
	// reachable in constant time.
	start := time.Now()
	if err := r.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %v\n", time.Since(start).Round(time.Millisecond))

	// Walk the TAR by seeking over file contents.
	type entry struct {
		name string
		off  int64 // decompressed offset of the file content
		size int64
	}
	var entries []entry
	tr := tar.NewReader(io.NewSectionReader(r, 0, 1<<62))
	for {
		hdr, err := tr.Next()
		if err == io.EOF || err != nil {
			break
		}
		// The section reader's position after Next() is the content
		// start; archive/tar knows sizes, so contents are skipped by
		// seeking inside the indexed stream, not by decompressing.
		entries = append(entries, entry{name: hdr.Name, size: hdr.Size})
	}
	fmt.Printf("%d entries:\n", len(entries))
	for i, e := range entries {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(entries)-10)
			break
		}
		fmt.Printf("  %-40s %10d bytes\n", e.name, e.size)
	}

	if member == "" && len(entries) > 0 {
		member = entries[len(entries)/2].name
	}
	// Extract one member via a fresh TAR walk; the indexed reader makes
	// the skip-to-member seek cheap.
	start = time.Now()
	tr = tar.NewReader(io.NewSectionReader(r, 0, 1<<62))
	for {
		hdr, err := tr.Next()
		if err != nil {
			log.Fatalf("member %q not found", member)
		}
		if hdr.Name == member {
			n, err := io.Copy(io.Discard, tr)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("extracted %q (%d bytes) in %v\n", member, n, time.Since(start).Round(time.Millisecond))
			return
		}
	}
}

// demoArchive compresses a Silesia-like TAR (the workloads generator
// already emits real TAR framing).
func demoArchive() string {
	data := workloads.SilesiaLike(32<<20, 7)
	comp, _, err := gzipw.Compress(data, gzipw.Options{Level: 6, BlockSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "rapidgzip_demo.tar.gz")
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		log.Fatal(err)
	}
	return path
}
