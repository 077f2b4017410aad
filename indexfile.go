package rapidgzip

import (
	"io"
	"os"
	"path/filepath"
)

// ExportIndexFile writes a's index (seek points for gzip/BGZF, the
// checkpoint table for bzip2/LZ4/zstd) to path atomically: the bytes
// land in a temp file in the same directory first and are renamed into
// place only when complete, so a crash mid-export never leaves a
// truncated index for a later Open to trip on, and an archive open
// through the file at path, a itself included, goes on reading the
// windows of the file it opened. Parent directories are
// created as needed — the layout a shared index store wants, where
// "data/logs.gz" maps to "<store>/data/logs.gz.rgzidx".
//
// For gzip the export completes the seek-point index first (one full
// decompression pass if the file has not been fully indexed yet); for
// every other format the checkpoint table exists since open and the
// export is metadata-only.
func ExportIndexFile(a Archive, path string) error {
	return writeFileAtomic(path, a.ExportIndex)
}

// writeFileAtomic streams fill's output into path via a same-directory
// temp file renamed into place. On any failure the temp file is
// removed and path is left untouched.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := fill(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp opens 0600; the index should be as readable as the
	// archive it describes (umask still applies via the archive itself,
	// so plain 0644 matches os.Create's default).
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
