// Package tarfs provides random access to the members of a TAR archive
// through an io/fs.FS — the "light-weight layer to access the compressed
// file contents" the paper describes for ratarmount (§1.3). Layered on
// the parallel gzip reader, opening one file out of a multi-gigabyte
// .tar.gz costs one index lookup plus the decompression of the touched
// chunks only.
package tarfs

import (
	"archive/tar"
	"errors"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"time"
)

// entry is one archive member.
type entry struct {
	hdr    *tar.Header
	offset int64 // decompressed offset of the member's content
}

// FS is a read-only filesystem view of a TAR archive stored in an
// io.ReaderAt (typically a rapidgzip.Archive). It implements fs.FS,
// fs.ReadDirFS and fs.StatFS. Safe for concurrent use if the underlying
// reader is (archives are).
type FS struct {
	r       io.ReaderAt
	files   map[string]*entry
	dirs    map[string][]string // dir -> sorted child names
	modTime time.Time
}

// countingReader tracks the position of a sequential reader so the
// archive scan can record each member's content offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Source is what tarfs needs from a decompressor: concurrent
// positional reads over the decompressed stream plus its total size.
// Every rapidgzip Archive satisfies it.
type Source interface {
	io.ReaderAt
	Size() (int64, error)
}

// Open scans the TAR structure inside src and returns the filesystem —
// the format-agnostic entry point: any Archive (gzip, BGZF, bzip2,
// LZ4) works, at whatever random-access granularity its capabilities
// admit.
func Open(src Source) (*FS, error) {
	size, err := src.Size()
	if err != nil {
		return nil, err
	}
	return New(src, size)
}

// New scans the TAR structure once (sequentially, which on a rapidgzip
// reader builds the seek-point index as a side effect) and returns the
// filesystem. size is the decompressed size of the archive.
func New(r io.ReaderAt, size int64) (*FS, error) {
	fsys := &FS{
		r:     r,
		files: map[string]*entry{},
		dirs:  map[string][]string{},
	}
	cr := &countingReader{r: io.NewSectionReader(r, 0, size)}
	tr := tar.NewReader(cr)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A generator-truncated trailing entry ends the archive.
			if errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			return nil, err
		}
		name := path.Clean(hdr.Name)
		if name == "." || strings.HasPrefix(name, "../") {
			continue
		}
		e := &entry{hdr: hdr, offset: cr.n}
		switch hdr.Typeflag {
		case tar.TypeReg, tar.TypeRegA:
			fsys.files[name] = e
			fsys.addToDir(name)
		case tar.TypeDir:
			fsys.ensureDir(name)
		}
		if hdr.ModTime.After(fsys.modTime) {
			fsys.modTime = hdr.ModTime
		}
	}
	for d := range fsys.dirs {
		sort.Strings(fsys.dirs[d])
	}
	return fsys, nil
}

// addToDir registers name (and its ancestors) in the directory tree.
func (f *FS) addToDir(name string) {
	for {
		dir := path.Dir(name)
		base := path.Base(name)
		kids := f.dirs[dir]
		found := false
		for _, k := range kids {
			if k == base {
				found = true
				break
			}
		}
		if !found {
			f.dirs[dir] = append(f.dirs[dir], base)
		}
		if dir == "." {
			return
		}
		name = dir
	}
}

func (f *FS) ensureDir(name string) {
	if _, ok := f.dirs[name]; !ok {
		f.dirs[name] = nil
		f.addToDir(name)
	}
}

// Open implements fs.FS.
func (f *FS) Open(name string) (fs.File, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	if e, ok := f.files[name]; ok {
		return &file{
			fsys: f,
			e:    e,
			sr:   io.NewSectionReader(f.r, e.offset, e.hdr.Size),
		}, nil
	}
	if _, ok := f.dirs[name]; ok || name == "." {
		return &dir{fsys: f, name: name}, nil
	}
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

// Stat implements fs.StatFS.
func (f *FS) Stat(name string) (fs.FileInfo, error) {
	h, err := f.Open(name)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return h.Stat()
}

// ReadDir implements fs.ReadDirFS.
func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrInvalid}
	}
	kids, ok := f.dirs[name]
	if !ok && name != "." {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	out := make([]fs.DirEntry, 0, len(kids))
	for _, k := range kids {
		full := k
		if name != "." {
			full = name + "/" + k
		}
		info, err := f.Stat(full)
		if err != nil {
			return nil, err
		}
		out = append(out, fs.FileInfoToDirEntry(info))
	}
	return out, nil
}

// --- file ---------------------------------------------------------------

type file struct {
	fsys *FS
	e    *entry
	sr   *io.SectionReader
}

func (f *file) Read(p []byte) (int, error)                { return f.sr.Read(p) }
func (f *file) ReadAt(p []byte, off int64) (int, error)   { return f.sr.ReadAt(p, off) }
func (f *file) Seek(off int64, whence int) (int64, error) { return f.sr.Seek(off, whence) }
func (f *file) Close() error                              { return nil }
func (f *file) Stat() (fs.FileInfo, error)                { return f.e.hdr.FileInfo(), nil }

// --- directory ------------------------------------------------------------

type dir struct {
	fsys *FS
	name string
	pos  int
}

func (d *dir) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: d.name, Err: errors.New("is a directory")}
}
func (d *dir) Close() error { return nil }

func (d *dir) Stat() (fs.FileInfo, error) {
	return dirInfo{name: path.Base(d.name), mod: d.fsys.modTime}, nil
}

func (d *dir) ReadDir(n int) ([]fs.DirEntry, error) {
	all, err := d.fsys.ReadDir(d.name)
	if err != nil {
		return nil, err
	}
	rest := all[d.pos:]
	if n <= 0 {
		d.pos = len(all)
		return rest, nil
	}
	if len(rest) == 0 {
		return nil, io.EOF
	}
	if n > len(rest) {
		n = len(rest)
	}
	d.pos += n
	return rest[:n], nil
}

type dirInfo struct {
	name string
	mod  time.Time
}

func (i dirInfo) Name() string       { return i.name }
func (i dirInfo) Size() int64        { return 0 }
func (i dirInfo) Mode() fs.FileMode  { return fs.ModeDir | 0o555 }
func (i dirInfo) ModTime() time.Time { return i.mod }
func (i dirInfo) IsDir() bool        { return true }
func (i dirInfo) Sys() any           { return nil }
