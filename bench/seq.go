package main

import (
	"fmt"
	"os"
	"time"

	rapidgzip "repro"
)

// readTiming is what one whole-file read pass measured.
type readTiming struct {
	wall, open, firstByte time.Duration
	stats                 rapidgzip.Stats
}

// readPass is the sequential user: a fresh Open of path, WriteTo into a
// checksumming sink, Close. The returned error is an operation failure
// (open or read error, or bytes that do not match want), not a harness
// failure.
func readPass(tr *tracer, parent *spanRef, path string, want plain, p int, opts ...rapidgzip.Option) (readTiming, error) {
	var t readTiming
	opts = append(opts[:len(opts):len(opts)], rapidgzip.WithParallelism(p))
	t0 := time.Now()
	sp := tr.start(parent, "archive", "Open")
	a, err := rapidgzip.Open(path, opts...)
	sp.end()
	t.open = time.Since(t0)
	if err != nil {
		return t, err
	}
	sp = tr.start(parent, "archive", "WriteTo")
	s := &sink{tr: tr, parent: sp}
	_, err = a.WriteTo(s)
	sp.end("bytes", s.n)
	t.stats = a.Stats()
	sp = tr.start(parent, "archive", "Close")
	cerr := a.Close()
	sp.end()
	t.wall = time.Since(t0)
	t.firstByte = s.first.Sub(t0)
	switch {
	case err != nil:
		return t, err
	case cerr != nil:
		return t, cerr
	case !want.matches(s):
		return t, fmt.Errorf("%s: decoded %d bytes crc %08x, want %d bytes crc %08x", path, s.n, s.crc, len(want.data), want.crc)
	}
	return t, nil
}

// bypassed reports whether an open through an index skipped the block
// finder and the sizing pass, as it must.
func bypassed(counts map[string]float64) error {
	if probes, sizing := counts["core.finder_probes"], counts["_sizing_passes"]; probes != 0 || sizing != 0 {
		return fmt.Errorf("indexed open ran the finder or a sizing pass: FinderProbes=%g SizingPasses=%g", probes, sizing)
	}
	return nil
}

// exportIndex builds the index of the gzip file at path with the given
// chunk size and writes it to idxPath.
func exportIndex(path, idxPath string, chunk int) error {
	a, err := rapidgzip.Open(path, rapidgzip.WithChunkSize(chunk), rapidgzip.WithoutIndexDiscovery())
	if err != nil {
		return err
	}
	defer a.Close()
	return rapidgzip.ExportIndexFile(a, idxPath)
}

// gzipInput is the gzip file (and optionally its index) the four gzip
// read workloads share.
type gzipInput struct {
	plain   plain
	gzPath  string
	idxPath string // "" when no index was exported
	gzBytes int64
}

func (in *gzipInput) build(e *env, dir string, indexChunk int) error {
	data := corpus(e.sz.gzipCorpus, e.seed)
	gz, err := gzipStd(data)
	if err != nil {
		return err
	}
	in.plain = newPlain(data)
	in.gzBytes = int64(len(gz))
	in.idxPath = ""
	if in.gzPath, err = writeInput(dir, "corpus.gz", gz); err != nil {
		return err
	}
	if indexChunk > 0 {
		in.idxPath = in.gzPath + rapidgzip.IndexSuffix
		return exportIndex(in.gzPath, in.idxPath, indexChunk)
	}
	return nil
}

func (in *gzipInput) describe() ([]inputFile, float64, error) {
	files := []inputFile{describe("corpus", in.plain.data)}
	for _, p := range []string{in.gzPath, in.idxPath} {
		if p == "" {
			continue
		}
		f, err := describeFile(p)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, f)
	}
	return files, float64(in.gzBytes) / float64(len(in.plain.data)), nil
}

// gzipSeq is gzip-seq-cold and, with indexed set, gzip-seq-indexed: a
// fresh file-backed Open per pass and a full verified WriteTo.
type gzipSeq struct {
	indexed bool
	in      gzipInput
}

func (w *gzipSeq) setup(e *env, dir string) error {
	chunk := 0
	if w.indexed {
		chunk = e.sz.seqChunk
	}
	return w.in.build(e, dir, chunk)
}

func (w *gzipSeq) describe() ([]inputFile, float64, error) { return w.in.describe() }

func (w *gzipSeq) teardown() {}

func (w *gzipSeq) options(e *env, indexed bool) []rapidgzip.Option {
	opts := []rapidgzip.Option{rapidgzip.WithChunkSize(e.sz.seqChunk), rapidgzip.WithVerify(true)}
	if indexed {
		return append(opts, rapidgzip.WithIndexFile(w.in.idxPath))
	}
	return append(opts, rapidgzip.WithoutIndexDiscovery())
}

func (w *gzipSeq) pass(e *env, single bool, seq int, tr *tracer) sample {
	root := tr.start(nil, "bench", "pass")
	t, err := readPass(tr, root, w.in.gzPath, w.in.plain, e.parallelism(single), w.options(e, w.indexed)...)
	root.end("p1", btoi(single))
	s := sample{
		Single: single, Wall: t.wall, MBps: mbps(int64(len(w.in.plain.data)), t.wall), FirstByte: t.firstByte,
		Ops: []time.Duration{t.wall}, Attempted: 1, Counts: statCounts(t.stats, w.in.gzBytes),
	}
	if err == nil && w.indexed {
		err = bypassed(s.Counts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: failed pass:", err)
		s.Failed = 1
	}
	return s
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
