package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	rapidgzip "repro"
)

// createGzip is create-gzip: the corpus through Create (gzip, level 6),
// ReadFrom and Close, which also writes the index sidecar. After the
// timed part each pass reopens its output the way a user would (the
// sidecar is discovered), requires that no sizing pass ran, and decodes
// it back to the corpus; the time to that reopen's first byte is the
// workload's first_byte_ms. Each distinct output must also decode with
// the standard library.
type createGzip struct {
	plain  plain
	dir    string
	out    string          // the last P=n output
	stdlib map[uint32]bool // CRC of outputs compress/gzip has decoded
}

func (w *createGzip) setup(e *env, dir string) error {
	w.plain = newPlain(corpus(e.sz.createCorpus, e.seed))
	w.dir, w.out, w.stdlib = dir, "", map[uint32]bool{}
	return nil
}

// describe runs after the passes: the stored size is that of the last
// P=n output.
func (w *createGzip) describe() ([]inputFile, float64, error) {
	files := []inputFile{describe("corpus", w.plain.data)}
	st, err := os.Stat(w.out)
	if err != nil {
		return nil, 0, err
	}
	return files, float64(st.Size()) / float64(len(w.plain.data)), nil
}

func (w *createGzip) teardown() {}

// create writes the corpus to path at parallelism p and returns the
// closed writer.
func (w *createGzip) create(tr *tracer, parent *spanRef, path string, p int) (rapidgzip.Writer, error) {
	sp := tr.start(parent, "gzipw", "Create")
	zw, err := rapidgzip.Create(path, rapidgzip.WithWriterFormat(rapidgzip.FormatGzip), rapidgzip.WithLevel(6), rapidgzip.WithWriterParallelism(p))
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start(parent, "gzipw", "ReadFrom")
	n, err := zw.ReadFrom(bytes.NewReader(w.plain.data))
	sp.end("bytes", n)
	sp = tr.start(parent, "gzipw", "Close")
	cerr := zw.Close()
	sp.end()
	if err == nil {
		err = cerr
	}
	if err == nil && n != int64(len(w.plain.data)) {
		err = fmt.Errorf("ReadFrom consumed %d of %d bytes", n, len(w.plain.data))
	}
	return zw, err
}

// stdlibDecodes checks that compress/gzip decodes the file at path back
// to the corpus, once per distinct output.
func (w *createGzip) stdlibDecodes(path string) error {
	comp, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(comp)
	if w.stdlib[sum] {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return err
	}
	s := &sink{}
	if _, err := io.Copy(s, zr); err != nil {
		return fmt.Errorf("compress/gzip on the created file: %w", err)
	}
	if !w.plain.matches(s) {
		return fmt.Errorf("compress/gzip decodes the created file to different bytes")
	}
	w.stdlib[sum] = true
	return nil
}

// reopens is how often a pass reopens its output for first_byte_ms: the
// verifying reopen and four that stop at the first byte. A reopen takes
// 5 ms and a pass 400, so one sample a pass would leave the median of a
// run to ten samples.
const reopens = 5

// firstByte opens path as a user would and reads one byte.
func firstByte(path string, p int) (time.Duration, error) {
	t0 := time.Now()
	a, err := rapidgzip.Open(path, rapidgzip.WithParallelism(p), rapidgzip.WithVerify(true))
	if err != nil {
		return 0, err
	}
	defer a.Close()
	_, err = io.ReadFull(a, make([]byte, 1))
	return time.Since(t0), err
}

func (w *createGzip) pass(e *env, single bool, seq int, tr *tracer) sample {
	p := e.parallelism(single)
	path := filepath.Join(w.dir, fmt.Sprintf("created-p%d.gz", p))
	root := tr.start(nil, "bench", "pass")
	t0 := time.Now()
	_, err := w.create(tr, root, path, p)
	wall := time.Since(t0)
	root.end("p1", btoi(single))

	s := sample{Single: single, Wall: wall, MBps: mbps(int64(len(w.plain.data)), wall), Ops: []time.Duration{wall}, Attempted: 1}
	if !single {
		w.out = path
	}
	if err == nil {
		var t readTiming
		t, err = readPass(nil, nil, path, w.plain, p, rapidgzip.WithVerify(true))
		if st, serr := os.Stat(path); serr == nil {
			s.Counts = statCounts(t.stats, st.Size())
		}
		firsts := []float64{float64(t.firstByte)}
		for i := 1; i < reopens && err == nil; i++ {
			var d time.Duration
			d, err = firstByte(path, p)
			firsts = append(firsts, float64(d))
		}
		s.FirstByte = time.Duration(median(firsts))
	}
	if err == nil {
		err = bypassed(s.Counts)
	}
	if err == nil {
		err = w.stdlibDecodes(path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: failed pass:", err)
		s.Failed = 1
	}
	return s
}

func (w *createGzip) layers(e *env, tr *tracer, samples []sample) (map[string]float64, error) {
	out := map[string]float64{}
	p1, pn := pick(samples, true, false), pick(samples, false, false)
	out["gzipw.p1_MBps"] = median(rates(p1))
	out["shardpipe.speedup"] = ratio(median(rates(pn)), median(rates(p1)))

	// The sidecar's cost alone: serialising the index of a closed writer.
	zw, err := w.create(nil, nil, filepath.Join(w.dir, "probe.gz"), e.nproc)
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeRepeats; i++ {
		var index bytes.Buffer
		sp := tr.start(nil, "gzindex", "Writer.ExportIndex")
		err := zw.ExportIndex(&index)
		sp.end("bytes", index.Len())
		if err != nil {
			return nil, err
		}
	}
	out["gzipw.sidecar_ms"] = median(spanMs(tr.named("gzindex", "Writer.ExportIndex")))
	return out, nil
}
