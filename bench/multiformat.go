package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	rapidgzip "repro"
	"repro/internal/bzip2x"
	"repro/internal/gzipw"
	"repro/internal/lz4x"
	"repro/internal/zstdx"
)

// formatInput is one compressed file of multiformat-seq, named after
// the layer that decodes it.
type formatInput struct {
	layer string
	file  string
	plain plain
	path  string
	comp  []byte
}

// multiformat is multiformat-seq: the corpus as BGZF, multi-frame zstd,
// LZ4 and (a smaller cut, its encoder is slow) bzip2, each read by a
// fresh file-backed Open and WriteTo. One pass is one round over the
// four; its rate is the geometric mean of the four rates, so no format
// outweighs another, and the per-format rates are per-layer metrics.
type multiformat struct {
	files []*formatInput
}

func (w *multiformat) setup(e *env, dir string) error {
	big := newPlain(corpus(e.sz.multiCorpus, e.seed))
	small := newPlain(corpus(e.sz.bzip2Corpus, e.seed))
	w.files = []*formatInput{
		{layer: "bgzf", file: "corpus.bgzf.gz", plain: big},
		{layer: "zstdx", file: "corpus.zst", plain: big},
		{layer: "lz4x", file: "corpus.lz4", plain: big},
		{layer: "bzip2x", file: "corpus.bz2", plain: small},
	}
	encode := func(f *formatInput) (err error) {
		switch f.layer {
		case "bgzf":
			f.comp, _, err = gzipw.Compress(f.plain.data, gzipw.Options{Level: 6, BGZF: true})
		case "zstdx":
			f.comp = zstdx.CompressFrames(f.plain.data, zstdx.FrameOptions{Level: 1, FrameSize: e.sz.frameBytes, ContentChecksum: true})
		case "lz4x":
			f.comp = lz4x.CompressFrames(f.plain.data, lz4x.FrameOptions{FrameSize: e.sz.frameBytes})
		case "bzip2x":
			f.comp, err = bzip2x.Compress(f.plain.data, bzip2x.WriterOptions{Level: 1, StreamSize: e.sz.bzip2Corpus / 4})
		}
		if err == nil {
			f.path, err = writeInput(dir, f.file, f.comp)
		}
		return err
	}
	// The four encoders are independent; set-up runs them side by side.
	errs := make([]error, len(w.files))
	var wg sync.WaitGroup
	for i, f := range w.files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = encode(f)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *multiformat) describe() ([]inputFile, float64, error) {
	files := []inputFile{describe("corpus", w.files[0].plain.data)}
	var stored, user int64
	for _, f := range w.files {
		files = append(files, describe(f.file, f.comp))
		stored += int64(len(f.comp))
		user += int64(len(f.plain.data))
	}
	return files, float64(stored) / float64(user), nil
}

func (w *multiformat) teardown() {}

func (w *multiformat) pass(e *env, single bool, seq int, tr *tracer) sample {
	s := sample{Single: single, Parts: map[string]float64{}, Counts: map[string]float64{}}
	root := tr.start(nil, "bench", "pass")
	var rates, firsts []float64
	for _, f := range w.files {
		sp := tr.start(root, f.layer, "Open+WriteTo")
		t, err := readPass(tr, sp, f.path, f.plain, e.parallelism(single), rapidgzip.WithoutIndexDiscovery(), rapidgzip.WithVerify(true))
		sp.end("bytes", len(f.plain.data), "p1", btoi(single))
		s.Attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: failed pass:", err)
			s.Failed++
		}
		rate := mbps(int64(len(f.plain.data)), t.wall)
		s.Parts[f.layer] = rate
		s.Parts[f.layer+".open_share"] = ratio(float64(t.open), float64(t.wall))
		rates = append(rates, rate)
		firsts = append(firsts, float64(t.firstByte))
		s.Wall += t.wall
		addCounts(s.Counts, statCounts(t.stats, int64(len(f.comp))))
	}
	root.end("p1", btoi(single))
	s.MBps = geomean(rates...)
	s.FirstByte = time.Duration(geomean(firsts...))
	s.Ops = []time.Duration{s.Wall}
	return s
}

func (w *multiformat) layers(e *env, tr *tracer, samples []sample) (map[string]float64, error) {
	out := map[string]float64{}
	part := func(samples []sample, key string) float64 {
		var v []float64
		for _, s := range samples {
			v = append(v, s.Parts[key])
		}
		return median(v)
	}
	p1, pn := pick(samples, true, false), pick(samples, false, false)
	for _, f := range w.files {
		out[f.layer+".MBps"] = part(pn, f.layer)
		out[f.layer+".p1_MBps"] = part(p1, f.layer)
		out[f.layer+".speedup"] = ratio(out[f.layer+".MBps"], out[f.layer+".p1_MBps"])
	}
	// bzip2 sizes itself by decoding every stream at Open, then decodes
	// them again to serve them.
	out["bzip2x.open_share"] = part(pn, "bzip2x.open_share")
	out["archive.open_ms"] = median(spanMs(tr.named("archive", "Open")))
	return out, nil
}
