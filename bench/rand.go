package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	rapidgzip "repro"
)

// opResult is what one caller of a batch measured.
type opResult struct {
	lat    []time.Duration
	failed int
}

// batch runs ops operations split over callers goroutines, each a closed
// loop with its own seeded offset stream, and returns the wall time and
// the merged results. do performs and checks one operation.
func batch(e *env, callers, ops, seq int, single bool, gen rangeGen, do func(caller int, off int64, hot bool) (time.Duration, error)) (time.Duration, opResult) {
	results := make([]opResult, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRand(e.seed, uint64(seq)<<8|uint64(c)<<1|uint64(btoi(single)))
			res := &results[c]
			for i := 0; i < ops/callers; i++ {
				off, hot := gen.next(r)
				lat, err := do(c, off, hot)
				res.lat = append(res.lat, lat)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
					res.failed++
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var all opResult
	for _, r := range results {
		all.lat = append(all.lat, r.lat...)
		all.failed += r.failed
	}
	return wall, all
}

// gzipRand is gzip-rand-indexed: one long-lived indexed Archive per
// side, nproc callers issuing ReadAts at seeded uniform offsets. Each
// pass starts with a cold seek (fresh Open through the index, one
// ReadAt), which is the workload's first_byte_ms.
type gzipRand struct {
	in   gzipInput
	gen  rangeGen
	arch [2]rapidgzip.Archive // [0] P=n, [1] P=1
}

func (w *gzipRand) open(p int) (rapidgzip.Archive, error) {
	return rapidgzip.Open(w.in.gzPath, rapidgzip.WithIndexFile(w.in.idxPath), rapidgzip.WithParallelism(p))
}

func (w *gzipRand) setup(e *env, dir string) error {
	if err := w.in.build(e, dir, e.sz.randChunk); err != nil {
		return err
	}
	w.gen = rangeGen{size: int64(len(w.in.plain.data)), opBytes: int64(e.sz.readAtBytes)}
	if err := w.gen.validate(); err != nil {
		return err
	}
	for i, single := range []bool{false, true} {
		a, err := w.open(e.parallelism(single))
		if err != nil {
			return err
		}
		w.arch[i] = a
	}
	return nil
}

func (w *gzipRand) describe() ([]inputFile, float64, error) { return w.in.describe() }

func (w *gzipRand) teardown() {
	for i, a := range w.arch {
		if a != nil {
			a.Close()
			w.arch[i] = nil
		}
	}
}

// readAt performs one checked ReadAt and returns its latency.
func (w *gzipRand) readAt(tr *tracer, parent *spanRef, a rapidgzip.Archive, buf []byte, off int64) (time.Duration, error) {
	sp := tr.start(parent, "archive", "ReadAt")
	t0 := time.Now()
	n, err := a.ReadAt(buf, off)
	lat := time.Since(t0)
	sp.end("bytes", n)
	if err != nil {
		return lat, err
	}
	if !bytes.Equal(buf[:n], w.in.plain.data[off:off+int64(len(buf))]) {
		return lat, fmt.Errorf("ReadAt(%d bytes at %d): wrong bytes", len(buf), off)
	}
	return lat, nil
}

func (w *gzipRand) pass(e *env, single bool, seq int, tr *tracer) sample {
	p := e.parallelism(single)
	s := sample{Single: single}
	root := tr.start(nil, "bench", "pass")
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
		s.Failed++
	}

	// Cold seek: index import plus one span decode.
	off, _ := w.gen.next(newRand(e.seed, uint64(seq)<<8|0xff))
	buf := make([]byte, w.gen.opBytes)
	t0 := time.Now()
	sp := tr.start(root, "archive", "Open")
	cold, err := w.open(p)
	sp.end()
	if err != nil {
		fail(err)
	} else {
		if _, err := w.readAt(tr, root, cold, buf, off); err != nil {
			fail(err)
		}
		s.FirstByte = time.Since(t0)
		if err := bypassed(statCounts(cold.Stats(), 0)); err != nil {
			fail(err)
		}
		cold.Close()
	}

	a := w.arch[btoi(single)]
	before := statCounts(a.Stats(), 0)
	bufs := make([][]byte, p)
	for i := range bufs {
		bufs[i] = make([]byte, w.gen.opBytes)
	}
	wall, res := batch(e, p, e.sz.batchOps, seq, single, w.gen, func(c int, off int64, _ bool) (time.Duration, error) {
		return w.readAt(tr, root, a, bufs[c], off)
	})
	s.Counts = subCounts(statCounts(a.Stats(), w.in.gzBytes), before)
	if err := bypassed(s.Counts); err != nil {
		fail(err)
	}
	root.end("p1", btoi(single))

	s.Wall, s.Ops = wall, res.lat
	s.MBps = mbps(int64(len(res.lat))*w.gen.opBytes, wall)
	s.Attempted = len(res.lat) + 1
	s.Failed += res.failed
	return s
}

func (w *gzipRand) layers(e *env, tr *tracer, samples []sample) (map[string]float64, error) {
	out := map[string]float64{}
	out["archive.open_ms"] = median(spanMs(tr.named("archive", "Open")))

	idx, err := os.ReadFile(w.in.idxPath)
	if err != nil {
		return nil, err
	}
	out["gzindex.bytes_per_MiB"] = float64(len(idx)) / (float64(len(w.in.plain.data)) / (1 << 20))

	// A repeated ReadAt of a cached range: what the engine costs when
	// there is nothing to decode.
	a := w.arch[1]
	buf := make([]byte, w.gen.opBytes)
	off := w.gen.size / 2
	if _, err := a.ReadAt(buf, off); err != nil { // may decode; it fills the cache
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		sp := tr.start(nil, "spanengine", "ReadAt cached")
		_, err := a.ReadAt(buf, off)
		sp.end()
		if err != nil || !bytes.Equal(buf, w.in.plain.data[off:off+w.gen.opBytes]) {
			return nil, fmt.Errorf("repeated ReadAt: wrong bytes (err %v)", err)
		}
	}
	out["spanengine.readat_hit_us"] = median(spanMs(tr.named("spanengine", "ReadAt cached"))) * 1000
	return out, nil
}
