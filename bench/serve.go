package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	rapidgzip "repro"
	"repro/internal/server"
)

// serveSide is one rgzserve instance over loopback with its keep-alive
// client.
type serveSide struct {
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	url     string       // of the archive
	refused atomic.Int64 // GETs answered 503 or 416
}

// startSide serves root at parallelism p for p clients.
func startSide(root, name string, p int, poolBudget int64) (*serveSide, error) {
	srv, err := server.New(server.Config{
		Root: root, PoolBudget: poolBudget, WarmupWorkers: -1,
		Options: []rapidgzip.Option{rapidgzip.WithParallelism(p)},
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	// One idle connection per client, or the transport closes the
	// surplus after every request and the clients are not keep-alive.
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = p
	return &serveSide{srv: srv, ts: ts, client: client, url: ts.URL + "/archives/" + name}, nil
}

func (s *serveSide) close() {
	s.ts.Close()
	s.srv.Close()
}

// get performs one Range GET into buf and returns the time to the first
// body byte and to the last. A status other than 206 is an error; a 503
// or 416 is also counted as refused.
func (s *serveSide) get(buf []byte, off int64) (first, total time.Duration, err error) {
	req, err := http.NewRequest(http.MethodGet, s.url, nil)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(buf))-1))
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		io.Copy(io.Discard, resp.Body) // keep the connection reusable
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusRequestedRangeNotSatisfiable {
			s.refused.Add(1)
		}
		return 0, time.Since(t0), fmt.Errorf("GET bytes=%d+%d: status %d", off, len(buf), resp.StatusCode)
	}
	if _, err = io.ReadFull(resp.Body, buf[:1]); err == nil {
		first = time.Since(t0)
		_, err = io.ReadFull(resp.Body, buf[1:])
	}
	return first, time.Since(t0), err
}

// archiveCounts asks the server for the Stats() of the archive it holds.
func (s *serveSide) archiveCounts(name string, compressedBytes int64) (map[string]float64, error) {
	var body struct {
		Stats rapidgzip.Stats `json:"stats"`
	}
	resp, err := s.client.Get(s.ts.URL + "/stats/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats/%s: status %d", name, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return statCounts(body.Stats, compressedBytes), err
}

// serveRange is the HTTP workload: a long-lived server per side,
// keep-alive clients in a closed loop, Range GETs drawn 80% from a hot
// region that fits the shared pool and 20% uniformly. Each pass starts
// with a cold GET against a fresh server (handle open, index import,
// span decode), which is the workload's first_byte_ms.
type serveRange struct {
	in   gzipInput
	gen  rangeGen
	side [2]*serveSide // [0] P=n, [1] P=1
}

func (w *serveRange) name() string { return filepath.Base(w.in.gzPath) }

func (w *serveRange) start(e *env, single bool) (*serveSide, error) {
	return startSide(filepath.Dir(w.in.gzPath), w.name(), e.parallelism(single), e.sz.poolBudget)
}

func (w *serveRange) setup(e *env, dir string) error {
	if err := w.in.build(e, dir, e.sz.randChunk); err != nil {
		return err
	}
	w.gen = rangeGen{size: int64(len(w.in.plain.data)), opBytes: int64(e.sz.rangeBytes), hotBytes: e.sz.hotBytes, hotFrac: 0.8}
	if err := w.gen.validate(); err != nil {
		return err
	}
	for i, single := range []bool{false, true} {
		s, err := w.start(e, single)
		if err != nil {
			return err
		}
		w.side[i] = s
	}
	return nil
}

func (w *serveRange) describe() ([]inputFile, float64, error) { return w.in.describe() }

func (w *serveRange) teardown() {
	for i, s := range w.side {
		if s != nil {
			s.close()
			w.side[i] = nil
		}
	}
}

// checkedGet is one GET whose body is compared with the plaintext.
func (w *serveRange) checkedGet(tr *tracer, parent *spanRef, s *serveSide, buf []byte, off int64, hot, single bool) (first, total time.Duration, err error) {
	sp := tr.start(parent, "server", "GET")
	first, total, err = s.get(buf, off)
	sp.end("bytes", len(buf), "hot", btoi(hot), "p1", btoi(single))
	if err == nil && !bytes.Equal(buf, w.in.plain.data[off:off+int64(len(buf))]) {
		err = fmt.Errorf("GET bytes=%d+%d: wrong body", off, len(buf))
	}
	return first, total, err
}

func (w *serveRange) pass(e *env, single bool, seq int, tr *tracer) sample {
	p := e.parallelism(single)
	s := sample{Single: single}
	root := tr.start(nil, "bench", "pass")
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
		s.Failed++
	}
	side := w.side[btoi(single)]
	refused := -side.refused.Load()

	// Cold GET against a server that has opened nothing yet.
	off, _ := rangeGen{size: w.gen.size, opBytes: w.gen.opBytes}.next(newRand(e.seed, uint64(seq)<<8|0xff))
	if cold, err := w.start(e, single); err != nil {
		fail(err)
	} else {
		first, _, err := w.checkedGet(tr, root, cold, make([]byte, w.gen.opBytes), off, false, single)
		if err != nil {
			fail(err)
		}
		s.FirstByte = first
		refused += cold.refused.Load()
		cold.close()
	}

	before, err := side.archiveCounts(w.name(), 0)
	if err != nil {
		fail(err)
	}
	bufs := make([][]byte, p)
	for i := range bufs {
		bufs[i] = make([]byte, w.gen.opBytes)
	}
	wall, res := batch(e, p, e.sz.batchOps, seq, single, w.gen, func(c int, off int64, hot bool) (time.Duration, error) {
		_, total, err := w.checkedGet(tr, root, side, bufs[c], off, hot, single)
		return total, err
	})
	after, err := side.archiveCounts(w.name(), w.in.gzBytes)
	if err != nil {
		fail(err)
	}
	root.end("p1", btoi(single))

	s.Wall, s.Ops = wall, res.lat
	s.MBps = mbps(int64(len(res.lat))*w.gen.opBytes, wall)
	s.Attempted = len(res.lat) + 1
	s.Failed += res.failed
	s.Counts = subCounts(after, before)
	s.Counts["server.refused"] = float64(refused + side.refused.Load())
	return s
}

func (w *serveRange) layers(e *env, tr *tracer, samples []sample) (map[string]float64, error) {
	out := map[string]float64{}
	var hot, cold []span
	for _, s := range tr.named("server", "GET") {
		switch {
		case s.Counts["p1"] == 1 && e.nproc > 1:
		case s.Counts["hot"] == 1:
			hot = append(hot, s)
		default:
			cold = append(cold, s)
		}
	}
	out["server.hot_p50_ms"] = median(spanMs(hot))
	out["server.cold_p50_ms"] = median(spanMs(cold))

	side := w.side[0]
	ps := side.srv.Pool().Stats()
	out["server.pool_hit_ratio"] = ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses))
	out["server.pool_evictions"] = float64(ps.Evictions)
	out["server.handle_hits"] = float64(side.srv.Metrics().HandleHits)
	for _, s := range samples {
		out["server.refused"] += s.Counts["server.refused"]
	}

	// What the server adds to a cache hit: the same seeded hot ranges,
	// once as GETs from one client and once as direct ReadAts on an
	// archive with a pool of the same budget, both after one untimed
	// round that fills the caches.
	direct, err := rapidgzip.Open(w.in.gzPath, rapidgzip.WithIndexFile(w.in.idxPath), rapidgzip.WithParallelism(1),
		rapidgzip.WithSharedPool(rapidgzip.NewCachePool(e.sz.poolBudget)))
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	hotOnly := rangeGen{size: w.gen.hotBytes, opBytes: w.gen.opBytes}
	buf := make([]byte, w.gen.opBytes)
	var viaGet, viaReadAt []float64
	for round := 0; round < 2; round++ {
		r := newRand(e.seed, 0xfe)
		for i := 0; i < e.sz.batchOps; i++ {
			off, _ := hotOnly.next(r)
			_, total, err := w.checkedGet(nil, nil, w.side[1], buf, off, true, true)
			if err != nil {
				return nil, err
			}
			sp := tr.start(nil, "archive", "ReadAt hot")
			_, err = direct.ReadAt(buf, off)
			sp.end("bytes", len(buf))
			if err != nil || !bytes.Equal(buf, w.in.plain.data[off:off+w.gen.opBytes]) {
				return nil, fmt.Errorf("direct ReadAt at %d: wrong bytes (err %v)", off, err)
			}
			if round == 1 {
				viaGet = append(viaGet, ms(total))
			}
		}
	}
	spans := tr.named("archive", "ReadAt hot")
	viaReadAt = spanMs(spans[len(spans)/2:])
	out["server.overhead_ratio"] = ratio(median(viaGet), median(viaReadAt))
	return out, nil
}
