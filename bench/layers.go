package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	rapidgzip "repro"
	"repro/internal/bitio"
	"repro/internal/blockfinder"
	"repro/internal/core"
	"repro/internal/deflate"
	"repro/internal/filereader"
	"repro/internal/server"
)

// probeRepeats is how often a layer probe runs; its metric is the median.
const probeRepeats = 3

func spanRates(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = mbps(int64(s.Counts["bytes"]), s.dur())
	}
	return out
}

func spanMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// watchHeap samples the live heap every 2 ms until stop is called and
// returns the largest value seen, in bytes.
func watchHeap() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done, result := make(chan struct{}), make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 { close(done); return <-result }
}

// layers probes each layer under the sequential gzip path from outside,
// bottom up, on the workload's own file: the serial kernel, the finder,
// marker decode and resolution, the chunk pipeline over memory, the
// index, and (through the passes already run) the file-backed archive;
// a whole-body GET is the ladder's top rung.
func (w *gzipSeq) layers(e *env, tr *tracer, samples []sample) (map[string]float64, error) {
	out := map[string]float64{}
	want := w.in.plain
	gz, err := os.ReadFile(w.in.gzPath)
	if err != nil {
		return nil, err
	}

	// deflate: the single-stage kernel on one goroutine.
	var alloc []float64
	for i := 0; i < probeRepeats; i++ {
		a0 := totalAlloc()
		sp := tr.start(nil, "deflate", "DecompressGzip")
		got, err := deflate.DecompressGzip(gz)
		sp.end("bytes", len(got))
		alloc = append(alloc, ratio(float64(totalAlloc()-a0), float64(len(got))))
		if err != nil || !bytes.Equal(got, want.data) {
			return nil, fmt.Errorf("deflate.DecompressGzip: wrong output (err %v)", err)
		}
	}
	out["deflate.serial_MBps"] = median(spanRates(tr.named("deflate", "DecompressGzip")))
	out["deflate.alloc_B_per_out_B"] = median(alloc)

	if err := markerProbe(e, tr, gz, want.data, out); err != nil {
		return nil, err
	}

	// blockfinder: every candidate in 1 MiB from the middle of the file.
	lo := len(gz) / 2
	window := gz[lo:min(lo+1<<20, len(gz))]
	var cands int
	for i := 0; i < probeRepeats; i++ {
		sp := tr.start(nil, "blockfinder", "ScanAll")
		cands = len(blockfinder.ScanAll(blockfinder.NewCombinedFinder(), window, 0))
		sp.end("bytes", len(window), "candidates", cands)
	}
	out["blockfinder.scan_MBps"] = median(spanRates(tr.named("blockfinder", "ScanAll")))
	out["blockfinder.candidates_per_MiB"] = float64(cands) / (float64(len(window)) / (1 << 20))

	// gzindex: build once, then time serialisation and import alone.
	a, err := rapidgzip.Open(w.in.gzPath, rapidgzip.WithChunkSize(e.sz.seqChunk), rapidgzip.WithoutIndexDiscovery())
	if err != nil {
		return nil, err
	}
	defer a.Close()
	if err := a.BuildIndex(); err != nil {
		return nil, err
	}
	var index bytes.Buffer
	for i := 0; i < probeRepeats; i++ {
		index.Reset()
		sp := tr.start(nil, "gzindex", "ExportIndex")
		err := a.ExportIndex(&index)
		sp.end("bytes", index.Len())
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < probeRepeats; i++ {
		b, err := rapidgzip.OpenBytes(gz)
		if err != nil {
			return nil, err
		}
		sp := tr.start(nil, "gzindex", "ImportIndex")
		err = b.ImportIndex(bytes.NewReader(index.Bytes()))
		sp.end()
		b.Close()
		if err != nil {
			return nil, err
		}
	}
	out["gzindex.export_ms"] = median(spanMs(tr.named("gzindex", "ExportIndex")))
	out["gzindex.import_ms"] = median(spanMs(tr.named("gzindex", "ImportIndex")))
	out["gzindex.bytes_per_MiB"] = float64(index.Len()) / (float64(len(want.data)) / (1 << 20))

	// core: the chunk pipeline over an in-memory source, in the
	// workload's own mode (speculative, or through the index).
	var imported []byte
	if w.indexed {
		imported = index.Bytes()
	}
	for _, p := range []int{1, e.nproc} {
		for i := 0; i < probeRepeats; i++ {
			if err := coreMemPass(tr, gz, want, p, e.sz.seqChunk, imported); err != nil {
				return nil, err
			}
		}
	}
	var mem1, memN []span
	for _, s := range tr.named("core", "NewReader+WriteTo") {
		if s.Counts["p"] == 1 {
			mem1 = append(mem1, s)
		}
		if s.Counts["p"] == float64(e.nproc) {
			memN = append(memN, s)
		}
	}
	out["core.mem_p1_MBps"] = median(spanRates(mem1))
	out["core.mem_MBps"] = median(spanRates(memN))

	// The other mode's file-backed P=1 passes, for the cost of
	// speculation: cold pass time over indexed pass time.
	probeIdx := filepath.Join(filepath.Dir(w.in.gzPath), "probe.idx")
	if err := os.WriteFile(probeIdx, index.Bytes(), 0o644); err != nil {
		return nil, err
	}
	other := []rapidgzip.Option{rapidgzip.WithChunkSize(e.sz.seqChunk), rapidgzip.WithVerify(true), rapidgzip.WithIndexFile(probeIdx)}
	if w.indexed {
		other = w.options(e, false)
	}
	var otherWall []float64
	for i := 0; i < probeRepeats; i++ {
		t, err := readPass(nil, nil, w.in.gzPath, want, 1, other...)
		if err != nil {
			return nil, err
		}
		otherWall = append(otherWall, ms(t.wall))
	}
	p1, pn := pick(samples, true, false), pick(samples, false, false)
	cold, indexed := median(walls(p1)), median(otherWall)
	if w.indexed {
		cold, indexed = indexed, cold
	}
	out["core.speculation_overhead"] = ratio(cold, indexed)
	out["core.karp_flatt_serial_frac"] = karpFlatt(ratio(median(walls(p1)), median(walls(pn))), e.nproc)

	// archive: what the file-backed front door adds.
	out["archive.open_ms"] = median(spanMs(tr.named("archive", "Open")))
	out["archive.file_vs_mem_ratio"] = ratio(median(walls(p1)), median(spanMs(mem1)))
	a0, stop := totalAlloc(), watchHeap()
	_, err = readPass(nil, nil, w.in.gzPath, want, e.nproc, w.options(e, w.indexed)...)
	peak := stop()
	if err != nil {
		return nil, err
	}
	out["archive.alloc_B_per_out_B"] = ratio(float64(totalAlloc()-a0), float64(len(want.data)))
	out["archive.peak_heap_MB"] = float64(peak) / 1e6

	// server: the whole stream as one GET body at P=1, from a fresh
	// server each time so no repeat is served from the pool.
	for i := 0; i < probeRepeats; i++ {
		if err := streamProbe(e, tr, w.in.gzPath, want); err != nil {
			return nil, err
		}
	}
	out["server.stream_p1_MBps"] = median(spanRates(tr.named("server", "GET whole body")))
	return out, nil
}

// markerProbe times the first stage of two-stage decoding (a window-less
// DecodeChunk from a block the finder located) and the second (marker
// resolution against the true window), and checks both against the
// plaintext.
func markerProbe(e *env, tr *tracer, gz, plaintext []byte, out map[string]float64) error {
	// Decode the stream once with known offsets to learn where each
	// block starts in the output.
	var dec deflate.Decoder
	whole, err := dec.DecodeChunk(bitio.NewBitReaderBytes(gz), deflate.ChunkConfig{
		Stop: deflate.StopAtEOF, StartsAtGzipHeader: true, SizeHint: len(plaintext),
	})
	if err != nil {
		return err
	}
	offsets := make(map[uint64]uint64, len(whole.BlockStarts))
	for _, b := range whole.BlockStarts {
		offsets[b.Bit] = b.DecompOffset
	}

	finder := blockfinder.NewCombinedFinder()
	decode := func(start uint64) (*deflate.ChunkResult, error) {
		return dec.DecodeChunk(bitio.NewBitReaderBytes(gz), deflate.ChunkConfig{
			Start: start, Stop: start + uint64(e.sz.seqChunk)*8, TwoStage: true, SizeHint: 4 * e.sz.seqChunk,
		})
	}
	from := uint64(len(gz)/2) * 8
	for {
		cand, ok := finder.Next(gz, from)
		if !ok {
			return errors.New("marker probe: no decodable block in the second half of the file")
		}
		from = cand + 1
		off, known := offsets[cand]
		if _, err := decode(cand); err != nil || !known || off < deflate.WindowSize {
			continue // a false positive, as the finder is allowed
		}
		for i := 0; i < probeRepeats; i++ {
			sp := tr.start(nil, "deflate", "DecodeChunk two-stage")
			res, err := decode(cand)
			if err != nil {
				return err
			}
			sp.end("bytes", res.TotalOut())
			resolved := make([]byte, len(res.Marked))
			sp = tr.start(nil, "deflate", "ResolveMarkers")
			err = deflate.ResolveMarkers(resolved, res.Marked, plaintext[off-deflate.WindowSize:off])
			sp.end("bytes", len(resolved))
			got := append(resolved, res.Raw...)
			if err != nil || !bytes.Equal(got, plaintext[off:off+uint64(len(got))]) {
				return fmt.Errorf("marker probe: two-stage decode at bit %d does not match the plaintext (err %v)", cand, err)
			}
		}
		out["deflate.marker_MBps"] = median(spanRates(tr.named("deflate", "DecodeChunk two-stage")))
		out["deflate.resolve_MBps"] = median(spanRates(tr.named("deflate", "ResolveMarkers")))
		return nil
	}
}

// coreMemPass decodes gz through core.NewReader over memory, through
// the index when one is given, and checks the output.
func coreMemPass(tr *tracer, gz []byte, want plain, p, chunk int, index []byte) error {
	sp := tr.start(nil, "core", "NewReader+WriteTo")
	r, err := core.NewReader(filereader.MemoryReader(gz), core.Config{
		Parallelism: p, ChunkSize: chunk, VerifyChecksums: true, SkipMetadataScan: index != nil,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	if index != nil {
		if err := r.ImportIndex(bytes.NewReader(index)); err != nil {
			return err
		}
	}
	s := &sink{}
	_, err = r.WriteTo(s)
	sp.end("bytes", s.n, "p", p)
	if err != nil || !want.matches(s) {
		return fmt.Errorf("core.NewReader over memory at P=%d: wrong output (err %v)", p, err)
	}
	return nil
}

// streamProbe GETs the whole decompressed stream of gzPath from a fresh
// server at P=1 and checks it.
func streamProbe(e *env, tr *tracer, gzPath string, want plain) error {
	srv, err := server.New(server.Config{
		Root: filepath.Dir(gzPath), WarmupWorkers: -1,
		Options: []rapidgzip.Option{rapidgzip.WithParallelism(1), rapidgzip.WithChunkSize(e.sz.seqChunk)},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sp := tr.start(nil, "server", "GET whole body")
	resp, err := ts.Client().Get(ts.URL + "/archives/" + filepath.Base(gzPath))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	s := &sink{}
	_, err = io.Copy(s, resp.Body)
	sp.end("bytes", s.n)
	if err != nil || resp.StatusCode != http.StatusOK || !want.matches(s) {
		return fmt.Errorf("whole-body GET: status %d, wrong body (err %v)", resp.StatusCode, err)
	}
	return nil
}
