package main

import (
	"encoding/json"
	"runtime"
	"testing"
)

// testSizes shrinks every workload so a run takes a fraction of a second.
var testSizes = sizes{
	gzipCorpus:   2 << 20,
	seqChunk:     128 << 10,
	randChunk:    64 << 10,
	readAtBytes:  16 << 10,
	rangeBytes:   32 << 10,
	hotBytes:     256 << 10,
	poolBudget:   1 << 20,
	batchOps:     24,
	multiCorpus:  1 << 20,
	bzip2Corpus:  128 << 10,
	frameBytes:   128 << 10,
	createCorpus: 2 << 20,
}

func testRun(t *testing.T, name string, seed uint64, trace bool) *runResult {
	t.Helper()
	e := &env{seed: seed, seconds: 0.05, trace: trace, nproc: max(2, runtime.GOMAXPROCS(0)), sz: testSizes, scratch: t.TempDir(), calib: newCalibrator(1)}
	res, err := runWorkload(e, name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d, correct %v", name, res.Attempted, res.Failed, res.Correct)
	}
	return res
}

// Every workload completes at a small size with no failed operation,
// prints every end-to-end metric as a number that is not 0, and its
// contract line holds exactly the contract's keys.
func TestWorkloadsReportEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res := testRun(t, w.Name, 1, false)
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
				t.Fatalf("contract line lacks keys: %s", contractLine(res))
			}
			for _, d := range endToEnd {
				if m, ok := line.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive number in %s", d.Name, m, d.Unit)
				}
			}
			if len(res.Inputs) == 0 || len(res.Inputs[0].SHA256) != 64 {
				t.Errorf("inputs are not described by their hashes: %+v", res.Inputs)
			}
			if len(res.Passes) < 2 || len(res.Metrics["user_MBps"].Samples) == 0 {
				t.Errorf("the report does not keep every pass")
			}
		})
	}
}

// exact lists, per workload, the per-layer metrics that must repeat
// exactly for a seed. Two follow from the inputs alone. The two
// counters are taken on the first timed P=1 pass, whose access sequence
// the seed fixes, and repeat wherever nothing is speculative:
// prefetch_proposed does not on the cold path (the frontier's accesses
// depend on when guesses land), source_reads does not under random
// access (whether a prefetch is issued depends on what is in flight).
var exact = map[string][]string{
	"gzip-seq-cold":     {"blockfinder.candidates_per_MiB", "gzindex.bytes_per_MiB", "filereader.source_reads"},
	"gzip-seq-indexed":  {"blockfinder.candidates_per_MiB", "gzindex.bytes_per_MiB", "filereader.source_reads", "spanengine.prefetch_proposed"},
	"gzip-rand-indexed": {"gzindex.bytes_per_MiB", "spanengine.prefetch_proposed"},
	"serve-range":       {"spanengine.prefetch_proposed"},
	"multiformat-seq":   {"filereader.source_reads", "spanengine.prefetch_proposed"},
	"create-gzip":       {"filereader.source_reads", "spanengine.prefetch_proposed"},
}

// A traced run reports every per-layer metric; the same seed gives the
// same inputs and the same exact counters, another seed other inputs.
func TestTracedRunsRepeatExactly(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			a, b, c := testRun(t, w.Name, 3, true), testRun(t, w.Name, 3, true), testRun(t, w.Name, 4, true)
			for _, d := range perLayer {
				if _, ok := a.Metrics[d.Name]; !ok {
					t.Errorf("traced run lacks %s", d.Name)
				}
			}
			for i := range a.Inputs {
				if a.Inputs[i] != b.Inputs[i] {
					t.Errorf("same seed, different input: %+v and %+v", a.Inputs[i], b.Inputs[i])
				}
			}
			if a.Inputs[0].SHA256 == c.Inputs[0].SHA256 {
				t.Errorf("seeds 3 and 4 gave the same corpus")
			}
			for _, name := range exact[w.Name] {
				if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
					t.Errorf("%s = %v then %v for the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if len(a.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for _, s := range a.spans {
				if s.End < s.Start || (s.Parent != 0 && s.Parent >= s.ID) {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// stored_B_per_user_B is exact too: the output size follows from the
// input alone, also on the write side.
func TestStoredBytesRepeatExactly(t *testing.T) {
	for _, name := range []string{"gzip-seq-cold", "create-gzip"} {
		a, b := testRun(t, name, 5, false), testRun(t, name, 5, false)
		if x, y := a.Metrics["stored_B_per_user_B"].Value, b.Metrics["stored_B_per_user_B"].Value; x != y || x == 0 {
			t.Errorf("%s: stored_B_per_user_B = %v then %v", name, x, y)
		}
	}
}

// Each workload exercises the layers it says it does and bypasses the
// ones it says it bypasses.
func TestWorkloadsStressDifferentLayers(t *testing.T) {
	cold, indexed := testRun(t, "gzip-seq-cold", 1, true), testRun(t, "gzip-seq-indexed", 1, true)
	if cold.Metrics["core.finder_probes"].Value == 0 || cold.Metrics["core.guess_tasks"].Value == 0 {
		t.Errorf("gzip-seq-cold did not speculate: %+v", cold.Metrics["core.guess_tasks"])
	}
	if indexed.Metrics["core.finder_probes"].Value != 0 || indexed.Metrics["core.guess_tasks"].Value != 0 {
		t.Errorf("gzip-seq-indexed ran the finder")
	}
	if indexed.Metrics["spanengine.span_decodes"].Value == 0 {
		t.Errorf("gzip-seq-indexed decoded no span")
	}
	for _, m := range []string{"deflate.serial_MBps", "deflate.marker_MBps", "deflate.resolve_MBps", "blockfinder.scan_MBps", "core.mem_p1_MBps", "gzindex.import_ms", "server.stream_p1_MBps"} {
		if cold.Metrics[m].Value <= 0 {
			t.Errorf("gzip-seq-cold: %s = %v", m, cold.Metrics[m].Value)
		}
	}
	serve := testRun(t, "serve-range", 1, true)
	if serve.Metrics["server.handle_hits"].Value == 0 || serve.Metrics["server.hot_p50_ms"].Value <= 0 || serve.Metrics["server.refused"].Value != 0 {
		t.Errorf("serve-range: %+v %+v", serve.Metrics["server.handle_hits"], serve.Metrics["server.hot_p50_ms"])
	}
	if cold.Metrics["server.handle_hits"].Value != 0 {
		t.Errorf("a library workload reports server activity")
	}
	multi := testRun(t, "multiformat-seq", 1, true)
	for _, m := range []string{"bgzf.MBps", "zstdx.MBps", "lz4x.MBps", "bzip2x.MBps", "bzip2x.open_share"} {
		if multi.Metrics[m].Value <= 0 {
			t.Errorf("multiformat-seq: %s = %v", m, multi.Metrics[m].Value)
		}
	}
	if create := testRun(t, "create-gzip", 1, true); create.Metrics["gzipw.p1_MBps"].Value <= 0 || create.Metrics["gzipw.sidecar_ms"].Value <= 0 {
		t.Errorf("create-gzip: %+v", create.Metrics["gzipw.p1_MBps"])
	}
}
