package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rapidgzip "repro"
)

// env is what one run of one workload is given.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	nproc   int // GOMAXPROCS: the "n" of P=n and the number of load generators
	sz      sizes
	scratch string // inputs are generated below this directory and removed afterwards
	warmup  time.Duration
	calib   *calibrator
}

// setupDone reports whether a run that has set up done times in elapsed
// may stop: after three set-ups, so setup_s is a median, and up to nine
// while they are so cheap that three take less than a second (the
// cheapest, create-gzip's, is 0.1 s and half page faults). A traced run
// reports no setup_s and sets up once.
func setupDone(e *env, done int, elapsed time.Duration) bool {
	if e.trace {
		return done >= 1
	}
	return done >= 9 || (done >= 3 && elapsed >= time.Second)
}

// warmup is how long a run passes untimed first. One pass is not
// enough: a fresh process runs its first two or three whole-file passes
// at about 60% of the rate it settles at, while the heap grows to the
// working set.
const defaultWarmup = time.Second

// sample is one pass of a workload.
type sample struct {
	Single    bool               `json:"p1"` // P=1 and one load generator; otherwise P=n and nproc of them
	Traced    bool               `json:"traced"`
	Wall      time.Duration      `json:"wall_ns"`
	MBps      float64            `json:"user_MBps"`
	FirstByte time.Duration      `json:"first_byte_ns"`
	Ops       []time.Duration    `json:"op_ns"` // latency of each operation; a whole-file pass is one operation
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Counts    map[string]float64 `json:"counts,omitempty"` // Stats() of the pass, by per-layer metric name
	Parts     map[string]float64 `json:"parts,omitempty"`  // multiformat-seq: MB/s and open share per format
}

// A workload generates its inputs from the seed, runs passes against
// them, and in a traced run probes the layers it exercises.
type workload interface {
	// setup builds every input under dir and starts whatever serves
	// them. It is timed as setup_s and may be called again after
	// teardown.
	setup(e *env, dir string) error
	// describe lists the generated inputs with their hashes, and the
	// bytes stored per byte of user data. It runs after the passes.
	describe() ([]inputFile, float64, error)
	// pass runs pass number seq at P=1 (single) or P=n; tr is nil for an
	// untraced pass. Operations that fail are counted in the sample.
	pass(e *env, single bool, seq int, tr *tracer) sample
	// layers runs the workload's layer probes under tr and returns the
	// per-layer metrics it owns.
	layers(e *env, tr *tracer, samples []sample) (map[string]float64, error)
	teardown()
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "gzip-seq-cold":
		return &gzipSeq{}, true
	case "gzip-seq-indexed":
		return &gzipSeq{indexed: true}, true
	case "gzip-rand-indexed":
		return &gzipRand{}, true
	case "serve-range":
		return &serveRange{}, true
	case "multiformat-seq":
		return &multiformat{}, true
	case "create-gzip":
		return &createGzip{}, true
	}
	return nil, false
}

func (e *env) parallelism(single bool) int {
	if single {
		return 1
	}
	return e.nproc
}

// measurement is one metric of one run: the value reported (a median
// unless the metric is a count or a ratio of medians) and the samples
// behind it, so quartiles can be recomputed.
type measurement struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// measure reports the median of samples after scaling them to the
// reference host's nominal speed (see normalise).
func measure(unit string, samples []float64, host float64) measurement {
	scaled := make([]float64, len(samples))
	for i, v := range samples {
		scaled[i] = normalise(v, unit, host)
	}
	q1, q2, q3 := quartiles(scaled)
	return measurement{Value: q2, Unit: unit, N: len(scaled), Q1: q1, Q3: q3, Samples: scaled}
}

// normalise scales a measured value to what the reference host would
// have measured at its nominal speed: host is how much slower than that
// this run's host was, by the calibrator's account. Rates are
// multiplied by it, times divided; counts, sizes and ratios of two
// times are left alone. The raw passes and the factor are kept in the
// report, so every raw value can be recovered.
func normalise(v float64, unit string, host float64) float64 {
	switch unit {
	case "MB/s", "1/s":
		return v * host
	case "s", "ms", "us":
		return v / host
	}
	return v
}

// runResult is everything one run of one workload found.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Inputs    []inputFile            `json:"inputs"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	Passes    []sample               `json:"passes"`
	TailPct   float64                `json:"tail_percentile,omitempty"` // what op_p99_ms was taken at
	Host      float64                `json:"host_factor"`
	Calib     []float64              `json:"calibration_ms"`
	spans     []span
}

func runWorkload(e *env, name string) (*runResult, error) {
	w, ok := newWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	res := &runResult{Workload: name, Seed: e.seed, Trace: e.trace, Seconds: e.seconds, Metrics: map[string]measurement{}}

	// Set up several times so setup_s is a median; the last set-up is
	// the one measured against.
	var setups []float64
	setupStart := time.Now()
	for i := 0; !setupDone(e, i, time.Since(setupStart)); i++ {
		if i > 0 {
			w.teardown()
		}
		dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		e.calib.sample()
		runtime.GC() // every set-up starts from a collected heap, as the first does
		t0 := time.Now()
		if err := w.setup(e, dir); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	// Untimed warm-up passes on both sides, then P=1 and P=n passes
	// alternate so host drift hits both alike. A traced run interleaves
	// traced and untraced passes the same way, which is what its tracing
	// overhead is read from; its probes run after the timed section.
	seq := 0
	pass := func(single bool, tr *tracer) sample {
		seq++ // every pass draws its own offsets
		e.calib.sample()
		s := w.pass(e, single, seq, tr)
		s.Traced = tr != nil
		return s
	}
	for start := time.Now(); seq == 0 || time.Since(start) < e.warmup; {
		pass(true, nil)
		pass(false, nil)
	}
	budget := time.Duration(e.seconds * float64(time.Second))
	for start := time.Now(); time.Since(start) < budget; {
		for _, single := range []bool{true, false} {
			res.Passes = append(res.Passes, pass(single, nil))
			if e.trace {
				res.Passes = append(res.Passes, pass(single, tr))
			}
		}
	}
	for _, s := range res.Passes {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
	}
	inputs, stored, err := w.describe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Inputs = inputs

	res.Host, res.Calib = e.calib.factor(), e.calib.samples
	if e.trace {
		layer, err := w.layers(e, tr, res.Passes)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", name, err)
		}
		res.perLayerMetrics(layer)
		res.spans = tr.spans
	} else {
		res.endToEndMetrics(setups, stored)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// pick returns the samples of one side, traced or not.
func pick(samples []sample, single, traced bool) []sample {
	var out []sample
	for _, s := range samples {
		if s.Single == single && s.Traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func rates(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.MBps
	}
	return out
}

func walls(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.Wall)
	}
	return out
}

func opLatencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		for _, d := range s.Ops {
			out = append(out, ms(d))
		}
	}
	return out
}

func (res *runResult) endToEndMetrics(setups []float64, stored float64) {
	pn, p1 := pick(res.Passes, false, false), pick(res.Passes, true, false)
	var first []float64
	for _, s := range pn {
		first = append(first, ms(s.FirstByte))
	}
	res.Metrics["setup_s"] = measure("s", setups, res.Host)
	res.Metrics["user_MBps"] = measure("MB/s", rates(pn), res.Host)
	res.Metrics["user_p1_MBps"] = measure("MB/s", rates(p1), res.Host)
	res.Metrics["first_byte_ms"] = measure("ms", first, res.Host)
	res.Metrics["op_p50_ms"] = measure("ms", opLatencies(pn), res.Host)
	res.Metrics["stored_B_per_user_B"] = measure("B/B", []float64{stored}, res.Host)
	res.tail(pn)
}

// tail reports the operation latency at the highest percentile that
// has ten samples beyond it, and the operation rate. They are printed
// with every run but live in the per-layer list: whole-file passes have
// too few operations for a tail, and a metric every workload cannot
// report cannot be gated.
func (res *runResult) tail(pn []sample) {
	lat := opLatencies(pn)
	var wall time.Duration
	for _, s := range pn {
		wall += s.Wall
	}
	res.Metrics["ops_per_s"] = measurement{Value: normalise(ratio(float64(len(lat)), wall.Seconds()), "1/s", res.Host), Unit: "1/s", N: len(lat)}
	p, ok := tailPercentile(len(lat))
	if !ok {
		res.Metrics["op_p99_ms"] = measurement{Unit: "ms", N: len(lat)}
		return
	}
	res.TailPct = p
	res.Metrics["op_p99_ms"] = measurement{Value: normalise(percentile(lat, p), "ms", res.Host), Unit: "ms", N: len(lat)}
}

// perLayerMetrics fills every per-layer metric: the ones the workload's
// probes returned, the Stats() counters of the first timed P=1 pass
// (whose access sequence is fixed by the seed, so the exact ones
// repeat), and the benchmark's own, each scaled to the reference host's
// nominal speed. Anything left is 0: the workload does not exercise that
// layer.
func (res *runResult) perLayerMetrics(layer map[string]float64) {
	pn := pick(res.Passes, false, false)
	if p1 := pick(res.Passes, true, false); len(p1) > 0 {
		for k, v := range derivedCounts(p1[0].Counts) {
			layer[k] = v
		}
	}
	layer["bench.trace_overhead_frac"] = ratio(median(walls(pick(res.Passes, false, true))), median(walls(pn))) - 1
	layer["bench.spread_frac"] = spreadFrac(rates(pn))
	layer["bench.host_factor"] = res.Host
	for _, d := range perLayer {
		res.Metrics[d.Name] = measurement{Value: normalise(layer[d.Name], d.Unit, res.Host), Unit: d.Unit, N: 1}
	}
	res.tail(pn)
}

// statCounts maps an archive's Stats() onto per-layer metric names.
// Names starting with "_" are inputs to the ratios of derivedCounts.
func statCounts(st rapidgzip.Stats, compressedBytes int64) map[string]float64 {
	return map[string]float64{
		"core.guess_tasks":             float64(st.GuessTasks),
		"core.guess_false_starts":      float64(st.GuessFalseStarts),
		"core.guess_no_block":          float64(st.GuessNoBlock),
		"core.finder_probes":           float64(st.FinderProbes),
		"core.on_demand_decodes":       float64(st.OnDemandDecodes),
		"spanengine.span_decodes":      float64(st.SpanDecodes),
		"spanengine.evictions":         float64(st.SpanCacheEvictions),
		"spanengine.prefetch_proposed": float64(st.PrefetchProposed),
		"spanengine.prefetch_issued":   float64(st.PrefetchIssued),
		"spanengine.prefetch_joined":   float64(st.PrefetchJoined),
		"filereader.source_reads":      float64(st.SourceReads),
		"_hits":                        float64(st.SpanCacheHits),
		"_misses":                      float64(st.SpanCacheMisses),
		"_source_bytes":                float64(st.SourceBytesRead),
		"_compressed_bytes":            float64(compressedBytes),
		"_sizing_passes":               float64(st.SizingPasses),
	}
}

// subCounts returns the activity between two statCounts snapshots of one
// long-lived archive.
func subCounts(after, before map[string]float64) map[string]float64 {
	for k, v := range before {
		after[k] -= v
	}
	return after
}

func addCounts(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// derivedCounts returns the public counters of c plus the ratios built
// from them. prefetch_used_ratio is an outside estimate: accesses that
// hit the cache or joined a decode in flight, over prefetches issued.
// It is exact for a sequential pass, where nothing is read twice, and an
// upper bound under random access, where a hit may be plain reuse.
func derivedCounts(c map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range c {
		if k[0] != '_' {
			out[k] = v
		}
	}
	if c == nil {
		return out
	}
	out["spanengine.cache_hit_ratio"] = ratio(c["_hits"], c["_hits"]+c["_misses"])
	out["spanengine.prefetch_used_ratio"] = min(1, ratio(c["_hits"]+c["spanengine.prefetch_joined"], c["spanengine.prefetch_issued"]))
	out["filereader.read_amplification"] = ratio(c["_source_bytes"], c["_compressed_bytes"])
	useful := c["core.guess_tasks"] - c["core.guess_false_starts"] - c["core.guess_no_block"]
	out["core.useful_guess_ratio"] = ratio(useful, c["core.guess_tasks"])
	return out
}
