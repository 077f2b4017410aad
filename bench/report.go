package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// header records where and on what a report's runs were measured.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func newHeader() header {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, time.Now().UTC().Format(time.RFC3339)}
}

// report is the JSON the benchmark keeps: every run with every pass, so
// medians and quartiles can be recomputed. --compare reads two of them.
type report struct {
	Header header       `json:"header"`
	Claim  *string      `json:"claim"` // the benchmark itself claims no gain
	Runs   []*runResult `json:"runs"`
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendRun adds res to the report at path, creating it if need be, so
// a loop over seeds and workloads accumulates one file.
func appendRun(path string, h header, res *runResult) error {
	r, err := loadReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &report{Header: h}, nil
	}
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, res)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reported lists the metrics a run prints, in contract order: the
// gated end-to-end ones plus the tail for an untraced run, the
// per-layer ones for a traced run.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	tail, _ := findMetric(perLayer, "op_p99_ms")
	rate, _ := findMetric(perLayer, "ops_per_s")
	return append(append([]metricDef(nil), endToEnd...), tail, rate)
}

func printRun(w io.Writer, h header, res *runResult) {
	fmt.Fprintf(w, "\n== %s  seed=%d trace=%d seconds=%g\n", res.Workload, res.Seed, btoi(res.Trace), res.Seconds)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s commit=%s host_factor=%.4f (times and rates below are scaled by it; raw passes are in the report)\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, res.Host)
	for _, in := range res.Inputs {
		fmt.Fprintf(w, "input: %-16s %10d B  sha256=%s\n", in.Name, in.Bytes, in.SHA256)
	}
	fmt.Fprintf(w, "%-32s %14s %-6s %14s %14s %6s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range reported(res.Trace) {
		m := res.Metrics[d.Name]
		name := d.Name
		if d.Name == "op_p99_ms" && res.TailPct != 0 && res.TailPct != 99 {
			name = fmt.Sprintf("op_p99_ms (at p%g)", res.TailPct)
		}
		if m.N > 1 {
			fmt.Fprintf(w, "%-32s %14.6g %-6s %14.6g %14.6g %6d\n", name, m.Value, d.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "%-32s %14.6g %-6s %14s %14s %6d\n", name, m.Value, d.Unit, "-", "-", m.N)
		}
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d failed_frac=%g correct=%v\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	if res.Trace {
		printLadder(w, res)
		printSelfTimes(w, res)
	}
}

// printLadder prints the gzip layer ladder: each rung is the same
// stream decoded one layer further out, at P=1, with its cost over the
// rung below.
func printLadder(w io.Writer, res *runResult) {
	if res.Metrics["deflate.serial_MBps"].Value == 0 {
		return
	}
	rungs := []struct {
		name string
		rate float64
	}{
		{"deflate.serial_MBps (DecompressGzip, one goroutine)", res.Metrics["deflate.serial_MBps"].Value},
		{"core.mem_p1_MBps (core.NewReader over memory)", res.Metrics["core.mem_p1_MBps"].Value},
		{"user_p1_MBps (file-backed Open+WriteTo)", normalise(median(rates(pick(res.Passes, true, false))), "MB/s", res.Host)},
		{"server.stream_p1_MBps (whole-body GET over loopback)", res.Metrics["server.stream_p1_MBps"].Value},
	}
	fmt.Fprintf(w, "layer ladder at P=1 (overhead = time per byte over the rung below, base = the rung below):\n")
	for i, r := range rungs {
		if i == 0 {
			fmt.Fprintf(w, "  %-56s %10.1f MB/s\n", r.name, r.rate)
			continue
		}
		fmt.Fprintf(w, "  %-56s %10.1f MB/s  x%.3f\n", r.name, r.rate, ratio(rungs[i-1].rate, r.rate))
	}
}

// printSelfTimes prints where the traced time went: per span name, the
// time not covered by child spans.
func printSelfTimes(w io.Writer, res *runResult) {
	self := layerSelfTimes(res.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time by span (duration minus child spans), %d spans:\n", len(res.spans))
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %12.3f ms\n", name, ms(self[name]))
	}
}

// contractLine is the last line of standard output: the object the
// driver reads.
func contractLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // only NaN or Inf can do this, and no metric divides by zero
	}
	return string(b)
}
