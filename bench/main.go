// Command bench is the repository's benchmark: six named workloads
// over the public API, end-to-end metrics that repeat, and a traced
// layer ladder. BENCHMARK.json at the repository root tells the driver
// how to run it; README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload gzip-seq-cold --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out a.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// buildDir, relative to the checkout's root where run.sh starts the
// program, holds everything a run writes: generated inputs (removed
// afterwards), reports and span files.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or \"all\"")
		seed    = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 8, "length of the timed section of a run")
		trace   = flag.Int("trace", 0, "1: record spans and report the per-layer metrics; 0: report the end-to-end metrics")
		out     = flag.String("out", "", "report file the run is appended to (default: one file per run under "+buildDir+"/out)")
		cmp     = flag.Bool("compare", false, "compare two report files: --compare a.json b.json")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two report files"))
		}
		a, err := loadReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(compare(os.Stdout, a, b))
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	outDir := filepath.Join(buildDir, "out")
	scratch, err := os.MkdirTemp(mkdir(filepath.Join(buildDir, "tmp")), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(scratch)
	mkdir(outDir)

	h := newHeader()
	for _, n := range names {
		e := &env{seed: *seed, seconds: *seconds, trace: *trace != 0, nproc: runtime.GOMAXPROCS(0), sz: defaultSizes, scratch: scratch,
			warmup: defaultWarmup, calib: newCalibrator(runtime.GOMAXPROCS(0))}
		res, err := runWorkload(e, n)
		if err != nil {
			os.RemoveAll(scratch)
			fatal(err)
		}
		stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", n, *seed, btoi(e.trace)))
		file := *out
		if file == "" {
			file = stem + ".json"
			os.Remove(file)
		}
		if err := appendRun(file, h, res); err != nil {
			fatal(err)
		}
		if e.trace {
			if err := writeSpans(stem+".spans.json", res.spans); err != nil {
				fatal(err)
			}
		}
		printRun(os.Stdout, h, res)
		fmt.Println(contractLine(res))
	}
}

func mkdir(path string) string {
	if err := os.MkdirAll(path, 0o755); err != nil {
		fatal(err)
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
