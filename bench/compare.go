package main

import (
	"fmt"
	"io"
)

// side is one report's values of one metric on one workload.
type side struct {
	median, spread float64
	runs           int
}

// sideOf collects a metric over the untraced runs of a workload. With
// several runs the spread is the quartile distance of their values over
// the median, as the driver takes it over ten seeds; a single run falls
// back on the quartiles of its own passes.
func sideOf(r *report, workload, metric string) side {
	var values []float64
	var own float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		m, ok := run.Metrics[metric]
		if !ok {
			continue
		}
		values = append(values, m.Value)
		own = ratio(m.Q3-m.Q1, m.Value)
	}
	s := side{median: median(values), runs: len(values)}
	if len(values) > 1 {
		s.spread = spreadFrac(values)
	} else {
		s.spread = max(own, -own)
	}
	return s
}

// verdicts of one row.
const (
	verdictOK         = "ok"
	verdictBreach     = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares b against a for a metric with the given direction and
// bound: worse is how far b's median moved in the bad direction as a
// share of a's. A spread wider than the bound on either side leaves the
// row unresolved rather than unchanged.
func judge(a, b side, d metricDef) (worse float64, verdict string) {
	if a.runs == 0 || b.runs == 0 || a.median == 0 {
		return 0, verdictMissing
	}
	worse = (b.median - a.median) / a.median
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case max(a.spread, b.spread) > d.Bound:
		return worse, verdictUnresolved
	case worse > d.Bound:
		return worse, verdictBreach
	}
	return worse, verdictOK
}

// compare prints one row per (workload, end-to-end metric) and returns
// the process exit code: 1 on a breach, 2 when a row is unresolved or
// missing, else 0.
func compare(w io.Writer, a, b *report) int {
	fmt.Fprintf(w, "a: commit=%s %s nproc=%d    b: commit=%s %s nproc=%d\n",
		a.Header.Commit, a.Header.GoVersion, a.Header.NProc, b.Header.Commit, b.Header.GoVersion, b.Header.NProc)
	fmt.Fprintf(w, "%-18s %-20s %12s %8s %5s %12s %8s %5s %8s %6s  %s\n",
		"workload", "metric", "a median", "a spread", "runs", "b median", "b spread", "runs", "worse", "bound", "verdict")
	code := 0
	for _, wl := range workloadDefs {
		for _, d := range endToEnd {
			sa, sb := sideOf(a, wl.Name, d.Name), sideOf(b, wl.Name, d.Name)
			worse, verdict := judge(sa, sb, d)
			fmt.Fprintf(w, "%-18s %-20s %12.6g %7.2f%% %5d %12.6g %7.2f%% %5d %+7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, sa.median, 100*sa.spread, sa.runs, sb.median, 100*sb.spread, sb.runs, 100*worse, 100*d.Bound, verdict)
			switch verdict {
			case verdictBreach:
				code = 1
			case verdictUnresolved, verdictMissing:
				if code == 0 {
					code = 2
				}
			}
		}
	}
	return code
}
