package main

import "testing"

func TestJudge(t *testing.T) {
	up := metricDef{Name: "user_MBps", Better: higher, Bound: 0.10}
	down := metricDef{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	s := func(median, spread float64) side { return side{median: median, spread: spread, runs: 10} }
	for _, c := range []struct {
		name    string
		a, b    side
		d       metricDef
		worse   float64
		verdict string
	}{
		{"higher-better fell inside the bound", s(100, 0.02), s(95, 0.02), up, 0.05, verdictOK},
		{"higher-better fell past the bound", s(100, 0.02), s(85, 0.02), up, 0.15, verdictBreach},
		{"higher-better rose", s(100, 0.02), s(130, 0.02), up, -0.30, verdictOK},
		{"lower-better rose past the bound", s(10, 0.02), s(12, 0.02), down, 0.20, verdictBreach},
		{"lower-better fell", s(10, 0.02), s(5, 0.02), down, -0.50, verdictOK},
		{"spread wider than the bound hides a change", s(100, 0.02), s(80, 0.12), up, 0.20, verdictUnresolved},
		{"spread wider than the bound is never unchanged", s(100, 0.11), s(100, 0.02), up, 0, verdictUnresolved},
		{"no runs on one side", s(100, 0.02), side{}, up, 0, verdictMissing},
	} {
		worse, verdict := judge(c.a, c.b, c.d)
		if !near(worse, c.worse) || verdict != c.verdict {
			t.Errorf("%s: judge = %+.3f %s, want %+.3f %s", c.name, worse, verdict, c.worse, c.verdict)
		}
	}
}

func TestSideOfUsesRunsThenPasses(t *testing.T) {
	run := func(v, q1, q3 float64) *runResult {
		return &runResult{Workload: "w", Metrics: map[string]measurement{"m": {Value: v, Q1: q1, Q3: q3}}}
	}
	one := sideOf(&report{Runs: []*runResult{run(100, 95, 105)}}, "w", "m")
	if one.runs != 1 || one.median != 100 || !near(one.spread, 0.10) {
		t.Errorf("single run: %+v, want the run's own quartiles", one)
	}
	many := &report{}
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		many.Runs = append(many.Runs, run(v, v, v))
	}
	many.Runs = append(many.Runs, &runResult{Workload: "w", Trace: true, Metrics: map[string]measurement{"m": {Value: 1000}}})
	got := sideOf(many, "w", "m")
	if got.runs != 10 || got.median != 5.5 || !near(got.spread, 1) {
		t.Errorf("ten runs: %+v, want median 5.5 and spread 1 (traced runs left out)", got)
	}
}
