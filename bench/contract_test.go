package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the lists compiled into the
// benchmark are what it reports. They must be the same lists.
func TestBenchmarkJSONMatchesContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	// The driver's whole budget: 4 + 22 runs per workload, set-up and
	// two builds included, in 3420 s. A run here takes its timed
	// section plus about 8 s of set-up, warm-up and checks.
	if total := (4 + 22*len(file.Workloads)) * (file.RunSeconds + 8); total > 3420-300 {
		t.Errorf("%d runs of about %d s do not leave 300 s for two builds inside 3420 s", 4+22*len(file.Workloads), file.RunSeconds+8)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		check(w.Name)
		if file.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %+v", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
		if _, ok := newWorkload(w.Name); !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	compare := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the benchmark %d", len(got), kind, len(want))
		}
		for i, d := range want {
			check(d.Name)
			if got[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], d)
			}
			if !unit.MatchString(d.Unit) || (d.Better != higher && d.Better != lower) {
				t.Errorf("%s: bad unit or direction: %+v", d.Name, d)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v (end-to-end metrics have one of at most 0.25, per-layer metrics none)", d.Name, d.Bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != lower {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits of 16 and 128", len(endToEnd), len(perLayer))
	}
}
