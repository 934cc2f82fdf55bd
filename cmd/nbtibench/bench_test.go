package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestContractMatchesProgram holds BENCHMARK.json and the metric tables
// the program emits from equal: same names, units and directions.
func TestContractMatchesProgram(t *testing.T) {
	var c contract
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name     string
		contract []contractMetric
		program  []metricDef
	}{{"end_to_end", c.EndToEnd, endToEnd}, {"per_layer", c.PerLayer, perLayer}} {
		want := make(map[string]metricDef)
		for _, d := range g.program {
			want[d.name] = d
		}
		if len(g.contract) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", g.name, len(g.contract), len(want))
		}
		for _, m := range g.contract {
			d, ok := want[m.Name]
			better := map[bool]string{true: "higher", false: "lower"}[d.higher]
			if !ok || d.unit != m.Unit || better != m.Better {
				t.Errorf("%s: BENCHMARK.json has %s (%s, %s), the program %+v", g.name, m.Name, m.Unit, m.Better, d)
			}
		}
	}
}

// TestSmoke runs every workload briefly at a tiny scale, then one traced
// replay, through the same code the benchmark runs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole system")
	}
	tmp := t.TempDir()
	for _, w := range workloadNames {
		rep, err := runWorkload(config{workload: w, seed: 1, seconds: 0.3, trace: "0", quick: true, tmp: filepath.Join(tmp, w)})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkReport(t, w, rep, endToEnd)
	}
	rep, err := runWorkload(config{workload: "grid", seed: 1, seconds: 0.3, trace: "1", quick: true, tmp: filepath.Join(tmp, "traced")})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "traced grid", rep, perLayer)
	for _, d := range perLayer {
		layer, _, found := strings.Cut(d.name, ".")
		if !found {
			continue // other_pct, trace_overhead_pct: not one layer's
		}
		n := 0
		for _, s := range rep.spans {
			if strings.HasPrefix(s.Name, layer+".") {
				n++
			}
		}
		if n == 0 {
			t.Errorf("layer %s recorded no span", layer)
		}
	}
}

func checkReport(t *testing.T, what string, rep *runReport, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct %v, failed %d of %d: %v", what, rep.Correct, rep.Failed, rep.Attempted, rep.err)
	}
	if len(rep.digest) != 32 {
		t.Errorf("%s: results_digest %q", what, rep.digest)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %+v", what, d.name, v)
		}
	}
}
