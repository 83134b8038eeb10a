package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailSamplesRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
		ok   bool
	}{
		{40, 0.75, 10, true},
		{39, 0.75, 9, false},
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{100, 0.90, 10, true},
	} {
		got := tailSamples(tc.n, tc.q)
		if got != tc.want || (got >= 10) != tc.ok {
			t.Errorf("tailSamples(%d, %g) = %d, want %d (enough: %v)", tc.n, tc.q, got, tc.want, tc.ok)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("bad metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "a b", "p99/ms", "x,y"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric-name pattern accepts %q", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []benchMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			m := listed[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: printed %s (%s, %s), listed %s (%s, %s)", kind, i, d.name, d.unit, better, m.Name, m.Unit, m.Better)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: listed %q, benchmark has %q", i, w.Name, workloads[i].name)
		}
	}
	// The file's keys are fixed.
	var raw map[string]json.RawMessage
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json has no %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
}
