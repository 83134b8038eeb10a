package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pairsOf(a, b []float64) [][2]float64 {
	var p [][2]float64
	for i := range a {
		p = append(p, [2]float64{a[i], b[i]})
	}
	return p
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{"unchanged", steady, steady, 0.1, false, "same"},
		{"faster wins every pair", steady, scale(steady, 0.9), 0.1, false, "better"},
		{"slower past the bound", steady, scale(steady, 1.2), 0.1, false, "worse"},
		{"slower within the bound", steady, scale(steady, 1.05), 0.1, false, "same"},
		{"throughput down past the bound", steady, scale(steady, 0.8), 0.1, true, "worse"},
		{"spread wider than the bound", noisy, scale(noisy, 1.02), 0.1, false, "unresolved"},
		{"too few pairs to claim a gain", steady[:5], scale(steady[:5], 0.97), 0.1, false, "same"},
	} {
		got := verdict(tc.a, tc.b, pairsOf(tc.a, tc.b), tc.bound, tc.higher)
		if got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	for _, d := range []string{a, b} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for seed := 1; seed <= 10; seed++ {
		for d, lat := range map[string]float64{a: 100, b: 80} {
			out := fmt.Sprintf("noise\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":"+
				"{\"latency_p50_ms\":{\"value\":%g,\"unit\":\"ms\"}}}\n", lat+float64(seed)/10)
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("sweep-ext.%d.json", seed)), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := compareDirs(&buf, "../BENCHMARK.json", a, b); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "latency_p50_ms") {
			line = l
		}
	}
	if !strings.HasPrefix(line, "sweep-ext") || !strings.HasSuffix(line, "better") {
		t.Errorf("comparison line = %q, want sweep-ext ... better\n%s", line, buf.String())
	}
}
