package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchSpec(path string) (benchSpec, error) {
	var b benchSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(buf, &b)
	return b, err
}

// readResults loads every saved run in dir. A file holds one run's standard
// output (its last line is the result) and is named <workload>.<tag>.json;
// runs with the same file name in two directories form a pair.
func readResults(dir string) (map[string]map[string]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]result{}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		base := filepath.Base(f)
		w, _, _ := strings.Cut(base, ".")
		if out[w] == nil {
			out[w] = map[string]result{}
		}
		out[w][base] = res
	}
	return out, nil
}

// verdict decides one (workload, metric) comparison of runs a (the
// baseline) and b (the change), matched into pairs by file name. bound is
// the regression bound as a share of a's median (0 for per-layer metrics).
// It returns "better", "worse", "same" or "unresolved":
//   - better: at least ten pairs, b wins at least nine in ten of them (ties
//     count for neither side), and the medians differ by more than the
//     distance between a's quartiles;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: either side's quartile spread exceeds the bound and the
//     runs do not separate (every b run better, or worse, than every a run);
//   - same: none of the above.
func verdict(a, b []float64, pairs [][2]float64, bound float64, higher bool) string {
	sign := 1.0 // positive = b is better
	if !higher {
		sign = -1
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	wins := 0
	for _, p := range pairs {
		if d := sign * (p[1] - p[0]); d > 0 {
			wins++
		}
	}
	if len(pairs) >= 10 && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(mb-ma) > q3a-q1a {
		return "better"
	}
	spread := math.Max(rel(q3a-q1a, ma), rel(q3b-q1b, mb))
	worse := rel(-sign*(mb-ma), ma)
	if bound > 0 && spread > bound {
		switch {
		case separated(a, b, sign):
			return "better"
		case separated(b, a, sign):
			return "worse"
		}
		return "unresolved"
	}
	if bound > 0 && worse > bound {
		return "worse"
	}
	return "same"
}

// separated reports whether every run of hi beats every run of lo.
func separated(lo, hi []float64, sign float64) bool {
	for _, x := range lo {
		for _, y := range hi {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return len(lo) > 0 && len(hi) > 0
}

func rel(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// compareDirs prints, for every workload and metric found in both
// directories, each side's median and quartiles, the bound, and a verdict.
func compareDirs(w io.Writer, specPath, dirA, dirB string) error {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return fmt.Errorf("reading %s: %w", specPath, err)
	}
	ra, err := readResults(dirA)
	if err != nil {
		return err
	}
	rb, err := readResults(dirB)
	if err != nil {
		return err
	}
	metrics := append(append([]benchMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	fmt.Fprintf(w, "%-13s %-30s %-34s %-34s %6s  %s\n", "workload", "metric", "A q1/median/q3", "B q1/median/q3", "bound", "verdict")
	var workloads []string
	for _, wl := range spec.Workloads {
		workloads = append(workloads, wl.Name)
	}
	for _, wl := range workloads {
		runsA, runsB := ra[wl], rb[wl]
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		names := make([]string, 0, len(runsA))
		for n := range runsA {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, m := range metrics {
			var a, b []float64
			var pairs [][2]float64
			for _, n := range names {
				va, ok := runsA[n].Metrics[m.Name]
				if !ok {
					continue
				}
				a = append(a, va.Value)
				if vb, ok := runsB[n].Metrics[m.Name]; ok {
					pairs = append(pairs, [2]float64{va.Value, vb.Value})
				}
			}
			for _, res := range runsB {
				if vb, ok := res.Metrics[m.Name]; ok {
					b = append(b, vb.Value)
				}
			}
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			fmt.Fprintf(w, "%-13s %-30s %10.4g/%10.4g/%10.4g  %10.4g/%10.4g/%10.4g  %6.3g  %s\n",
				wl, m.Name, q1a, ma, q3a, q1b, mb, q3b, m.Bound,
				verdict(a, b, pairs, m.Bound, m.Better == "higher"))
		}
	}
	return nil
}
