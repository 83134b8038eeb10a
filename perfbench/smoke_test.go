package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke builds the benchmark and runs every workload for two seconds,
// untraced and traced, from the repository root. Each run must pass its
// correctness checks and print every metric BENCHMARK.json lists for it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, listed := range map[string][]benchMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "1", "--seconds", "2", "--trace", trace)
			cmd.Dir = ".."
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Errorf("%s --trace %s: %v\n%s", w.Name, trace, err, stderr.Bytes())
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Errorf("%s --trace %s: last line: %v", w.Name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(listed))
			}
			for _, m := range listed {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s missing or with unit %q", w.Name, trace, m.Name, v.Unit)
				}
			}
		}
	}
	if _, err := os.Stat("../.bench_build/spans/fabric-sweep-1.json"); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}
