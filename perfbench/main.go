// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time in its own process, checks that the system's
// outputs are correct, and prints the workload's metrics as one JSON line:
//
//	bash perfbench/run.sh --workload sweep-ext --seed 1 --seconds 22 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
// run, which prints the per-layer metrics and writes the spans it recorded
// to .bench_build/spans/. --compare dirA dirB compares two sets of saved
// results. README.md describes the workloads, the metrics and the
// correctness checks.
//
// The benchmark calls only the public functions of the core, kernels,
// model, sim, jobs and fabric packages and the services' public HTTP
// endpoints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic shape the benchmark can run.
type workload struct {
	name string
	// boot performs the workload's in-process set-up: everything before the
	// first timed operation. nil for sweep-cold, whose set-up is each child
	// process's start.
	boot func(r *run) (stage, error)
	// measure runs the timed phase on a booted stage (sweep-cold: alone).
	measure func(r *run, st stage) error
}

// stage is a booted workload: a server, a fleet, or a prepared matrix.
type stage interface{ close() }

var workloads = []workload{
	{name: "sweep-cold", measure: measureSweepCold},
	{name: "sweep-ext", boot: bootSweepExt, measure: measureSweepExt},
	{name: "serve-mixed", boot: bootServe, measure: measureServe},
	{name: "fabric-sweep", boot: bootFabric, measure: measureFabric},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many fresh processes measure setup_s in one run.
const setupRuns = 3

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	runtime.GOMAXPROCS(2) // the load is sized for two host threads
	var (
		name    = flag.String("workload", "", "workload to run: sweep-cold, sweep-ext, serve-mixed or fabric-sweep")
		seed    = flag.Uint64("seed", 1, "workload seed; each operation's inputs derive from it")
		seconds = flag.Int("seconds", 22, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run: print per-layer metrics and write spans")
		compare = flag.Bool("compare", false, "compare the results saved in two directories: --compare dirA dirB")
		child   = flag.String("child", "", "internal: run as a child process of a workload (sweep, fingerprint, setup)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two directories")
			os.Exit(2)
		}
		if err := compareDirs(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *child != "" {
		if err := runChild(*child, *name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	if _, err := loadFingerprint(); err != nil {
		// Without the repository around the benchmark there is nothing to
		// measure: fail before printing any result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(w.name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	res := r.execute(w)
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// execute runs the whole benchmark for one workload: set-up measured in
// fresh processes, the timed phase, the correctness checks, and in a traced
// run the per-layer pass.
func (r *run) execute(w workload) result {
	var st stage
	if w.boot != nil {
		r.setupSeconds(w.name)
		var err error
		if st, err = w.boot(r); err != nil {
			r.fail("set-up: %v", err)
			return r.result()
		}
		defer st.close()
	}
	if err := w.measure(r, st); err != nil {
		r.fail("timed phase: %v", err)
	}
	r.verifySamples()
	if r.rec != nil {
		r.layerMetrics()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", r.workload, r.seed))
		if err := r.rec.write(path); err != nil {
			r.fail("writing spans: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(r.rec.snapshot()), path)
		}
		printSelfTimes(r.rec.snapshot())
	}
	return r.result()
}

// result assembles the printed object: the end-to-end metrics in an
// untraced run, the per-layer metrics in a traced one.
func (r *run) result() result {
	defs, vals := endToEnd, r.e2e
	if r.rec != nil {
		defs, vals = perLayer, r.layer
	}
	out := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	out.Attempted, out.Failed = max(r.attempted, 1), r.failed
	out.Correct = r.failed == 0
	return out
}

// printSelfTimes writes, per span name, the count, total time and self
// time of the traced run's spans to standard error.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "  span                             count      total_ms       self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(os.Stderr, "  %-32s %5d %13.3f %13.3f\n", n, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
