package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// ---- sweep-cold: the aaws-sweep CLI path, every cache cold ----

// cliRow is one Figure 8 row as the sweep child prints it.
type cliRow struct {
	Kernel  string      `json:"kernel"`
	Results []cliResult `json:"results"`
}

type cliResult struct {
	Variant string   `json:"variant"`
	Time    sim.Time `json:"time"`
	Energy  float64  `json:"energy"`
}

// sweepOutput is the sweep child's report: its rows and its own Go-runtime
// counters.
type sweepOutput struct {
	Rows    []cliRow `json:"rows"`
	Mallocs uint64   `json:"mallocs"`
	PauseNs uint64   `json:"pause_ns"`
}

// childSweep is one aaws-sweep invocation: the default 4B4L sweep at scale
// 1.0 in a fresh process, so input generation, LUT generation and
// simulation all start cold.
func childSweep(seed uint64) error {
	fmt.Println("ready")
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	opt := core.DefaultSweep(core.Sys4B4L)
	opt.Seed = seed
	rows, err := core.Sweep(opt)
	if err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out := sweepOutput{Mallocs: after.Mallocs - before.Mallocs, PauseNs: after.PauseTotalNs - before.PauseTotalNs}
	for _, row := range rows {
		cr := cliRow{Kernel: row.Kernel}
		for _, vr := range row.Results {
			cr.Results = append(cr.Results, cliResult{Variant: vr.Variant.String(), Time: vr.Time, Energy: vr.Energy})
		}
		out.Rows = append(out.Rows, cr)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// measureSweepCold runs one sweep child after another for the timed phase.
// A request is one child, from exec to exit; its set-up is exec to ready.
func measureSweepCold(r *run, _ stage) error {
	r.matrix = defaultMatrix(0)
	var (
		t       timed
		setups  []float64
		rss     []float64
		mallocs uint64
		pauseNs uint64
	)
	start := time.Now()
	prevEnd := start
	for i := 0; time.Since(start) < r.dur; i++ {
		seed := iterSeed(r.seed, i)
		req := "sweep-" + strconv.Itoa(i)
		r.attempt()
		t0 := time.Now()
		t.late = append(t.late, ms(t0.Sub(prevEnd)))
		c, err := startChild("--child", "sweep", "--seed", strconv.FormatUint(seed, 10))
		if err != nil {
			return err
		}
		readyAt, err := c.ready()
		var line []byte
		if err == nil {
			line, err = c.line()
		}
		if err != nil {
			c.abort()
			r.fail("%s: %v", req, err)
			prevEnd = time.Now()
			continue
		}
		ru, err := c.wait()
		end := time.Now()
		prevEnd = end
		if err != nil {
			r.fail("%s: %v", req, err)
			continue
		}
		sp := r.rec.add(0, "cli.sweep", req, t0, end)
		r.rec.add(sp, "cli.start", req, t0, readyAt)
		var out sweepOutput
		if err := json.Unmarshal(line, &out); err != nil {
			r.fail("%s: decoding rows: %v", req, err)
			continue
		}
		if err := r.keepRows(i, seed, out.Rows); err != nil {
			r.fail("%s: %v", req, err)
			continue
		}
		t.op(len(r.matrix), end.Sub(t0), cpuOf(ru))
		setups = append(setups, readyAt.Sub(t0).Seconds())
		rss = append(rss, float64(ru.Maxrss)/1024)
		mallocs += out.Mallocs
		pauseNs += out.PauseNs
	}
	t.elapsed = time.Since(start)
	t.mallocs, t.pauseNs = mallocs, pauseNs
	t.rssMB = quantile(rss, 0.5)
	r.e2e["setup_s"] = quantile(setups, 0.5)
	r.record(t)

	// The reference matrix, in one more fresh process.
	c, err := startChild("--child", "fingerprint")
	if err != nil {
		return err
	}
	line, err := c.line()
	if err != nil {
		c.abort()
		return err
	}
	if _, err := c.wait(); err != nil {
		return err
	}
	var cells [][]byte
	if err := json.Unmarshal(line, &cells); err != nil {
		return fmt.Errorf("decoding reference cells: %w", err)
	}
	r.checkMatrix(cells)
	return nil
}

// keepRows checks that a sweep child returned every cell of its matrix and
// keeps the sampled ones.
func (r *run) keepRows(op int, seed uint64, rows []cliRow) error {
	got := map[string]cliResult{}
	for _, row := range rows {
		for _, res := range row.Results {
			got[row.Kernel+"/"+res.Variant] = res
		}
	}
	specs := defaultMatrix(seed)
	if len(got) != len(specs) {
		return fmt.Errorf("sweep returned %d cells, want %d", len(got), len(specs))
	}
	for j, spec := range specs {
		res, ok := got[spec.Kernel+"/"+spec.Variant.String()]
		if !ok {
			return fmt.Errorf("sweep is missing %s/%s", spec.Kernel, spec.Variant)
		}
		if idx := op*len(specs) + j; r.sampled(idx) {
			r.keep(sample{idx: idx, spec: spec, time: res.Time, energy: res.Energy})
		}
	}
	return nil
}

// ---- sweep-ext: warm in-process batches on extension kernels ----

// extKernels are the lock and loop-scheduling extension families plus four
// Table III kernels of different shapes.
var extKernels = []string{
	"lock-tas", "lock-queue", "lock-qbig", "loop-static", "loop-dynamic", "loop-guided",
	"cilksort", "heat", "uts", "qsort-2",
}

// extTopology is a three-class N-way machine: one fast core, two medium, four
// little.
const extTopology = "1x4/3,2x2.5/1.8,4"

// extMatrix is one sweep-ext batch: extKernels × {4B4L, extTopology} ×
// {elastic off, on} × the five variants, 200 cells at scale 1.0.
func extMatrix(seed uint64) []core.Spec {
	topo, err := core.ParseTopology(extTopology)
	if err != nil {
		panic(err) // a constant that parses
	}
	var specs []core.Spec
	for _, k := range extKernels {
		for _, tp := range [][]core.CoreClass{nil, topo} {
			for _, elastic := range []bool{false, true} {
				for _, v := range wsrt.Variants {
					specs = append(specs, core.Spec{
						Kernel: k, System: core.Sys4B4L, Variant: v, Seed: seed, Scale: 1,
						Elastic: elastic, Topology: tp,
					})
				}
			}
		}
	}
	return specs
}

type noStage struct{}

func (noStage) close() {}

// bootSweepExt warms the LUT and engine caches with one untimed batch.
func bootSweepExt(r *run) (stage, error) {
	r.matrix = extMatrix(0)
	if _, err := core.RunBatch(extMatrix(iterSeed(r.seed, 1<<20))); err != nil {
		return nil, err
	}
	return noStage{}, nil
}

// measureSweepExt runs one batch after another through core.RunBatch.
func measureSweepExt(r *run, _ stage) error {
	var t timed
	mark := markProc()
	prevEnd := mark.t
	for i := 0; time.Since(mark.t) < r.dur; i++ {
		seed := iterSeed(r.seed, i)
		specs := extMatrix(seed)
		req := "batch-" + strconv.Itoa(i)
		r.attempt()
		t0, cpu0 := time.Now(), processCPU()
		t.late = append(t.late, ms(t0.Sub(prevEnd)))
		sp := r.rec.begin(0, "core.RunBatch", req)
		results, err := core.RunBatch(specs)
		r.rec.end(sp)
		prevEnd = time.Now()
		if err != nil {
			r.fail("%s: %v", req, err)
			continue
		}
		t.op(len(specs), prevEnd.Sub(t0), processCPU()-cpu0)
		for j, spec := range specs {
			if idx := i*len(specs) + j; r.sampled(idx) {
				data, err := cellBytes(spec, results[j])
				if err != nil {
					return err
				}
				r.keep(sample{idx: idx, spec: spec, hash: jobs.ResultHash(data)})
			}
		}
	}
	mark.since(&t)
	r.record(t)

	cells, err := localMatrixCells()
	if err != nil {
		return fmt.Errorf("reference matrix: %w", err)
	}
	r.checkMatrix(cells)
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
