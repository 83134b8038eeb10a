package main

import (
	"fmt"
	"strconv"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
)

// probeCells caps how many sampled cells go through the service probes.
const probeCells = 50

// layerPass times, for one sampled cell, each layer's public function on
// the cell's own arguments: input generation, the simulation without the
// correctness check, the spec hash, and canonical encoding plus hashing.
// Work that happens inside another layer's call is measured by calling it
// again, so core.Run's span still contains its own input generation.
func (r *run) layerPass(parent int, req string, spec core.Spec) error {
	spec.Check = false
	sp := r.rec.begin(parent, "kernels.New", req)
	kernels.Get(spec.Kernel).New(spec.Seed, spec.Scale)
	r.rec.end(sp)

	sp = r.rec.begin(parent, "core.Run", req)
	res, err := core.Run(spec)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	r.layerEvents += res.Report.Events

	sp = r.rec.begin(parent, "jobs.SpecHash", req)
	hash, err := jobs.SpecHash(spec)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	sp = r.rec.begin(parent, "jobs.canonical", req)
	data, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
	jobs.ResultHash(data)
	r.rec.end(sp)
	return err
}

// layerMetrics computes the per-layer metrics of a traced run once the
// timed phase and the correctness pass are done.
func (r *run) layerMetrics() {
	spans := r.rec.snapshot()
	cellDur := byReq(spans, "core.Run")
	input := sumDur(durations(spans, "kernels.New"))
	var checkExtra time.Duration
	for req, d := range byReq(spans, "core.Run.check") {
		if c, ok := cellDur[req]; ok {
			checkExtra += d - c
		}
	}
	n := float64(len(cellDur))
	r.layer["kernels.input_ms_per_cell"] = ms(input) / n
	r.layer["kernels.check_ms_per_cell"] = ms(checkExtra) / n
	r.layer["core.cell_ms_p50"] = quantile(msOf(durations(spans, "core.Run")), 0.5)
	r.layer["sim.host_ns_per_event"] = float64(sumDur(durations(spans, "core.Run"))-input) / float64(r.layerEvents)
	r.layer["jobs.spec_hash_us"] = ms(sumDur(durations(spans, "jobs.SpecHash"))) * 1000 / n
	r.layer["jobs.canonical_us_per_cell"] = ms(sumDur(durations(spans, "jobs.canonical"))) * 1000 / n

	w := r.wsrt
	cells := float64(w.cells)
	r.layer["wsrt.events_per_cell"] = float64(w.events) / cells
	r.layer["wsrt.steal_success_ratio"] = float64(w.steals) / float64(w.steals+w.failedSteals)
	r.layer["wsrt.mugs_per_cell"] = float64(w.mugs) / cells
	r.layer["wsrt.dvfs_transitions_per_cell"] = float64(w.dvfs) / cells
	r.layer["wsrt.elastic_parks_per_cell"] = float64(w.elasticPks) / cells

	var specs []core.Spec
	for i, s := range r.samples {
		if i == layerCells {
			break
		}
		spec := s.spec
		spec.Check = false
		specs = append(specs, spec)
	}
	r.batchPass(specs)
	r.lutPass()
	r.enginePass()
	if len(specs) > probeCells {
		specs = specs[:probeCells]
	}
	if r.workload != "serve-mixed" {
		r.attempt()
		if err := r.jobsProbe(specs); err != nil {
			r.fail("job-service probe: %v", err)
		}
	}
	if r.workload != "fabric-sweep" {
		r.attempt()
		if err := r.fabricProbe(specs); err != nil {
			r.fail("fabric probe: %v", err)
		}
	}
	r.layer["trace.overhead_frac"] = float64(spanCost()) * float64(r.timedSpans) / float64(r.timedElapsed)
}

// byReq maps each span named name to its duration, keyed by request.
func byReq(spans []span, name string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] = s.dur()
		}
	}
	return out
}

// batchPass runs the sampled cells again as one core.RunBatch.
func (r *run) batchPass(specs []core.Spec) {
	r.attempt()
	sp := r.rec.begin(0, "core.RunBatch.samples", "")
	_, err := core.RunBatch(specs)
	r.rec.end(sp)
	if err != nil {
		r.fail("batch pass: %v", err)
		return
	}
	d := durations(r.rec.snapshot(), "core.RunBatch.samples")
	r.layer["core.batch_ms_per_cell"] = ms(d[len(d)-1]) / float64(len(specs))
}

// lutPass regenerates every DVFS lookup table the workload's cells use
// through the model's public generators.
func (r *run) lutPass() {
	seen := map[string]bool{}
	var total time.Duration
	for _, spec := range r.matrix {
		key, gen := lutOf(spec)
		if seen[key] {
			continue
		}
		seen[key] = true
		sp := r.rec.begin(0, "model.GenerateLUT", key)
		t0 := time.Now()
		gen()
		total += time.Since(t0)
		r.rec.end(sp)
	}
	r.layer["model.lut_keys"] = float64(len(seen))
	r.layer["model.lut_gen_ms_per_key"] = ms(total) / float64(len(seen))
}

// lutOf returns the lookup-table key of a cell and a function generating
// that table. It mirrors how core resolves a spec: the kernel's Table III
// alpha and beta on the 2-class machine, or each class's own parameters on
// an N-way topology (class 0 defaults to the kernel's pair, the last class
// to the little core).
func lutOf(spec core.Spec) (string, func()) {
	k := kernels.Get(spec.Kernel)
	mode := spec.Variant.LUTMode()
	if len(spec.Topology) == 0 {
		nBig, nLit := spec.System.Counts()
		p := power.DefaultParams().WithAlphaBeta(k.Alpha, k.Beta)
		key := fmt.Sprintf("%gx%g/%dB%dL/%v", k.Alpha, k.Beta, nBig, nLit, mode)
		return key, func() { model.GenerateLUT(model.Config{Params: p, NBig: nBig, NLit: nLit}, mode) }
	}
	var cfg model.NConfig
	key := ""
	for i, cl := range spec.Topology {
		speed, pw := cl.Speed, cl.Power
		if i == 0 {
			speed, pw = or(speed, k.Beta), or(pw, k.Alpha)
		} else if i == len(spec.Topology)-1 {
			speed, pw = or(speed, 1), or(pw, 1)
		}
		cfg.Classes = append(cfg.Classes, model.NClass{Count: cl.Count, Params: power.DefaultParams().WithAlphaBeta(pw, speed)})
		key += fmt.Sprintf("%dx%g/%g,", cl.Count, speed, pw)
	}
	key += fmt.Sprint(mode)
	return key, func() { model.GenerateNWayLUT(cfg, mode) }
}

// or returns v, or def when v is zero.
func or(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// enginePass times the event engine's schedule/pop, cancel and reschedule
// paths, the loops the existing engine microbenchmarks run.
func (r *run) enginePass() {
	const iters = 1_000_000
	fn := func() {}
	e := sim.NewEngine()
	sp := r.rec.begin(0, "sim.schedule_pop", "")
	start := time.Now()
	for i := 0; i < iters; i++ {
		e.After(sim.Time(i%97), fn)
		e.Step()
	}
	r.layer["sim.schedule_pop_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	r.rec.end(sp)

	e.Reset()
	sp = r.rec.begin(0, "sim.cancel", "")
	start = time.Now()
	for i := 0; i < iters; i++ {
		ev := e.After(sim.Time(7+i%13), fn)
		e.After(sim.Time(i%7), fn)
		ev.Cancel()
		e.Step()
	}
	r.layer["sim.cancel_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	r.rec.end(sp)
	e.Run(0)

	e.Reset()
	var ev sim.Event
	sp = r.rec.begin(0, "sim.reschedule", "")
	start = time.Now()
	for i := 0; i < iters; i++ {
		ev.Cancel()
		ev = e.After(sim.Time(50+i%31), fn)
		e.After(sim.Time(i%11), fn)
		e.Step()
	}
	r.layer["sim.reschedule_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	r.rec.end(sp)
	e.Run(0)
}

// spanCost measures what recording one span costs, to estimate the traced
// run's overhead on its timed phase.
func spanCost() time.Duration {
	const n = 100_000
	rec := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		rec.end(rec.begin(0, "x", strconv.Itoa(i)))
	}
	return time.Since(start) / n
}
