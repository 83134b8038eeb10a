package main

import (
	"math"
	"regexp"
	"sort"
)

// metricDef names one metric the benchmark reports, with its unit and the
// direction in which it improves. BENCHMARK.json lists the same metrics; a
// test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. "The request" is one whole sweep on the
// sweep workloads and one cache-missing job on serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", false},          // boot plus untimed warm-up, median of several set-ups
	{"latency_p50_ms", "ms", false},  // median request latency
	{"latency_p75_ms", "ms", false},  // 75th-percentile request latency
	{"cells_per_s", "1/s", true},     // median over windows of cells completed per second
	{"cpu_ms_per_cell", "ms", false}, // median over windows of host CPU time per cell
	{"peak_rss_mb", "MiB", false},
}

// perLayer are the metrics of single layers, printed by every traced run.
// README.md names the end-to-end metric and workload each should move.
var perLayer = []metricDef{
	{"harness.late_p99_ms", "ms", false},
	{"trace.overhead_frac", "fraction", false},
	{"jobs.submit_rtt_p50_ms", "ms", false},
	{"jobs.hit_p50_ms", "ms", false},
	{"jobs.hit_p99_ms", "ms", false},
	{"jobs.miss_p99_ms", "ms", false},
	{"jobs.queue_wait_ms_mean", "ms", false},
	{"jobs.run_ms_mean", "ms", false},
	{"jobs.cache_hit_ratio", "fraction", true},
	{"jobs.spec_hash_us", "us", false},
	{"jobs.canonical_us_per_cell", "us", false},
	{"fabric.shard_p50_ms", "ms", false},
	{"fabric.shard_p99_ms", "ms", false},
	{"fabric.useful_dispatch_ratio", "fraction", true},
	{"fabric.hedges_fired_total", "count", false},
	{"core.cell_ms_p50", "ms", false},
	{"core.batch_ms_per_cell", "ms", false},
	{"model.lut_gen_ms_per_key", "ms", false},
	{"model.lut_keys", "count", false},
	{"kernels.input_ms_per_cell", "ms", false},
	{"kernels.check_ms_per_cell", "ms", false},
	{"sim.schedule_pop_ns", "ns", false},
	{"sim.cancel_ns", "ns", false},
	{"sim.reschedule_ns", "ns", false},
	{"sim.host_ns_per_event", "ns", false},
	{"wsrt.events_per_cell", "count", false},
	{"wsrt.steal_success_ratio", "fraction", true},
	{"wsrt.mugs_per_cell", "count", true},
	{"wsrt.dvfs_transitions_per_cell", "count", false},
	{"wsrt.elastic_parks_per_cell", "count", false},
	{"go.mallocs_per_cell", "count", false},
	{"go.gc_pause_ms_total", "ms", false},
	{"paper.speedup_err_pct", "%", false},
	{"paper.energyeff_err_pct", "%", false},
}

// metricName is the form every metric name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tailSamples returns how many of n samples lie beyond the q-quantile.
func tailSamples(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9)) // tolerate 1-q rounding
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so local comparisons match the acceptance check.
// It needs at least two samples; with one, all three equal it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
