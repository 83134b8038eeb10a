package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/sim"
)

// run is one invocation of one workload: its inputs, its timed-phase
// measurements and its correctness tally.
type run struct {
	workload string
	seed     uint64
	dur      time.Duration
	rec      *recorder // nil in untraced runs

	attempted, failed int
	e2e, layer        map[string]float64

	// matrix lists the cell shapes the workload runs (any seed), from which
	// the traced run derives the LUT keys it uses.
	matrix []core.Spec

	mu      sync.Mutex
	samples []sample
	wsrt    wsrtTotals

	// Traced runs only: simulated events of the layer pass's core.Run
	// calls, and the timed phase's span count and length.
	layerEvents  uint64
	timedSpans   int
	timedElapsed time.Duration
}

// sample is one completed cell kept for the in-process re-run, with what
// the system returned for it: the result hash of its canonical outcome bytes
// from the services and the batch path, or execution time and energy from
// the CLI's rows.
type sample struct {
	idx    int
	spec   core.Spec
	hash   string
	time   sim.Time
	energy float64
}

func newRun(name string, seed uint64, dur time.Duration, traced bool) *run {
	r := &run{workload: name, seed: seed, dur: dur,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		r.rec = newRecorder()
	}
	return r
}

// fail counts one failed or refused operation or check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// attempt counts one attempted operation or check.
func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// iterSeed derives the seed of operation i from the run's seed
// (splitmix64), so one --seed fixes every input of the run.
func iterSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) >> 16
}

// sampled reports whether completed cell i is one of the seeded one in ten
// that the correctness pass re-runs in process.
func (r *run) sampled(i int) bool {
	return iterSeed(r.seed^0x5bd1e995, i)%10 == 0
}

// keep records a sampled cell; safe from several goroutines.
func (r *run) keep(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// timed is one timed phase's raw measurements.
type timed struct {
	lat     []float64 // request latencies, ms
	late    []float64 // how late each request was sent, ms
	win     []window
	cells   int
	elapsed time.Duration
	rssMB   float64
	mallocs uint64
	pauseNs uint64
}

// window is one slice of the timed phase over which throughput and CPU cost
// are measured: one request of a closed loop, one second of the open loop.
// Their medians keep a burst of host noise from moving a whole run.
type window struct {
	cells    int
	dur, cpu time.Duration
}

// op records one completed closed-loop request.
func (t *timed) op(cells int, dur, cpu time.Duration) {
	t.lat = append(t.lat, ms(dur))
	t.win = append(t.win, window{cells: cells, dur: dur, cpu: cpu})
	t.cells += cells
}

// procMark is a snapshot of this process's counters.
type procMark struct {
	t  time.Time
	ms runtime.MemStats
}

func markProc() procMark {
	var m procMark
	runtime.ReadMemStats(&m.ms)
	m.t = time.Now()
	return m
}

// since fills t's process-level fields with the change since m.
func (m procMark) since(t *timed) {
	t.elapsed = time.Since(m.t)
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	t.mallocs = now.Mallocs - m.ms.Mallocs
	t.pauseNs = now.PauseTotalNs - m.ms.PauseTotalNs
	t.rssMB = peakRSSMB()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuOf(&ru)
}

func cpuOf(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// record turns a timed phase into the end-to-end metrics and the harness
// and Go-runtime layer metrics.
func (r *run) record(t timed) {
	if len(t.lat) == 0 || t.cells == 0 {
		r.fail("timed phase completed no requests")
		return
	}
	var rate, cpu []float64
	for _, w := range t.win {
		if w.cells > 0 && w.dur > 0 {
			rate = append(rate, float64(w.cells)/w.dur.Seconds())
			cpu = append(cpu, ms(w.cpu)/float64(w.cells))
		}
	}
	r.e2e["latency_p50_ms"] = quantile(t.lat, 0.50)
	r.e2e["latency_p75_ms"] = quantile(t.lat, 0.75)
	r.e2e["cells_per_s"] = quantile(rate, 0.5)
	r.e2e["cpu_ms_per_cell"] = quantile(cpu, 0.5)
	r.e2e["peak_rss_mb"] = t.rssMB
	r.timedSpans, r.timedElapsed = len(r.rec.snapshot()), t.elapsed
	r.layer["harness.late_p99_ms"] = quantile(t.late, 0.99)
	r.layer["go.mallocs_per_cell"] = float64(t.mallocs) / float64(t.cells)
	r.layer["go.gc_pause_ms_total"] = float64(t.pauseNs) / 1e6
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests (%d beyond p75), %d cells in %.2fs\n",
		r.workload, len(t.lat), tailSamples(len(t.lat), 0.75), t.cells, t.elapsed.Seconds())
}

// ---- child processes ----

// childProc is a running copy of this binary started by the benchmark.
type childProc struct {
	cmd     *exec.Cmd
	out     *bufio.Reader
	cancel  context.CancelFunc
	started time.Time
}

// childTimeout bounds any one child process.
const childTimeout = 90 * time.Second

func startChild(args ...string) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	c := &childProc{cmd: cmd, out: bufio.NewReaderSize(pipe, 1<<20), cancel: cancel}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	return c, nil
}

// line reads the child's next line of output.
func (c *childProc) line() ([]byte, error) {
	b, err := c.out.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("reading child output: %w", err)
	}
	return bytes.TrimSuffix(b, []byte("\n")), nil
}

// ready waits for the child's "ready" line and returns when it arrived.
func (c *childProc) ready() (time.Time, error) {
	b, err := c.line()
	if err != nil {
		return time.Time{}, err
	}
	if string(b) != "ready" {
		return time.Time{}, fmt.Errorf("child printed %q, want ready", b)
	}
	return time.Now(), nil
}

// wait reaps the child and returns its resource usage.
func (c *childProc) wait() (*syscall.Rusage, error) {
	defer c.cancel()
	err := c.cmd.Wait()
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if err != nil {
		return ru, fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	return ru, nil
}

// abort kills the child and reaps it.
func (c *childProc) abort() {
	c.cancel()
	_ = c.cmd.Wait()
}

// setupSeconds measures the workload's set-up in setupRuns fresh processes,
// from exec to ready, and reports the median as setup_s.
func (r *run) setupSeconds(name string) {
	var xs []float64
	for i := 0; i < setupRuns; i++ {
		r.attempt()
		c, err := startChild("--child", "setup", "--workload", name, "--seed", strconv.FormatUint(r.seed, 10))
		if err != nil {
			r.fail("set-up child: %v", err)
			continue
		}
		at, err := c.ready()
		if err != nil {
			c.abort()
			r.fail("set-up child: %v", err)
			continue
		}
		if _, err := c.wait(); err != nil {
			r.fail("set-up child: %v", err)
			continue
		}
		r.rec.add(0, "setup.child", "setup-"+strconv.Itoa(i), c.started, at)
		xs = append(xs, at.Sub(c.started).Seconds())
	}
	if len(xs) > 0 {
		r.e2e["setup_s"] = quantile(xs, 0.5)
	}
}

// runChild is the body of a child process.
func runChild(kind, name string, seed uint64) error {
	switch kind {
	case "setup":
		w, ok := findWorkload(name)
		if !ok || w.boot == nil {
			return fmt.Errorf("no set-up for workload %q", name)
		}
		r := newRun(name, seed, 0, false)
		st, err := w.boot(r)
		if err != nil {
			return err
		}
		defer st.close()
		if r.failed > 0 {
			return errors.New("set-up checks failed")
		}
		fmt.Println("ready")
		return nil
	case "sweep":
		return childSweep(seed)
	case "fingerprint":
		return childFingerprint()
	}
	return fmt.Errorf("unknown child kind %q", kind)
}

// ---- correctness ----

// wsrtTotals sums the simulated runtime's statistics over the re-run
// samples. These are simulated, so they repeat exactly for a seed.
type wsrtTotals struct {
	cells                                        int
	events                                       uint64
	steals, failedSteals, mugs, dvfs, elasticPks int
}

// verifySamples re-runs every sampled cell in process with core.Run and
// Check set: the output must equal what the system returned, and
// Result.Verify must pass. In a traced run the first layerCells samples
// also go through each layer's public function on their own.
func (r *run) verifySamples() {
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].idx < r.samples[j].idx })
	for i, s := range r.samples {
		r.attempt()
		if err := r.verifyOne(i, s); err != nil {
			r.fail("cell %d (%s/%s/%s seed %d): %v", s.idx, s.spec.Kernel, s.spec.System, s.spec.Variant, s.spec.Seed, err)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: re-ran %d sampled cells\n", r.workload, len(r.samples))
}

// layerCells caps how many samples the traced run also times layer by
// layer.
const layerCells = 110

func (r *run) verifyOne(i int, s sample) error {
	req := "cell-" + strconv.Itoa(s.idx)
	cell := r.rec.begin(0, "verify.cell", req)
	defer r.rec.end(cell)
	if r.rec != nil && i < layerCells {
		if err := r.layerPass(cell, req, s.spec); err != nil {
			return err
		}
	}
	spec := s.spec
	spec.Check = true
	sp := r.rec.begin(cell, "core.Run.check", req)
	res, err := core.Run(spec)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if s.hash != "" {
		want, err := cellBytes(s.spec, res)
		if err != nil {
			return err
		}
		if got := jobs.ResultHash(want); got != s.hash {
			return fmt.Errorf("result hash %.12s differs from the in-process re-run's %.12s", s.hash, got)
		}
	} else if res.Report.ExecTime != s.time || res.Report.TotalEnergy != s.energy {
		return fmt.Errorf("CLI row time %d energy %g, re-run time %d energy %g",
			s.time, s.energy, res.Report.ExecTime, res.Report.TotalEnergy)
	}
	rep := &res.Report
	w := &r.wsrt
	w.cells++
	w.events += rep.Events
	w.steals += rep.Steals
	w.failedSteals += rep.FailedSteals
	w.mugs += rep.Mugs
	w.dvfs += rep.DVFSTransitions
	w.elasticPks += rep.ElasticParks
	return nil
}

// cellBytes returns a result's canonical outcome bytes, as the job service
// and the fabric store and serve them.
func cellBytes(spec core.Spec, res core.Result) ([]byte, error) {
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		return nil, err
	}
	return jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
}
