package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"aaws/internal/kernels"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// defaultMatrix builds the full default sweep matrix (every kernel × every
// variant) for one system at a small scale, the shape RunBatch is tuned
// for: each kernel contributes three partitions (one per LUT mode).
func defaultMatrix(sys System, scale float64) []Spec {
	var specs []Spec
	for _, kn := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, Spec{
				Kernel: kn, System: sys, Variant: v, Seed: 42, Scale: scale,
			})
		}
	}
	return specs
}

// registryMatrix is the shared-input identity matrix on one system: every
// registered kernel, extensions included, × every variant × elastic off
// and on × two seeds, checked, at a small scale. A batch runs all ten
// cells of a (kernel, seed) on one shared Input, so a Run that wrote into
// its Input would make a later cell diverge from its per-cell run or fail
// its check.
func registryMatrix(sys System) []Spec {
	var specs []Spec
	for _, k := range kernels.AllWithExtensions() {
		for _, seed := range []uint64{42, 7} {
			for _, elastic := range []bool{false, true} {
				for _, v := range wsrt.Variants {
					specs = append(specs, Spec{
						Kernel: k.Name, System: sys, Variant: v, Seed: seed, Scale: 0.05,
						Elastic: elastic, Check: true,
					})
				}
			}
		}
	}
	return specs
}

// cellName labels a registry-matrix cell in failure messages.
func cellName(s Spec) string {
	return fmt.Sprintf("%s/%s/%s/seed=%d/elastic=%v", s.Kernel, s.System, s.Variant, s.Seed, s.Elastic)
}

// runSerial runs every spec on its own and fails the test on an error or a
// failed check.
func runSerial(t *testing.T, specs []Spec) []uint64 {
	t.Helper()
	out := make([]uint64, len(specs))
	for i, spec := range specs {
		res, err := Run(spec)
		if err == nil {
			err = res.CheckErr
		}
		if err != nil {
			t.Fatalf("%s: serial: %v", cellName(spec), err)
		}
		out[i] = fingerprintResult(res)
	}
	return out
}

// TestBatchMatchesSerial is the batch-path gate: RunBatch over the
// registry matrix must be bit-identical, cell for cell, to per-cell Run,
// with every check passing. The batch path shares one engine and one
// resolved LUT per partition and one input per (kernel, seed, scale), so
// agreement proves that nothing runCell re-applies per cell (engine
// state, tracker state, machine wiring) and nothing a workload writes
// leaks between cells. It runs at GOMAXPROCS 4, so kernel groups also run
// side by side and agreement proves nothing leaks between concurrent
// groups either.
func TestBatchMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	systems := []System{Sys4B4L, Sys1B7L}
	if testing.Short() {
		systems = systems[:1]
	}
	for _, sys := range systems {
		specs := registryMatrix(sys)
		if testing.Short() {
			specs = specs[:8*len(wsrt.Variants)]
		}
		serial := runSerial(t, specs)
		results, err := RunBatch(specs)
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", sys, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("%s: RunBatch returned %d results for %d specs", sys, len(results), len(specs))
		}
		for i, res := range results {
			if res.CheckErr != nil {
				t.Errorf("%s: batch check: %v", cellName(specs[i]), res.CheckErr)
			}
			if got := fingerprintResult(res); got != serial[i] {
				t.Errorf("%s: batch diverged from serial: %x != %x", cellName(specs[i]), got, serial[i])
			}
		}
	}
}

// TestBatchOrderIndependence is the input-order property: shuffling the
// specs must shuffle nothing but the partition groupings and the order in
// which a group meets its seeds — every result comes back at its spec's
// input position, identical to the serial run of that spec. Several
// shuffles exercise different partition and input interleavings; at
// GOMAXPROCS 4 they also exercise different group-to-worker claims.
func TestBatchOrderIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	specs := registryMatrix(Sys4B4L)
	if testing.Short() {
		specs = specs[:8*len(wsrt.Variants)]
	}
	serial := runSerial(t, specs)
	want := make(map[string]uint64, len(specs))
	for i, spec := range specs {
		want[specKey(spec)] = serial[i]
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]Spec(nil), specs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		results, err := RunBatch(shuffled)
		if err != nil {
			t.Fatalf("trial %d: RunBatch: %v", trial, err)
		}
		for i, res := range results {
			if res.CheckErr != nil {
				t.Errorf("trial %d: %s: batch check: %v", trial, cellName(shuffled[i]), res.CheckErr)
			}
			if got := fingerprintResult(res); got != want[specKey(shuffled[i])] {
				t.Errorf("trial %d: result %d (%s) not the serial result for its input position",
					trial, i, cellName(shuffled[i]))
			}
		}
	}
}

// TestBatchValidatesUpFront: a bad cell anywhere in the batch fails the
// whole submission before any simulation runs, naming the cell.
func TestBatchValidatesUpFront(t *testing.T) {
	specs := []Spec{
		{Kernel: kernels.Names()[0], Variant: wsrt.BasePSM, Scale: 0.05},
		{Kernel: "no-such-kernel", Variant: wsrt.BasePSM, Scale: 0.05},
	}
	if _, err := RunBatch(specs); err == nil {
		t.Fatal("RunBatch accepted a batch with an unknown kernel")
	}
}

// TestBatchErrorIndependentOfGOMAXPROCS: with failing cells in two kernel
// groups, the batch returns the error of the lower-index group, byte for
// byte the same whether the groups run on one worker or four. The lower
// group runs larger cells and fails on the last cell it runs; the higher
// group fails on its first. So with four workers the higher group's error
// is usually the first to happen.
func TestBatchErrorIndependentOfGOMAXPROCS(t *testing.T) {
	nv := len(wsrt.Variants)
	specs := defaultMatrix(Sys4B4L, 0.05)[:4*nv]
	for i := 2 * nv; i < 3*nv; i++ {
		specs[i].Scale = 0.5
	}
	bad := []int{2*nv + 3, 3 * nv} // base+psm runs last in its group
	for _, i := range bad {
		specs[i].MaxEvents = 10 // trips the event budget at once
	}
	runAt := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, err := RunBatch(specs)
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: batch with exhausted event budgets succeeded", procs)
		}
		return err.Error()
	}
	one, four := runAt(1), runAt(4)
	if one != four {
		t.Errorf("batch error depends on GOMAXPROCS:\n 1: %s\n 4: %s", one, four)
	}
	if want := fmt.Sprintf("core: batch cell %d (", bad[0]); !strings.HasPrefix(one, want) {
		t.Errorf("batch error %q does not name the first failing cell %d", one, bad[0])
	}
}

// TestBatchCancelReturnsPromptly: cancelling the caller's context aborts
// every worker and the batch returns an error wrapping context.Canceled
// long before the batch could have finished.
func TestBatchCancelReturnsPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := RunBatchCtx(ctx, defaultMatrix(Sys4B4L, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled batch took %s to return", d)
	}
}

// TestBatchLUTSolvesOnce: a cold default 4B4L batch solves each distinct
// table exactly once, also when kernels that share (alpha, beta) run at the
// same time.
func TestBatchLUTSolvesOnce(t *testing.T) {
	specs := defaultMatrix(Sys4B4L, 0.05)
	for _, procs := range []int{1, 4} {
		restore := drainLUTCache(lutCacheMax)
		prev := runtime.GOMAXPROCS(procs)
		before := lutSolves.Load()
		_, err := RunBatch(specs)
		solved := lutSolves.Load() - before
		runtime.GOMAXPROCS(prev)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if solved != 54 {
			t.Errorf("GOMAXPROCS %d: cold default batch solved %d tables, want 54", procs, solved)
		}
	}
}

// TestBatchInputsOnce: a batch prepares one input per distinct (kernel,
// seed, scale), whatever GOMAXPROCS is. The default 4B4L matrix has 22
// distinct inputs among its 110 cells, 44 at two seeds; the sweep-ext
// benchmark matrix (ten kernels × two core mixes × elastic off/on × five
// variants) has 10 among 200.
func TestBatchInputsOnce(t *testing.T) {
	twoSeeds := defaultMatrix(Sys4B4L, 0.05)
	for _, s := range defaultMatrix(Sys4B4L, 0.05) {
		s.Seed = 7
		twoSeeds = append(twoSeeds, s)
	}
	topo, err := ParseTopology("1x4/3,2x2.5/1.8,4")
	if err != nil {
		t.Fatal(err)
	}
	var ext []Spec
	for _, k := range []string{
		"lock-tas", "lock-queue", "lock-qbig", "loop-static", "loop-dynamic", "loop-guided",
		"cilksort", "heat", "uts", "qsort-2",
	} {
		for _, tp := range [][]CoreClass{nil, topo} {
			for _, elastic := range []bool{false, true} {
				for _, v := range wsrt.Variants {
					ext = append(ext, Spec{Kernel: k, Variant: v, Seed: 3, Scale: 0.05, Elastic: elastic, Topology: tp})
				}
			}
		}
	}
	cases := []struct {
		name  string
		specs []Spec
		want  int64
	}{
		{"default 4B4L", defaultMatrix(Sys4B4L, 0.05), 22},
		{"default 4B4L at two seeds", twoSeeds, 44},
		{"sweep-ext", ext, 10},
	}
	for _, procs := range []int{1, 4} {
		for _, c := range cases {
			prev := runtime.GOMAXPROCS(procs)
			before := inputsPrepared.Load()
			_, err := RunBatch(c.specs)
			prepared := inputsPrepared.Load() - before
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if prepared != c.want {
				t.Errorf("GOMAXPROCS %d: %s batch of %d cells prepared %d inputs, want %d",
					procs, c.name, len(c.specs), prepared, c.want)
			}
		}
	}
}

// drainLUTCache empties the LUT cache and sets its capacity, returning a
// func that restores the previous contents, so other tests keep their warm
// tables.
func drainLUTCache(max int) (restore func()) {
	lutCache.Lock()
	savedM, savedHead, savedTail, savedMax := lutCache.m, lutCache.head, lutCache.tail, lutCache.max
	lutCache.m = map[lutKey]*lutNode{}
	lutCache.head, lutCache.tail = nil, nil
	lutCache.max = max
	lutCache.Unlock()
	return func() {
		lutCache.Lock()
		lutCache.m, lutCache.head, lutCache.tail, lutCache.max = savedM, savedHead, savedTail, savedMax
		lutCache.Unlock()
	}
}

// TestBatchAmortizesAllocations pins the perf claim behind the batch path:
// in steady state (warm engine cache, warm LUT cache) a single-partition
// batch must allocate strictly less than the same cells run one by one,
// because the per-cell env construction (tracker, engine checkout, LUT
// resolve) happens once per partition instead of once per cell. Alloc
// counts of the deterministic simulator are stable, so this is exact.
func TestBatchAmortizesAllocations(t *testing.T) {
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Kernel: "matmul", Variant: wsrt.BasePSM, Seed: uint64(i + 1), Scale: 0.02}
	}
	run := func() {
		if _, err := RunBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	serial := func() {
		for _, spec := range specs {
			if _, err := Run(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both paths (engine cache, LUT cache) before measuring.
	run()
	serial()
	batchAllocs := testing.AllocsPerRun(5, run)
	serialAllocs := testing.AllocsPerRun(5, serial)
	if batchAllocs >= serialAllocs {
		t.Errorf("batch path allocates %.0f per batch, serial %.0f — amortization lost",
			batchAllocs, serialAllocs)
	}
}

// TestEngineCacheBounds: the warm-engine cache is LIFO, bounded at max,
// and get drains it before minting fresh engines.
func TestEngineCacheBounds(t *testing.T) {
	c := &engineCache{max: 2, ttl: time.Hour, now: time.Now}
	e1, e2, e3 := sim.NewEngine(), sim.NewEngine(), sim.NewEngine()
	c.put(e1)
	c.put(e2)
	c.put(e3) // over max: dropped
	if got := c.warm(); got != 2 {
		t.Fatalf("warm = %d after filling a max-2 cache, want 2", got)
	}
	if got := c.get(); got != e2 {
		t.Error("get did not return the most recently returned engine")
	}
	if got := c.get(); got != e1 {
		t.Error("second get did not return the older engine")
	}
	if c.get() == nil {
		t.Error("empty cache must mint a fresh engine")
	}
	if got := c.warm(); got != 0 {
		t.Errorf("warm = %d after draining, want 0", got)
	}
}

// TestEngineCacheDecay: engines idle past the TTL are dropped by the
// janitor; fresher ones survive. The clock is stubbed so the test is
// instant and deterministic.
func TestEngineCacheDecay(t *testing.T) {
	base := time.Unix(0, 0)
	clock := base
	c := &engineCache{max: 8, ttl: time.Hour, now: func() time.Time { return clock }}
	c.put(sim.NewEngine()) // idle since base
	clock = base.Add(45 * time.Minute)
	c.put(sim.NewEngine()) // idle since base+45m
	clock = base.Add(61 * time.Minute)
	c.decay()
	if got := c.warm(); got != 1 {
		t.Fatalf("warm = %d after decay at +61m with TTL 1h, want 1 survivor", got)
	}
	clock = base.Add(3 * time.Hour)
	c.decay()
	if got := c.warm(); got != 0 {
		t.Fatalf("warm = %d after decay well past TTL, want 0", got)
	}
}

// TestLUTCacheLRU: the LUT cache evicts the least-recently-used table at
// capacity instead of refusing new entries, and a hit refreshes recency.
// The cache is drained for the duration (eviction removes one entry per
// insert, so a pre-populated cache would mask the bound) and restored
// afterwards so other tests keep their warm tables.
func TestLUTCacheLRU(t *testing.T) {
	defer drainLUTCache(2)()

	// Distinct core mixes give distinct keys; the params stay fixed.
	p := power.DefaultParams()
	probe := func(nLit int) lutKey {
		topo := pairTopology(p, p, 1, nLit)
		if cachedLUT(topo, model.ModeNominal) == nil {
			t.Fatalf("cachedLUT returned nil for 1B%dL", nLit)
		}
		return lutKey{topo: topo.sig, mode: model.ModeNominal}
	}
	contains := func(k lutKey) bool {
		lutCache.Lock()
		defer lutCache.Unlock()
		_, ok := lutCache.m[k]
		return ok
	}

	a := probe(1) // cache: [A]
	b := probe(2) // cache: [B A]
	probe(1)      // A hit, refreshed: [A B]
	c := probe(3) // evicts LRU = B: [C A]

	lutCache.Lock()
	n := len(lutCache.m)
	lutCache.Unlock()
	if n != 2 {
		t.Fatalf("LUT cache has %d entries, want 2 (bounded by max)", n)
	}
	if contains(b) {
		t.Error("B survived eviction; the hit on A should have made B the LRU victim")
	}
	if !contains(a) || !contains(c) {
		t.Error("A and C must survive: A was refreshed by its hit, C is newest")
	}
}
