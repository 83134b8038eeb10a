package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"aaws/internal/kernels"
	"aaws/internal/model"
)

// This file implements the batch execution path: RunBatch partitions a
// sweep shard by machine/LUT/model signature and runs each partition on a
// single pinned engine with the lookup table resolved once, instead of
// paying an engine-cache round-trip and a LUT lookup for every cell, and
// runs different kernels' partitions side by side across GOMAXPROCS.
// Results are bit-identical to per-cell Run calls — runCell resets the
// engine and tracker to the same initial state either way — so the batch
// path is a pure amortization, gated by the determinism fingerprint tests.

// partitionKey is the batch partition signature: everything that
// determines the machine configuration, the power parameters, and the
// DVFS lookup table for a cell. Two specs with equal keys can share a
// pinned cellEnv; anything not in the key (seed, scale, variant-level
// scheduler policy, tracing, checking, fault schedules) is applied
// per-cell by runCell and cannot leak between cells.
//
// The kernel name is part of the signature because the power parameters
// (alpha/beta) and the memory-stall rate (MPKI) derive from the kernel's
// Table III row. The LUT mode is derived from the variant — nominal,
// pacing, and pacing with sprinting use different tables — so variants
// appear in the key only through that projection, and the common sweep
// shape (one kernel, five variants) collapses to three partitions per
// kernel.
type partitionKey struct {
	kernel string
	// topo is the resolved topology signature: the class counts and the
	// parameters the table is generated from (for the paper's pair, the
	// LUTAlpha/LUTBeta estimates when set). A 2-entry topology that
	// resolves to the kernel's big.LITTLE pair shares the System/NBig/NLit
	// partition, and its environment, by construction. Elastic mode is
	// deliberately NOT part of the key: like the variant and seed it is a
	// per-cell runtime knob applied by runCell.
	topo            string
	mode            model.Mode
	interruptCycles int // resolved (0 means the default 20)
	transitionNs    float64
	memStall        bool
}

// partitionKeyOf computes the signature of a validated spec.
func partitionKeyOf(spec Spec) partitionKey {
	return partitionKey{
		kernel:          spec.Kernel,
		topo:            mustResolve(spec).sig,
		mode:            spec.Variant.LUTMode(),
		interruptCycles: spec.InterruptCycles,
		transitionNs:    spec.TransitionNsPerStep,
		memStall:        spec.MemStall,
	}
}

// RunBatch executes a batch of specs, amortizing spec-invariant setup
// across cells that share a partition signature, and returns results in
// input order. The first failing cell aborts the batch.
func RunBatch(specs []Spec) ([]Result, error) {
	return RunBatchCtx(context.Background(), specs)
}

// RunBatchCtx is RunBatch under a context. Cells run sequentially within
// a partition (they share one engine). Partitions are grouped by kernel,
// in first-appearance order, and the groups run on min(GOMAXPROCS, groups)
// goroutines that each claim the next unclaimed group; a batch with one
// group runs inline on the caller's goroutine. The unit of fan-out is the
// kernel group, not the partition, so at most one copy of a kernel's input
// is alive at a time. Results land at their input index either way, and
// every cell is bit-identical to its serial run.
//
// The first failing cell stops further claims; groups already claimed run
// to completion, and the error returned is that of the lowest-index failing
// group. Groups are claimed in order, so that is exactly the error the
// one-worker run returns, whatever GOMAXPROCS is. Cancellation aborts every
// worker's current cell and returns an error wrapping ctx.Err().
func RunBatchCtx(ctx context.Context, specs []Spec) ([]Result, error) {
	// Validate everything up front: a batch either starts fully formed or
	// not at all, so a typo in cell 93 cannot waste 92 simulations.
	for i := range specs {
		if specs[i].Scale == 0 {
			specs[i].Scale = 1.0
		}
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: batch cell %d: %w", i, err)
		}
	}

	// Partition by signature, preserving first-appearance order of
	// partitions and input order of cells within each, then group the
	// partitions by kernel in first-appearance order.
	order := make(map[partitionKey][]int)
	groupOf := make(map[string]int)
	var groups [][]partitionKey
	for i := range specs {
		k := partitionKeyOf(specs[i])
		if _, seen := order[k]; !seen {
			g, ok := groupOf[k.kernel]
			if !ok {
				g = len(groups)
				groupOf[k.kernel] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], k)
		}
		order[k] = append(order[k], i)
	}

	results := make([]Result, len(specs))
	errs := make([]error, len(groups))
	var (
		next   atomic.Int64
		failed atomic.Bool
	)
	work := func() {
		for !failed.Load() {
			g := int(next.Add(1) - 1)
			if g >= len(groups) {
				return
			}
			if errs[g] = runGroup(ctx, specs, order, groups[g], results); errs[g] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(groups)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// inputKey identifies a kernel input within a kernel group.
type inputKey struct {
	seed  uint64
	scale float64
}

// runGroup runs one kernel group's cells, writing each cell's result at its
// input index. It walks the cells seed-major: for each (seed, scale) in
// order of first appearance, every partition in order, and each
// partition's cells of that (seed, scale) in input order. So every cell of
// one (seed, scale) runs on the one Input prepared for it, at most one
// Input of the group is alive at a time, and each partition's environment
// (LUT and tracker) is pinned for the life of the group. A panic that
// escapes a cell is returned as the group's error, so a worker goroutine
// never takes the process down.
func runGroup(ctx context.Context, specs []Spec, order map[partitionKey][]int, keys []partitionKey, results []Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: batch group %s panicked: %v\n%s", keys[0].kernel, r, debug.Stack())
		}
	}()
	type step struct{ input, part, cell int }
	n := 0
	for _, k := range keys {
		n += len(order[k])
	}
	// Small groups (one kernel's variants at a seed or two) walk and pin
	// from stack buffers, so the batch path adds no allocation per group
	// over the serial path.
	var walkBuf [32]step
	walk := walkBuf[:0]
	if n > len(walkBuf) {
		walk = make([]step, 0, n)
	}
	// A group almost always has one (seed, scale), rarely more than a few,
	// so a linear search numbers them without a map.
	var firstBuf [4]inputKey
	firsts := firstBuf[:0]
	for p, k := range keys {
		for _, i := range order[k] {
			ik := inputKey{specs[i].Seed, specs[i].Scale}
			x := slices.Index(firsts, ik)
			if x < 0 {
				x = len(firsts)
				firsts = append(firsts, ik)
			}
			walk = append(walk, step{x, p, i})
		}
	}
	// Cells were listed partition by partition in input order, so a stable
	// sort by input number keeps that order within each input.
	slices.SortStableFunc(walk, func(a, b step) int { return a.input - b.input })

	var envBuf [8]cellEnv
	envs := envBuf[:0]
	if len(keys) > len(envBuf) {
		envs = make([]cellEnv, 0, len(keys))
	}
	envs = envs[:len(keys)]
	// The group holds one engine, handed from partition to partition
	// through the warm cache: a grown engine arena is the largest
	// per-partition state, and pinning one per partition raised a cold
	// sweep's peak RSS by about two-thirds.
	var cur *cellEnv
	var in kernels.Input
	for j, st := range walk {
		s, env := specs[st.cell], &envs[st.part]
		if env != cur {
			if cur != nil {
				engines.put(cur.eng)
				cur.eng = nil
			}
			if env.k == nil {
				*env = newCellEnv(s)
			} else {
				env.eng = engines.get()
			}
			cur = env
		}
		if j == 0 || st.input != walk[j-1].input {
			in = prepareInput(env.k, s.Seed, s.Scale)
		}
		res, reuse, err := runCell(ctx, s, env, in)
		if err != nil {
			if reuse {
				engines.put(env.eng)
			}
			return fmt.Errorf("core: batch cell %d (%s/%s/%s): %w",
				st.cell, s.Kernel, s.System, s.Variant, err)
		}
		results[st.cell] = res
	}
	engines.put(cur.eng)
	return nil
}
