package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

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

// runGroup runs one kernel group's partitions in order, writing each cell's
// result at its input index. A panic that escapes a cell is returned as the
// group's error, so a worker goroutine never takes the process down.
func runGroup(ctx context.Context, specs []Spec, order map[partitionKey][]int, keys []partitionKey, results []Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: batch group %s panicked: %v\n%s", keys[0].kernel, r, debug.Stack())
		}
	}()
	for _, k := range keys {
		cells := order[k]
		// Pin one environment for the whole partition: LUT resolved once,
		// one warm engine, one tracker reset per cell.
		env := newCellEnv(specs[cells[0]])
		for _, i := range cells {
			res, reuse, err := runCell(ctx, specs[i], &env)
			if err != nil {
				if reuse {
					engines.put(env.eng)
				}
				s := specs[i]
				return fmt.Errorf("core: batch cell %d (%s/%s/%s): %w",
					i, s.Kernel, s.System, s.Variant, err)
			}
			results[i] = res
		}
		engines.put(env.eng)
	}
	return nil
}
