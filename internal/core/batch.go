package core

import (
	"context"
	"fmt"

	"aaws/internal/model"
)

// This file implements the batch execution path: RunBatch partitions a
// sweep shard by machine/LUT/model signature and runs each partition on a
// single pinned engine with the lookup table resolved once, instead of
// paying an engine-cache round-trip and a LUT lookup for every cell.
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
// Table III row. The LUT mode is derived from the variant — base and psm
// variants use different tables — so variants appear in the key only
// through that projection, and the common sweep shape (one kernel, five
// variants) collapses to at most two partitions per kernel.
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
// a partition (they share one engine) and partitions run sequentially in
// first-appearance order; concurrency across batches is the caller's job
// (the jobs executor runs batches on its worker pool). Cancellation aborts
// the current cell and returns its error.
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
	// partitions and input order of cells within each.
	order := make(map[partitionKey][]int)
	var keys []partitionKey
	for i := range specs {
		k := partitionKeyOf(specs[i])
		if _, seen := order[k]; !seen {
			keys = append(keys, k)
		}
		order[k] = append(order[k], i)
	}

	results := make([]Result, len(specs))
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
				return nil, fmt.Errorf("core: batch cell %d (%s/%s/%s): %w",
					i, s.Kernel, s.System, s.Variant, err)
			}
			results[i] = res
		}
		engines.put(env.eng)
	}
	return results, nil
}
