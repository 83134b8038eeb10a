package jobs_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/wsrt"
)

// TestSubmitBatchGang: fresh members of a one-kernel batch execute through
// one batch runner invocation (the gang), not one executor round-trip per
// cell, and every member completes with its own spec's result bytes.
func TestSubmitBatchGang(t *testing.T) {
	var batchCalls, cellsSeen atomic.Int64
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			t.Error("per-cell runner invoked; gang must use the batch runner")
			return fakeResult(spec), nil
		},
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			batchCalls.Add(1)
			cellsSeen.Add(int64(len(specs)))
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	specs := []core.Spec{testSpec(1), testSpec(2), testSpec(3)}
	batch, err := ex.SubmitBatch(specs, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("SubmitBatch returned %d jobs for %d specs", len(batch), len(specs))
	}
	for i, job := range batch {
		snap := waitDone(t, ex, job.ID)
		if snap.State != jobs.StateDone {
			t.Fatalf("member %d state = %s, err = %v", i, snap.State, snap.Err)
		}
		if len(snap.Data) == 0 {
			t.Fatalf("member %d completed without result bytes", i)
		}
	}
	if got := batchCalls.Load(); got != 1 {
		t.Errorf("batch runner invoked %d times for one gang, want 1", got)
	}
	if got := cellsSeen.Load(); got != int64(len(specs)) {
		t.Errorf("batch runner saw %d cells, want %d", got, len(specs))
	}
}

// TestSubmitBatchCacheHit: a member whose result is already cached resolves
// from the cache and stays out of the gang — the batch runner sees only the
// fresh cells.
func TestSubmitBatchCacheHit(t *testing.T) {
	var gangCells atomic.Int64
	cache, _ := jobs.NewCache(16, "")
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Cache:   cache,
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			gangCells.Add(int64(len(specs)))
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	// Prime the cache with spec 1 via a single-member batch.
	warm, err := ex.SubmitBatch([]core.Spec{testSpec(1)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ex, warm[0].ID)

	batch, err := ex.SubmitBatch([]core.Spec{testSpec(1), testSpec(2)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hit := waitDone(t, ex, batch[0].ID)
	if !hit.CacheHit {
		t.Error("cached member not served from cache")
	}
	fresh := waitDone(t, ex, batch[1].ID)
	if fresh.State != jobs.StateDone {
		t.Fatalf("fresh member state = %s, err = %v", fresh.State, fresh.Err)
	}
	if got := gangCells.Load(); got != 2 { // 1 warm + 1 fresh; the hit never re-runs
		t.Errorf("batch runner saw %d cells total, want 2 (cache hit must not re-run)", got)
	}
}

// TestSubmitBatchAtomicRejection: if a later cell is rejected at admission,
// the whole batch fails and earlier fresh members are canceled — a batch
// starts fully formed or not at all.
func TestSubmitBatchAtomicRejection(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		QueueDepth: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	defer close(release)

	// Occupy the worker so queued members stay queued.
	blocker, err := ex.Submit(testSpec(99), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Three fresh cells against a depth-2 queue: cell 2 must reject, and
	// the earlier members must come back canceled rather than linger.
	batch, err := ex.SubmitBatch(
		[]core.Spec{testSpec(1), testSpec(2), testSpec(3)}, jobs.SubmitOptions{})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if batch != nil {
		t.Fatal("failed SubmitBatch returned jobs")
	}
	m := ex.Metrics()
	if m.Canceled != 2 {
		t.Errorf("canceled = %d after atomic batch rejection, want 2", m.Canceled)
	}
	_ = blocker
}

// TestSubmitBatchMemberCancel: canceling a queued gang member skips that
// cell; the rest of the gang still runs.
func TestSubmitBatchMemberCancel(t *testing.T) {
	var cells atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			cells.Add(int64(len(specs)))
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	blocker, err := ex.Submit(testSpec(99), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is pinned; the gang stays queued

	batch, err := ex.SubmitBatch([]core.Spec{testSpec(1), testSpec(2)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Cancel(batch[0].ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitDone(t, ex, blocker.ID)

	snap := waitDone(t, ex, batch[1].ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("surviving member state = %s, err = %v", snap.State, snap.Err)
	}
	if got := cells.Load(); got != 1 {
		t.Errorf("batch runner saw %d cells, want 1 (canceled member must be skipped)", got)
	}
	canceled := waitDone(t, ex, batch[0].ID)
	if canceled.State != jobs.StateCanceled {
		t.Errorf("canceled member state = %s, want canceled", canceled.State)
	}
}

// TestGangProgressJournaled runs a real batch that spans two kernels, with
// a journal and a stride small enough that each gang's progress hook
// journals while its cells run.
func TestGangProgressJournaled(t *testing.T) {
	journal, _ := openJournal(t, t.TempDir(), 1<<20)
	defer journal.Close()
	ex := jobs.NewExecutor(jobs.Config{Workers: 1, Journal: journal, ProgressEvents: 64})
	defer ex.Close()

	var specs []core.Spec
	// Both kernels run past the 4096 events at which the simulator first
	// reports progress after the start of a cell.
	for _, k := range []string{"heat", "ksack"} {
		for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM} {
			specs = append(specs, core.Spec{Kernel: k, System: core.Sys4B4L, Variant: v, Seed: 3, Scale: 1})
		}
	}
	batch, err := ex.SubmitBatch(specs, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range batch {
		if snap := waitDone(t, ex, job.ID); snap.State != jobs.StateDone {
			t.Fatalf("member %d (%s) state = %s, err = %v", i, specs[i].Kernel, snap.State, snap.Err)
		}
	}
	// Each member journals submit, start and done; anything beyond that is
	// progress.
	if m := journal.Metrics(); m.Records <= uint64(3*len(specs)) {
		t.Errorf("journal holds %d records for %d members, want progress records too", m.Records, len(specs))
	}
}

// kernelSpec is testSpec for another kernel.
func kernelSpec(kernel string, seed uint64) core.Spec {
	s := testSpec(seed)
	s.Kernel = kernel
	return s
}

// TestSubmitBatchGangPerKernel: a batch's fresh cells are dispatched as one
// gang per kernel, in first-appearance order, so every batch-runner call is
// a one-kernel batch; the queue depth counts the queued cells, not the gang
// entries.
func TestSubmitBatchGangPerKernel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var (
		mu    sync.Mutex
		calls [][]string
	)
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			close(started)
			<-release
			return fakeResult(spec), nil
		},
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			var kernels []string
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				kernels = append(kernels, spec.Kernel)
				results[i] = fakeResult(spec)
			}
			mu.Lock()
			calls = append(calls, kernels)
			mu.Unlock()
			return results, nil
		},
	})
	defer ex.Close()

	// Pin the only worker so the gangs stay queued.
	if _, err := ex.Submit(testSpec(99), jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started
	specs := []core.Spec{
		kernelSpec("cilksort", 1), kernelSpec("heat", 1), kernelSpec("cilksort", 2),
		kernelSpec("ksack", 1), kernelSpec("heat", 2),
	}
	batch, err := ex.SubmitBatch(specs, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Metrics().QueueDepth; got != len(specs) {
		t.Errorf("queue depth = %d with %d cells queued in three gangs", got, len(specs))
	}
	close(release)
	for i, job := range batch {
		if snap := waitDone(t, ex, job.ID); snap.State != jobs.StateDone {
			t.Fatalf("member %d state = %s, err = %v", i, snap.State, snap.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][]string{{"cilksort", "cilksort"}, {"heat", "heat"}, {"ksack"}}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("batch runner calls = %v, want %v", calls, want)
	}
}

// TestSweepGangsHoldToSlots: a sweep batch spanning several kernels runs no
// more gangs at once than the sweep class has slots, so interactive jobs
// keep the other workers, and gangs held for a slot leave no stale queue
// accounting behind once they run.
func TestSweepGangsHoldToSlots(t *testing.T) {
	release := make(chan struct{})
	gangStarted := make(chan struct{}, 8)
	var (
		mu                sync.Mutex
		running, maxGangs int
	)
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 3,
		Admission: jobs.AdmissionConfig{
			SweepSlots:     1,
			PerTenantDepth: 4,
		},
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			return fakeResult(spec), nil
		},
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			mu.Lock()
			running++
			maxGangs = max(maxGangs, running)
			mu.Unlock()
			gangStarted <- struct{}{}
			<-release
			mu.Lock()
			running--
			mu.Unlock()
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	sweep := jobs.SubmitOptions{Class: jobs.ClassSweep, Tenant: "t"}
	batch, err := ex.SubmitBatch([]core.Spec{
		kernelSpec("cilksort", 1), kernelSpec("heat", 1), kernelSpec("ksack", 1),
	}, sweep)
	if err != nil {
		t.Fatal(err)
	}
	<-gangStarted
	// Interactive work goes through while the sweep slot is taken.
	job, err := ex.Submit(testSpec(999), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ex, job.ID); snap.State != jobs.StateDone {
		t.Fatalf("interactive job: %s (%v)", snap.State, snap.Err)
	}
	close(release)
	for _, job := range batch {
		if snap := waitDone(t, ex, job.ID); snap.State != jobs.StateDone {
			t.Fatalf("sweep member %s: %s (%v)", job.ID, snap.State, snap.Err)
		}
	}
	mu.Lock()
	if maxGangs != 1 {
		t.Errorf("%d sweep gangs ran at once on one sweep slot", maxGangs)
	}
	mu.Unlock()
	// Two of the three gangs were held for the slot and re-queued; the
	// tenant's full queue share must be free again.
	if _, err := ex.SubmitBatch([]core.Spec{
		kernelSpec("cilksort", 2), kernelSpec("cilksort", 3),
		kernelSpec("cilksort", 4), kernelSpec("cilksort", 5),
	}, sweep); err != nil {
		t.Fatalf("tenant share not released after held gangs ran: %v", err)
	}
}
