package jobs_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// TestRateLimiterBucket exercises refill, burst capping, and the wait hint.
func TestRateLimiterBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := jobs.NewRateLimiterClock(2, 3, clk.now) // 2/sec, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("c1"); !ok {
			t.Fatalf("burst submission %d rejected", i)
		}
	}
	ok, wait := l.Allow("c1")
	if ok {
		t.Fatal("submission past the burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait hint %s, want (0, 500ms]~", wait)
	}
	// A different client has its own bucket.
	if ok, _ := l.Allow("c2"); !ok {
		t.Fatal("independent client rejected")
	}
	// Half a second refills one token at 2/sec.
	clk.advance(500 * time.Millisecond)
	if ok, _ := l.Allow("c1"); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, _ := l.Allow("c1"); ok {
		t.Fatal("second token appeared from a single refill")
	}
	s := l.Stats()
	if s.Limited != 2 || s.Clients != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestRateLimiterBoundsClients floods the limiter with unique client keys:
// the bucket map must stay bounded (idle buckets evicted), so spoofed
// identities cannot grow memory without limit.
func TestRateLimiterBoundsClients(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := jobs.NewRateLimiterClock(1000, 1, clk.now)
	for i := 0; i < 10000; i++ {
		clk.advance(time.Millisecond) // keep earlier buckets refilled (idle)
		l.Allow(fmt.Sprintf("spoof-%d", i))
	}
	if s := l.Stats(); s.Clients > 8192 {
		t.Fatalf("bucket map grew past the bound: %d clients", s.Clients)
	}
}

// TestRateLimiterUnlimited checks that rate <= 0 disables limiting.
func TestRateLimiterUnlimited(t *testing.T) {
	l := jobs.NewRateLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("x"); !ok {
			t.Fatal("unlimited limiter rejected a call")
		}
	}
	var nilL *jobs.RateLimiter
	if ok, _ := nilL.Allow("x"); !ok {
		t.Fatal("nil limiter rejected a call")
	}
}

// blockingExecutor builds an executor whose runner holds every job until
// release is closed, with the given admission config.
func blockingExecutor(t *testing.T, cfg jobs.Config) (*jobs.Executor, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	cfg.Runner = func(ctx context.Context, spec core.Spec) (core.Result, error) {
		select {
		case <-release:
			return fakeResult(spec), nil
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	ex := jobs.NewExecutor(cfg)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ex.Close()
	})
	return ex, release
}

// TestPerPriorityDepth fills one priority level to its cap: the next
// submission at that level is rejected while other levels still admit.
func TestPerPriorityDepth(t *testing.T) {
	ex, _ := blockingExecutor(t, jobs.Config{
		Workers:    1,
		QueueDepth: 100,
		Admission:  jobs.AdmissionConfig{PerPriorityDepth: 2},
	})
	// First job occupies the worker; the queue is empty again.
	if _, err := ex.Submit(testSpec(1), jobs.SubmitOptions{Priority: 5}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, ex, 1)
	for i := uint64(2); i <= 3; i++ {
		if _, err := ex.Submit(testSpec(i), jobs.SubmitOptions{Priority: 5}); err != nil {
			t.Fatalf("queued job %d: %v", i, err)
		}
	}
	_, err := ex.Submit(testSpec(4), jobs.SubmitOptions{Priority: 5})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("priority level over cap admitted: %v", err)
	}
	if ra, ok := jobs.RetryAfterOf(err); !ok || ra <= 0 {
		t.Fatalf("per-priority rejection carries no retry hint: %v", err)
	}
	// Another priority level is unaffected.
	if _, err := ex.Submit(testSpec(5), jobs.SubmitOptions{Priority: 6}); err != nil {
		t.Fatalf("other priority level rejected: %v", err)
	}
}

// waitRunning blocks until the executor reports n running jobs.
func waitRunning(t *testing.T, ex *jobs.Executor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ex.Metrics().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running jobs (%d)", n, ex.Metrics().Running)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueDeadlineShedding makes queue waits long and deadlines short: once
// the executor has latency data, doomed submissions must be shed with
// ErrOverloaded and a Retry-After hint instead of queued.
func TestQueueDeadlineShedding(t *testing.T) {
	slow := 50 * time.Millisecond
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		QueueDepth: 100,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			time.Sleep(slow)
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	// Seed the latency EWMA with one completed job.
	job, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ex, job.ID)
	if m := ex.Metrics(); m.AvgRunMs <= 0 {
		t.Fatalf("EWMA not seeded: %+v", m)
	}
	// Pile up enough queued work that the estimated wait dwarfs a 1ms
	// deadline. Jobs without deadlines are untouched.
	for i := uint64(2); i < 12; i++ {
		if _, err := ex.Submit(testSpec(i), jobs.SubmitOptions{}); err != nil {
			t.Fatalf("backlog job: %v", err)
		}
	}
	_, err = ex.Submit(testSpec(100), jobs.SubmitOptions{Timeout: time.Millisecond})
	if !errors.Is(err, jobs.ErrOverloaded) {
		t.Fatalf("doomed submission admitted: %v", err)
	}
	ra, ok := jobs.RetryAfterOf(err)
	if !ok || ra <= 0 {
		t.Fatalf("shed rejection carries no retry hint: %v", err)
	}
	if m := ex.Metrics(); m.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", m.Shed)
	}
}

// TestMaxWaitSheds covers the deadline-free variant: AdmissionConfig.MaxWait
// sheds even jobs that carry no timeout of their own.
func TestMaxWaitSheds(t *testing.T) {
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		QueueDepth: 100,
		Admission:  jobs.AdmissionConfig{MaxWait: time.Millisecond},
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			time.Sleep(30 * time.Millisecond)
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	job, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ex, job.ID)
	for i := uint64(2); i < 10; i++ {
		_, err = ex.Submit(testSpec(i), jobs.SubmitOptions{})
		if errors.Is(err, jobs.ErrOverloaded) {
			return // shed kicked in once the queue built up
		}
		if err != nil {
			t.Fatalf("unexpected rejection: %v", err)
		}
	}
	t.Fatal("MaxWait never shed despite 1ms ceiling and 30ms jobs")
}

// TestSweepClassConcurrencyLimit floods a 4-worker pool with sweep-class
// jobs capped at 2 slots: sweep concurrency must never exceed the cap, and
// an interactive job submitted mid-flood must start promptly on a free
// worker.
func TestSweepClassConcurrencyLimit(t *testing.T) {
	var mu sync.Mutex
	running, maxRunning := 0, 0 // sweep-class occupancy observed by the runner
	interactiveStarted := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    4,
		QueueDepth: 100,
		Admission:  jobs.AdmissionConfig{SweepSlots: 2},
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			if spec.Seed == 999 { // the interactive probe
				interactiveStarted <- struct{}{}
				return fakeResult(spec), nil
			}
			mu.Lock()
			running++
			if running > maxRunning {
				maxRunning = running
			}
			mu.Unlock()
			<-release
			mu.Lock()
			running--
			mu.Unlock()
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	var ids []string
	for i := uint64(1); i <= 8; i++ {
		job, err := ex.Submit(testSpec(i), jobs.SubmitOptions{Class: jobs.ClassSweep})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	// Give the pool time to (incorrectly) oversubscribe if it were going to.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := ex.Metrics()
		if m.SweepRunning == 2 && m.SweepDeferred+m.QueueDepth == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep occupancy never settled: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	// Interactive work must cut through while both sweep slots are busy.
	if _, err := ex.Submit(testSpec(999), jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-interactiveStarted:
	case <-time.After(2 * time.Second):
		t.Fatal("interactive job starved behind sweep flood")
	}

	close(release)
	for _, id := range ids {
		if snap := waitDone(t, ex, id); snap.State != jobs.StateDone {
			t.Fatalf("sweep job %s: %s (%v)", id, snap.State, snap.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if maxRunning > 2 {
		t.Fatalf("sweep concurrency hit %d, cap is 2", maxRunning)
	}
}

// TestRetryBackoffDeterministic verifies the executor retries transient
// failures with growing (but bounded, jittered) waits and that the total
// latency reflects actual backoff rather than hot-looping.
func TestRetryBackoffDeterministic(t *testing.T) {
	var attempts int
	var mu sync.Mutex
	var stamps []time.Time
	ex := jobs.NewExecutor(jobs.Config{
		Workers:        1,
		MaxRetries:     2,
		RetryBaseDelay: 20 * time.Millisecond,
		RetryMaxDelay:  100 * time.Millisecond,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			mu.Lock()
			attempts++
			stamps = append(stamps, time.Now())
			n := attempts
			mu.Unlock()
			if n < 3 {
				return core.Result{}, fmt.Errorf("flaky substrate: %w", jobs.ErrTransient)
			}
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	job, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex, job.ID)
	if snap.State != jobs.StateDone || snap.Attempts != 3 {
		t.Fatalf("state %s, attempts %d", snap.State, snap.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	// Jitter keeps delays in [0.5, 1.0)× the nominal 20ms/40ms steps.
	gap1, gap2 := stamps[1].Sub(stamps[0]), stamps[2].Sub(stamps[1])
	if gap1 < 10*time.Millisecond {
		t.Fatalf("first retry fired after %s, want >= 10ms", gap1)
	}
	if gap2 < 20*time.Millisecond {
		t.Fatalf("second retry fired after %s, want >= 20ms", gap2)
	}
	if m := ex.Metrics(); m.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries)
	}
}

// TestCancelDuringFailingAttempt cancels a job whose running attempt then
// fails for a reason of its own: the cancel must still resolve the job as
// canceled, not failed.
func TestCancelDuringFailingAttempt(t *testing.T) {
	running := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			close(running)
			<-ctx.Done()
			return core.Result{}, errors.New("attempt failed on its own")
		},
	})
	defer ex.Close()
	job, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if _, err := ex.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ex, job.ID); snap.State != jobs.StateCanceled {
		t.Fatalf("state %s (err %v), want canceled", snap.State, snap.Err)
	}
}

// TestRetryBackoffHonorsCancellation cancels a job while it waits out a
// retry backoff: the wait must abort promptly instead of sleeping it out.
func TestRetryBackoffHonorsCancellation(t *testing.T) {
	ran := make(chan struct{}, 8)
	ex := jobs.NewExecutor(jobs.Config{
		Workers:        1,
		MaxRetries:     5,
		RetryBaseDelay: 10 * time.Second, // far longer than the test
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			ran <- struct{}{}
			return core.Result{}, fmt.Errorf("flaky: %w", jobs.ErrTransient)
		},
	})
	defer ex.Close()
	job, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-ran // first attempt failed; the worker is now in backoff
	start := time.Now()
	if _, err := ex.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex, job.ID)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %s to cut the backoff", elapsed)
	}
	if snap.State != jobs.StateCanceled {
		t.Fatalf("state %s, want canceled", snap.State)
	}
}
