package main

import (
	"strings"
	"testing"
	"time"
)

func TestOpenLoopLatency(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(3 * time.Millisecond) // the generator ran 3 ms late
	// A hit answered 2 ms after it was sent took 5 ms from its due time.
	if got := openLoopLatency(due, sent, sent.Add(2*time.Millisecond), 0); got != 5 {
		t.Errorf("hit latency = %g ms, want 5", got)
	}
	// A queued job the server finished 7.5 ms after submission took the
	// send delay plus that, however long the watcher took to ask.
	if got := openLoopLatency(due, sent, time.Time{}, 7.5); got != 10.5 {
		t.Errorf("queued latency = %g ms, want 10.5", got)
	}
	// A job sent on time is not late.
	if got := openLoopLatency(due, due, due.Add(time.Millisecond), 0); got != 1 {
		t.Errorf("on-time hit latency = %g ms, want 1", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `aaws_job_queue_seconds_bucket{le="0.001"} 3
aaws_job_queue_seconds_sum 0.25
aaws_job_queue_seconds_count 10
aaws_tenant_submitted_total{tenant="a"} 4
aaws_jobs_submitted_total 12
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m["aaws_job_queue_seconds_sum"] != 0.25 || m["aaws_jobs_submitted_total"] != 12 {
		t.Errorf("parsed %v", m)
	}
	r := newRun("serve-mixed", 1, 0, false)
	after := map[string]float64{"aaws_job_queue_seconds_sum": 0.45, "aaws_job_queue_seconds_count": 20,
		"aaws_jobs_submitted_total": 22, "aaws_cache_hits_total": 5}
	r.jobsLayer(nil, nil, nil, m, after)
	if got := r.layer["jobs.queue_wait_ms_mean"]; got < 19.999 || got > 20.001 {
		t.Errorf("queue wait = %g ms, want 20 (0.2 s over 10 jobs)", got)
	}
	if got := r.layer["jobs.cache_hit_ratio"]; got != 0.5 {
		t.Errorf("cache hit ratio = %g, want 0.5", got)
	}
}
