package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

// ---- an in-process aaws-serve on loopback ----

type jobServer struct {
	ex   *jobs.Executor
	srv  *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

// startJobServer boots the job service as aaws-serve does, with one
// simulation worker (the other host thread runs HTTP and the load
// generator) and a 4096-entry memory cache.
func startJobServer() (*jobServer, error) {
	cache, err := jobs.NewCache(4096, "")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ex := jobs.NewExecutor(jobs.Config{Workers: 1, Cache: cache})
	s := &jobServer{ex: ex, srv: &http.Server{Handler: jobs.NewServer(ex)},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *jobServer) close() {
	_ = s.srv.Close()
	<-s.done
	s.ex.Close()
}

// client is one HTTP connection's worth of load: the transport keeps at
// most one connection open.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send sends one request and returns the reply body, or an error for a
// non-2xx status.
func (c *client) send(method, path, tenant string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set("X-AAWS-Client", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	return buf, nil
}

// do sends one request and decodes its JSON reply into out.
func (c *client) do(method, path, tenant string, body, out any) error {
	buf, err := c.send(method, path, tenant, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// wait long-polls a job until it is terminal and returns its status; the
// job must have finished done.
func (c *client) wait(id string) (jobs.JobStatus, error) {
	var st jobs.JobStatus
	if err := c.do("GET", "/v1/jobs/"+id+"?wait=1", "", nil, &st); err != nil {
		return st, err
	}
	if st.State != "done" {
		return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// report fetches a finished job's canonical result bytes. The fabric's
// status JSON escapes '<' and '>' inside the inline report, so only this
// endpoint returns the bytes exactly as stored.
func (c *client) report(id string) ([]byte, error) {
	return c.send("GET", "/v1/jobs/"+id+"/report", "", nil)
}

// metrics scrapes /metrics into its unlabelled series.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text lines "name value", skipping labelled
// series and comments.
func parseMetrics(rd io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsAny(name, "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// jobRequest is the submission body for spec.
func jobRequest(spec core.Spec) jobs.JobRequest {
	seed, check := spec.Seed, spec.Check
	return jobs.JobRequest{
		Kernel: spec.Kernel, System: spec.System.String(), Variant: spec.Variant.String(),
		Seed: &seed, Scale: spec.Scale, Check: &check, Elastic: spec.Elastic, Topology: spec.Topology,
	}
}

// sweep submits the default matrix at seed to a service's /v1/sweeps and
// long-polls every cell in order, returning the cells' final status in
// matrix order.
func sweep(c *client, seed uint64) ([]jobs.JobStatus, error) {
	var resp jobs.SweepResponse
	if err := c.do("POST", "/v1/sweeps", "", jobs.SweepRequest{Seeds: []uint64{seed}, Scale: 1}, &resp); err != nil {
		return nil, err
	}
	out := make([]jobs.JobStatus, len(resp.IDs))
	for i, id := range resp.IDs {
		st, err := c.wait(id)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// referenceCells runs the reference matrix through a service and returns
// its canonical cell bytes in matrix order.
func referenceCells(c *client) ([][]byte, error) {
	want, err := loadFingerprint()
	if err != nil {
		return nil, err
	}
	sts, err := sweep(c, want.Seed)
	if err != nil {
		return nil, err
	}
	cells := make([][]byte, len(sts))
	for i, st := range sts {
		if cells[i], err = c.report(st.ID); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// ---- serve-mixed: open-loop job traffic, half cache hits ----

const (
	serveRate = 100 // jobs per second
	hotSet    = 16  // distinct specs the hot half replays
)

type serveStage struct {
	*jobServer
	hot []jobs.JobRequest
}

// bootServe starts the service, checks the reference matrix through
// /v1/sweeps (which also fills the LUT cache for every Table III kernel),
// and runs the hot set once so its replays are cache hits.
func bootServe(r *run) (stage, error) {
	r.matrix = defaultMatrix(0)
	s, err := startJobServer()
	if err != nil {
		return nil, err
	}
	st := &serveStage{jobServer: s}
	c := newClient(s.base)
	defer c.close()
	cells, err := referenceCells(c)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("reference matrix: %w", err)
	}
	r.checkMatrix(cells)
	rng := rand.New(rand.NewSource(int64(r.seed)))
	for h := 0; h < hotSet; h++ {
		spec := randomCell(rng, iterSeed(r.seed, 1<<21+h))
		st.hot = append(st.hot, jobRequest(spec))
		var js jobs.JobStatus
		if err := c.do("POST", "/v1/jobs", "", st.hot[h], &js); err != nil {
			st.close()
			return nil, err
		}
		if _, err := c.wait(js.ID); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// randomCell is a uniform Table III kernel × variant at scale 1.0 on 4B4L,
// checked against its serial reference as aaws-serve does by default.
func randomCell(rng *rand.Rand, seed uint64) core.Spec {
	names := kernels.Names()
	return core.Spec{
		Kernel: names[rng.Intn(len(names))], System: core.Sys4B4L,
		Variant: wsrt.Variants[rng.Intn(len(wsrt.Variants))], Seed: seed, Scale: 1, Check: true,
	}
}

// jobRec is one serve-mixed job's timeline.
type jobRec struct {
	due, sent time.Time
	rtt       time.Duration // POST round trip
	lat       float64       // ms from due to result
	hit, ok   bool
}

// measureServe sends serveRate jobs per second on a fixed schedule from two
// tenants over one connection, while a second connection long-polls the
// queued ones in submission order. Latency counts from each job's due time:
// for a cache hit until the POST's reply, for a queued job the send delay
// plus the server's submit-to-done time, so the watcher's in-order waiting
// is not charged to later jobs.
func measureServe(r *run, stg stage) error {
	st := stg.(*serveStage)
	interval := time.Second / serveRate
	n := int(r.dur / interval)
	rng := rand.New(rand.NewSource(int64(r.seed) + 1))
	reqs := make([]jobs.JobRequest, n)
	specs := make([]core.Spec, n)
	for j := range reqs {
		if (j/2)%2 == 0 {
			reqs[j] = st.hot[rng.Intn(len(st.hot))]
		} else {
			reqs[j] = jobRequest(randomCell(rng, iterSeed(r.seed, j)))
		}
		spec, err := reqs[j].ToSpec()
		if err != nil {
			return err
		}
		specs[j] = spec
	}
	sub, watch := newClient(st.base), newClient(st.base)
	defer sub.close()
	defer watch.close()
	before, err := sub.metrics()
	if err != nil {
		return err
	}

	recs := make([]jobRec, n)
	var done atomic.Int64 // jobs completed so far
	type tick struct {
		at   time.Time
		cpu  time.Duration
		done int64
	}
	var ticks []tick
	// Sized for every job, so the submitter never waits on the watcher.
	pending := make(chan int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := range pending {
			sp := r.rec.begin(0, "jobs.wait", "job-"+strconv.Itoa(j))
			js, err := watch.wait(ids[j])
			r.rec.end(sp)
			if err != nil {
				r.fail("job %d: %v", j, err)
				continue
			}
			rec := &recs[j]
			rec.lat = openLoopLatency(rec.due, rec.sent, time.Time{}, js.ElapsedMs)
			rec.ok = true
			done.Add(1)
			if r.sampled(j) {
				r.keep(sample{idx: j, spec: specs[j], hash: js.ResultHash})
			}
		}
	}()

	mark := markProc()
	for j := 0; j < n; j++ {
		rec := &recs[j]
		rec.due = mark.t.Add(time.Duration(j) * interval)
		time.Sleep(time.Until(rec.due))
		if j%serveRate == 0 {
			ticks = append(ticks, tick{time.Now(), processCPU(), done.Load()})
		}
		tenant := "tenant-a"
		if j%2 == 1 {
			tenant = "tenant-b"
		}
		r.attempt()
		sp := r.rec.begin(0, "jobs.submit", "job-"+strconv.Itoa(j))
		rec.sent = time.Now()
		var js jobs.JobStatus
		err := sub.do("POST", "/v1/jobs", tenant, reqs[j], &js)
		answered := time.Now()
		r.rec.end(sp)
		rec.rtt = answered.Sub(rec.sent)
		switch {
		case err != nil:
			r.fail("job %d: %v", j, err)
		case js.State == "done":
			rec.hit, rec.ok = js.CacheHit, true
			rec.lat = openLoopLatency(rec.due, rec.sent, answered, 0)
			done.Add(1)
			if r.sampled(j) {
				r.keep(sample{idx: j, spec: specs[j], hash: js.ResultHash})
			}
		case js.State == "queued" || js.State == "running":
			ids[j] = js.ID
			pending <- j
		default:
			r.fail("job %d: submitted %s: %s", j, js.State, js.Error)
		}
	}
	close(pending)
	wg.Wait()
	ticks = append(ticks, tick{time.Now(), processCPU(), done.Load()})
	var t timed
	mark.since(&t)
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		t.win = append(t.win, window{cells: int(b.done - a.done), dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu})
	}
	after, err := sub.metrics()
	if err != nil {
		return err
	}

	var hits, misses, rtts []float64
	for _, rec := range recs {
		t.late = append(t.late, ms(rec.sent.Sub(rec.due)))
		if !rec.ok {
			continue
		}
		t.cells++
		if rec.hit {
			hits = append(hits, rec.lat)
		} else {
			misses = append(misses, rec.lat)
			rtts = append(rtts, ms(rec.rtt))
		}
	}
	t.lat = misses
	r.record(t)
	r.jobsLayer(rtts, hits, misses, before, after)
	return nil
}

// openLoopLatency is a job's latency in ms, counted from when it was due.
// A job answered at submission (answered set) takes until its answer
// arrived; a queued one takes its send delay plus the server's
// submit-to-done time, so waiting behind earlier jobs' long-polls is not
// charged to it.
func openLoopLatency(due, sent, answered time.Time, serverMs float64) float64 {
	if !answered.IsZero() {
		return ms(answered.Sub(due))
	}
	return ms(sent.Sub(due)) + serverMs
}

// jobsLayer sets the job service's layer metrics from client-side timings
// and two /metrics scrapes taken around them.
func (r *run) jobsLayer(rtts, hits, misses []float64, before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	meanMs := func(hist string) float64 {
		n := delta(hist + "_count")
		if n == 0 {
			return 0
		}
		return delta(hist+"_sum") / n * 1000
	}
	r.layer["jobs.submit_rtt_p50_ms"] = quantile(rtts, 0.5)
	r.layer["jobs.hit_p50_ms"] = quantile(hits, 0.5)
	r.layer["jobs.hit_p99_ms"] = quantile(hits, 0.99)
	r.layer["jobs.miss_p99_ms"] = quantile(misses, 0.99)
	r.layer["jobs.queue_wait_ms_mean"] = meanMs("aaws_job_queue_seconds")
	r.layer["jobs.run_ms_mean"] = meanMs("aaws_job_run_seconds")
	if n := delta("aaws_jobs_submitted_total"); n > 0 {
		r.layer["jobs.cache_hit_ratio"] = (delta("aaws_cache_hits_total") + delta("aaws_cache_coalesced_total")) / n
	} else {
		r.layer["jobs.cache_hit_ratio"] = 0
	}
}

// jobsProbe measures the job service on workloads that do not drive it:
// each spec is submitted to a fresh in-process server (a miss), awaited,
// and submitted again (a hit).
func (r *run) jobsProbe(specs []core.Spec) error {
	s, err := startJobServer()
	if err != nil {
		return err
	}
	defer s.close()
	c := newClient(s.base)
	defer c.close()
	before, err := c.metrics()
	if err != nil {
		return err
	}
	var rtts, hits, misses []float64
	for i, spec := range specs {
		req := "probe-" + strconv.Itoa(i)
		parent := r.rec.begin(0, "probe.job", req)
		body := jobRequest(spec)
		t0 := time.Now()
		sp := r.rec.begin(parent, "jobs.submit", req)
		var js jobs.JobStatus
		err := c.do("POST", "/v1/jobs", "", body, &js)
		r.rec.end(sp)
		rtts = append(rtts, ms(time.Since(t0)))
		if err == nil {
			sp = r.rec.begin(parent, "jobs.wait", req)
			_, err = c.wait(js.ID)
			r.rec.end(sp)
		}
		misses = append(misses, ms(time.Since(t0)))
		if err == nil {
			t1 := time.Now()
			sp = r.rec.begin(parent, "jobs.hit", req)
			err = c.do("POST", "/v1/jobs", "", body, &js)
			r.rec.end(sp)
			hits = append(hits, ms(time.Since(t1)))
			if err == nil && !js.CacheHit {
				err = fmt.Errorf("resubmission was not a cache hit")
			}
		}
		r.rec.end(parent)
		if err != nil {
			return err
		}
	}
	after, err := c.metrics()
	if err != nil {
		return err
	}
	r.jobsLayer(rtts, hits, misses, before, after)
	return nil
}
