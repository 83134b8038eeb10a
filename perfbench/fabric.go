package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
)

// fleetNodes is the number of fabric workers; each runs one simulation
// thread, so the fleet uses both host threads.
const fleetNodes = 2

// fleet is an in-process fabric on loopback: a coordinator with its HTTP
// front and fleetNodes workers, each with a one-worker executor and a local
// cache tiered over the coordinator's shared cache.
type fleet struct {
	coord  *fabric.Coordinator
	srv    *http.Server
	base   string
	cancel context.CancelFunc
	wg     sync.WaitGroup
	exs    []*jobs.Executor
}

func startFleet() (*fleet, error) {
	// Retaining the last 2048 finished tasks (not the default 16384) lets
	// the coordinator's memory reach its steady state within a run, so
	// peak_rss_mb does not grow with the number of sweeps a run completes.
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{MaxTasks: 2048})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{coord: coord, cancel: cancel}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = coord.Serve(fln)
	}()
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = &http.Server{Handler: fabric.NewHTTP(coord, fabric.HTTPOptions{})}
	f.base = "http://" + hln.Addr().String()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.srv.Serve(hln)
	}()
	for i := 0; i < fleetNodes; i++ {
		local, err := jobs.NewCache(1024, "")
		if err != nil {
			f.close()
			return nil, err
		}
		ex := jobs.NewExecutor(jobs.Config{
			Workers: 1,
			Cache:   jobs.NewTieredCache(local, fabric.NewRemoteCache(f.base)),
		})
		f.exs = append(f.exs, ex)
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name: "node-" + strconv.Itoa(i), CoordAddr: fln.Addr().String(), Executor: ex,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx)
		}()
		select {
		case <-w.Ready():
		case <-time.After(10 * time.Second):
			f.close()
			return nil, fmt.Errorf("fabric worker node-%d never registered", i)
		}
	}
	return f, nil
}

func (f *fleet) close() {
	f.cancel()
	f.coord.Close()
	if f.srv != nil {
		_ = f.srv.Close()
	}
	f.wg.Wait()
	for _, ex := range f.exs {
		ex.Close()
	}
}

// bootFabric starts the fleet and checks the reference matrix through it,
// which also warms every worker's LUT cache.
func bootFabric(r *run) (stage, error) {
	r.matrix = defaultMatrix(0)
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	c := newClient(f.base)
	defer c.close()
	cells, err := referenceCells(c)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("reference matrix: %w", err)
	}
	r.checkMatrix(cells)
	return f, nil
}

// measureFabric is one client in a closed loop: POST /v1/sweeps for the
// default matrix at a new seed, then long-poll every cell in order. Every
// cell misses every cache.
func measureFabric(r *run, stg stage) error {
	f := stg.(*fleet)
	c := newClient(f.base)
	defer c.close()
	before := f.coord.Metrics()
	nLat := len(f.coord.ShardLatencies())
	var t timed
	mark := markProc()
	prevEnd := mark.t
	for i := 0; time.Since(mark.t) < r.dur; i++ {
		seed := iterSeed(r.seed, i)
		specs := defaultMatrix(seed)
		req := "sweep-" + strconv.Itoa(i)
		r.attempt()
		t0, cpu0 := time.Now(), processCPU()
		t.late = append(t.late, ms(t0.Sub(prevEnd)))
		sp := r.rec.begin(0, "fabric.sweep", req)
		sts, err := sweep(c, seed)
		r.rec.end(sp)
		prevEnd = time.Now()
		cpu := processCPU() - cpu0
		if err == nil && len(sts) != len(specs) {
			err = fmt.Errorf("sweep returned %d cells, want %d", len(sts), len(specs))
		}
		if err != nil {
			r.fail("%s: %v", req, err)
			continue
		}
		t.op(len(sts), prevEnd.Sub(t0), cpu)
		for j, spec := range specs {
			if idx := i*len(specs) + j; r.sampled(idx) {
				r.keep(sample{idx: idx, spec: spec, hash: sts[j].ResultHash})
			}
		}
	}
	mark.since(&t)
	r.record(t)
	r.fabricLayer(f.coord.ShardLatencies()[nLat:], before, f.coord.Metrics())
	return nil
}

// fabricLayer sets the fabric's layer metrics from the coordinator's shard
// latencies and two metric snapshots taken around them.
func (r *run) fabricLayer(lats []float64, before, after fabric.Metrics) {
	msLats := make([]float64, len(lats))
	for i, s := range lats {
		msLats[i] = s * 1000
	}
	r.layer["fabric.shard_p50_ms"] = quantile(msLats, 0.5)
	r.layer["fabric.shard_p99_ms"] = quantile(msLats, 0.99)
	if d := after.Dispatched - before.Dispatched; d > 0 {
		r.layer["fabric.useful_dispatch_ratio"] = float64(after.ShardsCompleted-before.ShardsCompleted) / float64(d)
	} else {
		r.layer["fabric.useful_dispatch_ratio"] = 0
	}
	r.layer["fabric.hedges_fired_total"] = float64(after.HedgesFired - before.HedgesFired)
}

// fabricProbe measures the fabric on workloads that do not drive it: the
// specs go through a fresh fleet's POST /v1/jobs, then every task is
// awaited.
func (r *run) fabricProbe(specs []core.Spec) error {
	f, err := startFleet()
	if err != nil {
		return err
	}
	defer f.close()
	c := newClient(f.base)
	defer c.close()
	before := f.coord.Metrics()
	parent := r.rec.begin(0, "probe.fabric", "")
	ids := make([]string, len(specs))
	for i, spec := range specs {
		var js jobs.JobStatus
		if err := c.do("POST", "/v1/jobs", "", jobRequest(spec), &js); err != nil {
			return err
		}
		ids[i] = js.ID
	}
	for i, id := range ids {
		sp := r.rec.begin(parent, "fabric.wait", "probe-"+strconv.Itoa(i))
		_, err := c.wait(id)
		r.rec.end(sp)
		if err != nil {
			return err
		}
	}
	r.rec.end(parent)
	r.fabricLayer(f.coord.ShardLatencies(), before, f.coord.Metrics())
	return nil
}
