package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"aaws/internal/jobs"
)

// HTTPOptions tunes the coordinator's HTTP API.
type HTTPOptions struct {
	// MaxBodyBytes caps POST/PUT bodies (default 1 MiB for submissions;
	// cache fills get maxFrameBytes).
	MaxBodyBytes int64
}

// HTTPServer exposes the coordinator over the same API subset aaws-serve
// speaks — POST /v1/jobs, GET /v1/jobs/{id}, POST /v1/sweeps, /metrics,
// /healthz, /readyz — so existing clients (aaws-loadgen included) point at a
// fabric unchanged. It adds the worker-facing shared-cache endpoints
// (GET/PUT /v1/cache/{hash}) and a fleet view (GET /v1/workers).
type HTTPServer struct {
	coord *Coordinator
	mux   *http.ServeMux
	opts  HTTPOptions
	// phase, when non-empty, marks the coordinator not yet serving
	// (journal-replay during recovery): /readyz reports it degraded and
	// submissions get 503 + Retry-After, same tri-state contract as
	// aaws-serve.
	phase atomic.Value // string
}

// NewHTTP wraps the coordinator in its HTTP API.
func NewHTTP(c *Coordinator, opts HTTPOptions) *HTTPServer {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	s := &HTTPServer{coord: c, mux: http.NewServeMux(), opts: opts}
	s.phase.Store("")
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getTask)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.getReport)
	s.mux.HandleFunc("POST /v1/sweeps", s.submitSweep)
	s.mux.HandleFunc("GET /v1/cache/{hash}", s.cacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{hash}", s.cachePut)
	s.mux.HandleFunc("GET /v1/workers", s.workers)
	s.mux.HandleFunc("GET /v1/journal", s.journal)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

// SetPhase marks (non-empty) or clears ("") a degraded startup phase.
// aaws-coord sets "journal-replay" around Recover so load balancers and
// retrying clients hold off until the replayed backlog is re-dispatched.
func (s *HTTPServer) SetPhase(phase string) { s.phase.Store(phase) }

// rejectDuringPhase answers submissions arriving mid-recovery with 503 +
// Retry-After (replay is seconds, not minutes — 1s is the right poll).
func (s *HTTPServer) rejectDuringPhase(w http.ResponseWriter) bool {
	phase, _ := s.phase.Load().(string)
	if phase == "" {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":         fmt.Sprintf("coordinator is not ready: %s", phase),
		"retry_after_s": 1,
	})
	return true
}

// ServeHTTP implements http.Handler.
func (s *HTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON encodes v without HTML escaping, so an inline canonical report
// keeps its exact bytes (region labels such as "BI<LA" would otherwise come
// back as "BI\u003cLA").
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *HTTPServer) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		}
		return false
	}
	return true
}

// taskStatus mirrors the jobs API's status JSON so pollers work unchanged;
// cache_hit reports a shared-tier (remote) hit and worker names the node
// that committed the shard.
func taskStatus(snap TaskSnapshot) map[string]any {
	st := map[string]any{
		"id":        snap.ID,
		"spec_hash": snap.SpecHash,
		"state":     snap.State.String(),
		"kernel":    snap.Spec.Kernel,
		"system":    snap.Spec.System.String(),
		"variant":   snap.Spec.Variant.String(),
		"seed":      snap.Spec.Seed,
		"cache_hit": snap.RemoteHit,
	}
	if snap.Worker != "" {
		st["worker"] = snap.Worker
	}
	if snap.Err != nil {
		st["error"] = snap.Err.Error()
	}
	if !snap.Finished.IsZero() {
		st["elapsed_ms"] = float64(snap.Finished.Sub(snap.Submitted)) / float64(time.Millisecond)
	}
	if snap.State == jobs.StateDone {
		st["result_hash"] = jobs.ResultHash(snap.Data)
		st["report"] = json.RawMessage(snap.Data)
	}
	return st
}

func (s *HTTPServer) submitJob(w http.ResponseWriter, r *http.Request) {
	if s.rejectDuringPhase(w) {
		return
	}
	var req jobs.JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec, err := req.ToSpec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.coord.Submit(spec)
	if err != nil {
		s.submitError(w, err)
		return
	}
	snap, err := s.coord.Get(t.ID)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	code := http.StatusAccepted
	if snap.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, taskStatus(snap))
}

func (s *HTTPServer) submitSweep(w http.ResponseWriter, r *http.Request) {
	if s.rejectDuringPhase(w) {
		return
	}
	var req jobs.SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	specs, err := req.Specs()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var resp jobs.SweepResponse
	for _, spec := range specs {
		t, err := s.coord.Submit(spec)
		if err != nil {
			s.submitError(w, fmt.Errorf("submitting %s/%s/%s: %w",
				spec.Kernel, spec.System, spec.Variant, err))
			return
		}
		resp.IDs = append(resp.IDs, t.ID)
	}
	resp.Count = len(resp.IDs)
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *HTTPServer) submitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrClosed) {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

func (s *HTTPServer) getTask(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	if q.Get("wait") != "" || q.Get("wait_ms") != "" {
		ctx := r.Context()
		if ms, err := strconv.Atoi(q.Get("wait_ms")); err == nil && ms > 0 {
			var cancel func()
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
		snap, err := s.coord.Wait(ctx, id)
		switch {
		case errors.Is(err, ErrUnknownTask):
			httpError(w, http.StatusNotFound, err)
			return
		case err != nil:
			snap, err = s.coord.Get(id)
			if err != nil {
				httpError(w, http.StatusNotFound, err)
				return
			}
		}
		writeJSON(w, http.StatusOK, taskStatus(snap))
		return
	}
	snap, err := s.coord.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, taskStatus(snap))
}

func (s *HTTPServer) getReport(w http.ResponseWriter, r *http.Request) {
	snap, err := s.coord.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if snap.State != jobs.StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("task is %s, report not available", snap.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", `"`+jobs.ResultHash(snap.Data)+`"`)
	_, _ = w.Write(snap.Data)
}

func (s *HTTPServer) cacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	data, ok := s.coord.CacheGet(hash)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", hash))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *HTTPServer) cachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	// Epoch fence on the HTTP path: a fill stamped by a superseded worker
	// registration (zombie behind a healed partition) is rejected, matching
	// the wire protocol's frame fence. Unstamped fills stay accepted — the
	// content validation below already guarantees they can't poison the
	// tier — so plain curl and pre-fence workers keep working.
	if name := r.Header.Get("X-AAWS-Worker"); name != "" {
		if es := r.Header.Get("X-AAWS-Worker-Epoch"); es != "" {
			epoch, err := strconv.ParseUint(es, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad X-AAWS-Worker-Epoch: %w", err))
				return
			}
			if current, ok := s.coord.WorkerEpoch(name); ok && epoch < current {
				s.coord.inst.staleCacheFills.Inc()
				httpError(w, http.StatusConflict,
					fmt.Errorf("stale worker epoch %d for %s (current %d)", epoch, name, current))
				return
			}
		}
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	// The key is the content address of the *spec*, not the bytes, so the
	// fill must prove it is well-formed canonical outcome data for that
	// spec: decode and check the embedded SpecHash. A corrupted or
	// mismatched fill would otherwise poison every node.
	out, err := jobs.DecodeOutcome(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cache fill is not a canonical outcome: %w", err))
		return
	}
	if out.SpecHash != hash {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("cache fill spec hash %s does not match key %s", out.SpecHash, hash))
		return
	}
	s.coord.CachePut(hash, data)
	w.WriteHeader(http.StatusNoContent)
}

func (s *HTTPServer) workers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.coord.Workers()})
}

// journal exposes the sweep journal's health snapshot (segment count, open
// jobs, replayed/compacted totals) — the ops view for "is the WAL growing,
// did recovery drain". 404 when the coordinator runs memory-only.
func (s *HTTPServer) journal(w http.ResponseWriter, r *http.Request) {
	m, ok := s.coord.JournalMetrics()
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("coordinator has no journal (memory-only)"))
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *HTTPServer) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.coord.Registry().Render(w)
}

func (s *HTTPServer) healthz(w http.ResponseWriter, r *http.Request) {
	s.coord.mu.Lock()
	closed := s.coord.closed
	s.coord.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz reports degraded through startup phases — journal-replay during
// recovery, then until at least one worker has registered (a coordinator
// with no fleet accepts work it cannot run).
func (s *HTTPServer) readyz(w http.ResponseWriter, r *http.Request) {
	if phase, _ := s.phase.Load().(string); phase != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": phase,
		})
		return
	}
	if n := s.coord.WorkerCount(); n == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": "no workers registered",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
