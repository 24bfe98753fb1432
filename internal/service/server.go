// Package service implements the mlckptd optimization-as-a-service
// daemon: an HTTP/JSON API over the paper's decision procedure ("what
// plan should this system deploy under this technique, and what
// makespan should it expect?").
//
// The serving machinery leans on PR 2's byte-deterministic sweeps:
// because a sweep's result is a pure function of (system, technique,
// grid) — independent of worker count and scheduling — responses are
// cacheable as raw bytes and cache hits are byte-identical to the
// misses that populated them. Three layers exploit that:
//
//   - an LRU+TTL cache of marshaled responses keyed by a canonical FNV
//     digest of the resolved request (cache.go);
//   - request coalescing, so N concurrent identical requests cost
//     exactly one sweep (coalesce.go);
//   - a bounded compute pool with backpressure — queue-full answers
//     429 + Retry-After rather than oversubscribing the machine
//     (pool.go).
//
// Deadlines thread through the whole stack: a request's context cancels
// its sweep at the next chunk boundary (optimize.Space.Context), and a
// coalesced computation is only canceled when its last waiter gives up.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Optional capability interfaces probed on techniques (the same idiom
// the CLIs use for SetSweepMetrics/SetSweepSpans).
type (
	sweepGridder interface {
		SetSweepGrid(tau0Points int, countVals []int)
	}
	sweepContexter interface{ SetSweepContext(ctx context.Context) }
	sweepWorkerser interface{ SetSweepWorkers(n int) }
	sweepMetricser interface{ SetSweepMetrics(reg *obs.Registry) }
)

// Config sizes the daemon. The zero value gets sensible defaults.
type Config struct {
	// Workers is the intra-job parallelism (sweep workers, campaign
	// workers). 0 = GOMAXPROCS.
	Workers int
	// Slots is the number of jobs the pool runs concurrently (default
	// 1: each job already parallelizes across Workers).
	Slots int
	// Queue bounds jobs waiting for a slot; beyond it requests are
	// rejected with 429 (default 64).
	Queue int
	// CacheSize bounds the response cache entry count (default 1024).
	CacheSize int
	// CacheTTL bounds response age (default 15m).
	CacheTTL time.Duration
	// Timeout is the per-request compute deadline when the request
	// does not set timeout_ms (default 60s).
	Timeout time.Duration
	// MaxTrials caps /v1/simulate campaign sizes (default 200000).
	MaxTrials int
	// MaxBatch caps /v1/batch fan-out (default 64).
	MaxBatch int
	// Now is the cache clock (default time.Now; injectable for TTL
	// tests).
	Now func() time.Time
	// Events, when non-nil, receives structured request/lifecycle
	// events (-log-json).
	Events *obs.EventLog
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 15 * time.Minute
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 200000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// gate tracks in-flight API requests for graceful drain: BeginDrain
// flips it closed (new requests answer 503) and Drain waits for the
// in-flight count to reach zero.
type gate struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{} // closed when draining && n == 0
}

func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

func (g *gate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.draining && g.n == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

// beginDrain returns a channel that closes once in-flight requests hit
// zero (possibly already closed).
func (g *gate) beginDrain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.draining {
		g.draining = true
		g.idle = make(chan struct{})
		if g.n == 0 {
			close(g.idle)
			idle := g.idle
			g.idle = nil
			return idle
		}
	}
	if g.idle == nil {
		done := make(chan struct{})
		close(done)
		return done
	}
	return g.idle
}

// Server is the daemon core: handlers plus the cache/coalescing/pool
// machinery. Create with New, mount Handler, stop with Drain.
type Server struct {
	cfg     Config
	pool    *pool
	cache   *cache
	flight  *flightGroup
	met     *metrics
	gate    gate
	handler http.Handler

	readyMu sync.Mutex
	ready   bool
}

// New returns a started server (its pool goroutines are running).
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg.withDefaults(),
		flight: newFlightGroup(),
		met:    newMetrics(),
		ready:  true,
	}
	s.pool = newPool(s.cfg.Slots, s.cfg.Queue)
	s.cache = newCache(s.cfg.CacheSize, s.cfg.CacheTTL, s.cfg.Now)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.route("plan", s.handlePlan))
	mux.HandleFunc("/v1/predict", s.route("predict", s.handlePredict))
	mux.HandleFunc("/v1/simulate", s.route("simulate", s.handleSimulate))
	mux.HandleFunc("/v1/batch", s.route("batch", s.handleBatch))
	mux.Handle("/", obshttp.Handler(obshttp.Options{
		Snapshot: s.telemetrySnapshot,
		Ready:    s.isReady,
	}))
	s.handler = mux
	return s
}

// Handler returns the daemon's HTTP handler: the four /v1 endpoints
// plus the full obshttp telemetry surface (/metrics, /snapshot,
// /healthz, /readyz, pprof).
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) isReady() bool {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	return s.ready
}

// telemetrySnapshot is the obshttp Snapshot source: the request-level
// families plus point-in-time gauges for queue depth and cache size.
func (s *Server) telemetrySnapshot() obs.Snapshot {
	s.met.set("svc_queue_depth", float64(s.pool.depth()))
	s.met.set("svc_cache_entries", float64(s.cache.len()))
	return s.met.snapshot()
}

// BeginDrain stops admitting /v1 requests (503 + Retry-After) and
// flips /readyz to 503 so load balancers stop routing here. In-flight
// requests keep running.
func (s *Server) BeginDrain() {
	s.readyMu.Lock()
	s.ready = false
	s.readyMu.Unlock()
	s.gate.beginDrain()
	s.cfg.Events.Event("drain_begin")
}

// Drain gracefully stops the server: no new requests, wait for
// in-flight ones (bounded by ctx), then stop the pool. Jobs whose
// waiters all left are canceled and finish fast.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.gate.beginDrain():
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	s.pool.drain()
	s.cfg.Events.Event("drain_done")
	return nil
}

// route wraps an endpoint handler with method filtering, the drain
// gate, and request metrics/logging. Handlers return the status they
// wrote.
func (s *Server) route(endpoint string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			code := writeError(w, apiErrorf(http.StatusMethodNotAllowed, "%s requires POST", endpoint))
			s.met.inc("svc_requests_total", "endpoint", endpoint, "code", strconv.Itoa(code))
			return
		}
		if !s.gate.enter() {
			s.met.inc("svc_rejected_total", "reason", "draining")
			code := writeError(w, apiErrorf(http.StatusServiceUnavailable, "server is draining"))
			s.met.inc("svc_requests_total", "endpoint", endpoint, "code", strconv.Itoa(code))
			return
		}
		defer s.gate.exit()
		start := time.Now()
		code := h(w, r)
		elapsed := time.Since(start)
		s.met.observe("svc_request_seconds", elapsed.Seconds(), "endpoint", endpoint)
		s.met.inc("svc_requests_total", "endpoint", endpoint, "code", strconv.Itoa(code))
		s.cfg.Events.Event("request",
			"endpoint", endpoint, "code", code, "elapsed_ms", elapsed.Milliseconds())
	}
}

// writeError renders the JSON error envelope and returns the status
// for metrics. Backpressure statuses carry Retry-After.
func writeError(w http.ResponseWriter, aerr *apiError) int {
	if aerr.Status == http.StatusTooManyRequests || aerr.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.Status)
	json.NewEncoder(w).Encode(errorBody{Error: aerr.Msg, Status: aerr.Status})
	return aerr.Status
}

// marshalBody renders a response deterministically (struct field order,
// canonical float formatting) with a trailing newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// requestCtx derives the compute deadline for one request: the client
// disconnect context bounded by timeout_ms or the server default.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// mapComputeErr turns computation failures into API statuses.
func mapComputeErr(err error) *apiError {
	switch {
	case errors.Is(err, errSaturated):
		return apiErrorf(http.StatusTooManyRequests, "queue saturated, retry later")
	case errors.Is(err, errDraining):
		return apiErrorf(http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return apiErrorf(http.StatusServiceUnavailable, "computation canceled: %v", err)
	case errors.Is(err, optimize.ErrNoFeasiblePlan):
		return apiErrorf(http.StatusUnprocessableEntity, "%v", err)
	default:
		return apiErrorf(http.StatusInternalServerError, "%v", err)
	}
}

// await blocks until the coalesced call completes or ctx expires.
func (s *Server) await(ctx context.Context, key string, c *call) ([]byte, *apiError) {
	select {
	case <-c.done:
	case <-ctx.Done():
		s.flight.leave(key, c)
		s.met.inc("svc_deadline_total")
		return nil, apiErrorf(http.StatusServiceUnavailable, "deadline exceeded: %v", ctx.Err())
	}
	if c.err != nil {
		return nil, mapComputeErr(c.err)
	}
	return c.body, nil
}

// cachedOrCompute is the full read path: cache lookup, then coalesced
// compute. source is "hit", "miss" (leader), or "join" (follower) for
// the X-Cache header.
func (s *Server) cachedOrCompute(ctx context.Context, key, kind string, compute func(ctx context.Context, c *call) ([]byte, error)) (body []byte, source string, aerr *apiError) {
	if b, ok, expired := s.cache.get(key); ok {
		s.met.inc("svc_cache_hits_total", "kind", kind)
		return b, "hit", nil
	} else if expired {
		s.met.inc("svc_cache_expired_total", "kind", kind)
	}
	s.met.inc("svc_cache_misses_total", "kind", kind)
	c, leader := s.flight.join(key)
	source = "miss"
	if leader {
		s.startLeader(key, c, compute)
	} else {
		s.met.inc("svc_coalesced_total", "kind", kind)
		source = "join"
	}
	b, aerr := s.await(ctx, key, c)
	return b, source, aerr
}

// startLeader launches the leader's job for an already-joined call. A
// submit failure completes the call immediately so every waiter sees
// the backpressure error.
func (s *Server) startLeader(key string, c *call, compute func(ctx context.Context, c *call) ([]byte, error)) {
	job := func() {
		body, err := func() ([]byte, error) {
			if err := c.ctx.Err(); err != nil {
				return nil, err // every waiter already left
			}
			return compute(c.ctx, c)
		}()
		if err == nil {
			if s.cache.put(key, body) {
				s.met.inc("svc_cache_evictions_total")
			}
		}
		s.flight.complete(key, c, body, err)
	}
	if err := s.pool.submit(job); err != nil {
		reason := "saturated"
		if errors.Is(err, errDraining) {
			reason = "draining"
		}
		s.met.inc("svc_rejected_total", "reason", reason)
		s.flight.complete(key, c, nil, err)
	}
}

// handlePlan answers POST /v1/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) int {
	var req PlanRequest
	if aerr := decodeBody(r.Body, &req); aerr != nil {
		return writeError(w, aerr)
	}
	sp, aerr := resolvePlan(req)
	if aerr != nil {
		return writeError(w, aerr)
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	body, source, aerr := s.planBytes(ctx, sp)
	if aerr != nil {
		return writeError(w, aerr)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
	return http.StatusOK
}

// planBytes returns the (cached, coalesced) /v1/plan response bytes for
// a resolved request.
func (s *Server) planBytes(ctx context.Context, sp *planSpec) ([]byte, string, *apiError) {
	key := sp.digest()
	return s.cachedOrCompute(ctx, key, "plan", func(cctx context.Context, _ *call) ([]byte, error) {
		return s.computePlan(cctx, sp, key)
	})
}

// computePlan runs one optimizer sweep. Exactly one of these runs per
// coalesced digest — the sweep_runs_total counter the coalescing test
// pins counts real sweeps, not requests.
func (s *Server) computePlan(ctx context.Context, sp *planSpec, key string) ([]byte, error) {
	s.met.inc("sweep_runs_total")
	s.cfg.Events.Event("sweep_start", "digest", key, "system", sp.sys.Name, "technique", sp.technique)
	tech, err := model.New(sp.technique)
	if err != nil {
		return nil, err
	}
	sweepReg := s.configureSweep(tech, ctx, sp)
	plan, pred, err := tech.Optimize(sp.sys)
	if merr := s.met.merge(sweepReg); merr != nil {
		return nil, merr
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		s.cfg.Events.Event("sweep_error", "digest", key, "error", err.Error())
		return nil, err
	}
	s.cfg.Events.Event("sweep_done", "digest", key)
	return marshalBody(PlanResponse{
		Digest:    key,
		System:    sp.sys.Name,
		Technique: sp.technique,
		Plan:      toPlanJSON(plan),
		Predicted: PredictionJSON{ExpectedMinutes: pred.ExpectedTime, Efficiency: pred.Efficiency},
	})
}

// configureSweep applies the request grid, cancellation context, worker
// bound, and a private telemetry registry (merged after the sweep — the
// shared registry is not concurrency-safe) via the optional interfaces.
func (s *Server) configureSweep(tech model.Technique, ctx context.Context, sp *planSpec) *obs.Registry {
	if g, ok := tech.(sweepGridder); ok {
		g.SetSweepGrid(sp.tau0Points, sp.countVals)
	}
	if c, ok := tech.(sweepContexter); ok {
		c.SetSweepContext(ctx)
	}
	if wk, ok := tech.(sweepWorkerser); ok {
		wk.SetSweepWorkers(s.cfg.Workers)
	}
	var reg *obs.Registry
	if m, ok := tech.(sweepMetricser); ok {
		reg = obs.NewRegistry()
		m.SetSweepMetrics(reg)
	}
	return reg
}

// handlePredict answers POST /v1/predict: a pure model evaluation, no
// pool (it is microseconds of work).
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	var req PredictRequest
	if aerr := decodeBody(r.Body, &req); aerr != nil {
		return writeError(w, aerr)
	}
	sp, aerr := resolvePlan(req.PlanRequest)
	if aerr != nil {
		return writeError(w, aerr)
	}
	plan, aerr := sp.parsePlan(req.Plan)
	if aerr != nil {
		return writeError(w, aerr)
	}
	tech, err := model.New(sp.technique)
	if err != nil {
		return writeError(w, apiErrorf(http.StatusInternalServerError, "%v", err))
	}
	pred, err := tech.Predict(sp.sys, plan)
	if err != nil {
		// The plan validated structurally, so this is a model-domain
		// refusal (e.g. more levels than the model supports).
		return writeError(w, apiErrorf(http.StatusUnprocessableEntity, "%v", err))
	}
	if !isFinite(pred.ExpectedTime) || !isFinite(pred.Efficiency) {
		// JSON cannot carry ±Inf or NaN; the model gave no usable number.
		return writeError(w, apiErrorf(http.StatusUnprocessableEntity,
			"%s predicts a non-finite result for this plan (expected %v min, efficiency %v)",
			sp.technique, pred.ExpectedTime, pred.Efficiency))
	}
	body, err := marshalBody(PredictResponse{
		System:    sp.sys.Name,
		Technique: sp.technique,
		Plan:      toPlanJSON(plan),
		Predicted: PredictionJSON{ExpectedMinutes: pred.ExpectedTime, Efficiency: pred.Efficiency},
	})
	if err != nil {
		return writeError(w, apiErrorf(http.StatusInternalServerError, "%v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	return http.StatusOK
}

// handleSimulate answers POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) int {
	var req SimulateRequest
	if aerr := decodeBody(r.Body, &req); aerr != nil {
		return writeError(w, aerr)
	}
	sp, aerr := resolvePlan(req.PlanRequest)
	if aerr != nil {
		return writeError(w, aerr)
	}
	plan, aerr := sp.parsePlan(req.Plan)
	if aerr != nil {
		return writeError(w, aerr)
	}
	trials := req.Trials
	if trials == 0 {
		trials = 200
	}
	if trials < 1 || trials > s.cfg.MaxTrials {
		return writeError(w, badRequest("trials %d outside [1, %d]", trials, s.cfg.MaxTrials))
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	key := sp.simulateDigest(plan, trials, seed)
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	if b, ok, expired := s.cache.get(key); ok {
		s.met.inc("svc_cache_hits_total", "kind", "simulate")
		return s.writeSimulate(w, b, "hit", req.Stream, nil, key)
	} else if expired {
		s.met.inc("svc_cache_expired_total", "kind", "simulate")
	}
	s.met.inc("svc_cache_misses_total", "kind", "simulate")
	c, leader := s.flight.join(key)
	source := "miss"
	if leader {
		s.startLeader(key, c, func(cctx context.Context, cc *call) ([]byte, error) {
			return s.computeSimulate(cctx, cc, sp, plan, trials, seed, key)
		})
	} else {
		s.met.inc("svc_coalesced_total", "kind", "simulate")
		source = "join"
	}

	if !req.Stream {
		body, aerr := s.await(ctx, key, c)
		if aerr != nil {
			return writeError(w, aerr)
		}
		return s.writeSimulate(w, body, source, false, nil, key)
	}
	return s.streamSimulate(w, ctx, key, c, source)
}

// writeSimulate writes a completed simulate response, optionally
// wrapped in the streaming envelope for consistency with streamed runs.
func (s *Server) writeSimulate(w http.ResponseWriter, body []byte, source string, stream bool, _ *call, _ string) int {
	w.Header().Set("X-Cache", source)
	if !stream {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return http.StatusOK
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	writeStreamRecord(w, streamRecord{Type: "result", Result: json.RawMessage(body)})
	return http.StatusOK
}

// streamRecord is one NDJSON line of a streamed /v1/simulate response.
type streamRecord struct {
	Type   string          `json:"type"` // "progress" | "result" | "error"
	Done   int64           `json:"done,omitempty"`
	Total  int64           `json:"total,omitempty"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func writeStreamRecord(w http.ResponseWriter, rec streamRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// streamSimulate emits chunked NDJSON progress while the (possibly
// coalesced) campaign runs, then the result record. The HTTP status is
// already 200 by the first progress line; failures after that surface
// as a terminal "error" record.
func (s *Server) streamSimulate(w http.ResponseWriter, ctx context.Context, key string, c *call, source string) int {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", source)
	w.WriteHeader(http.StatusOK)
	writeStreamRecord(w, streamRecord{Type: "progress", Done: c.progress.Load(), Total: c.total.Load()})
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			if c.err != nil {
				aerr := mapComputeErr(c.err)
				writeStreamRecord(w, streamRecord{Type: "error", Error: aerr.Msg, Status: aerr.Status})
				return http.StatusOK
			}
			writeStreamRecord(w, streamRecord{Type: "result", Result: json.RawMessage(c.body)})
			return http.StatusOK
		case <-tick.C:
			writeStreamRecord(w, streamRecord{Type: "progress", Done: c.progress.Load(), Total: c.total.Load()})
		case <-ctx.Done():
			s.flight.leave(key, c)
			s.met.inc("svc_deadline_total")
			writeStreamRecord(w, streamRecord{Type: "error", Error: "deadline exceeded: " + ctx.Err().Error(), Status: http.StatusServiceUnavailable})
			return http.StatusOK
		}
	}
}

// computeSimulate runs one campaign on the pool and marshals the
// model-vs-simulation comparison. Campaigns are not mid-run cancelable
// (sim.Campaign has no context hook), so the deadline is checked before
// launch and the trial count is bounded by MaxTrials.
func (s *Server) computeSimulate(ctx context.Context, c *call, sp *planSpec, plan pattern.Plan, trials int, seed uint64, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.met.inc("sim_runs_total")
	s.cfg.Events.Event("sim_start", "digest", key, "system", sp.sys.Name, "technique", sp.technique, "trials", trials)
	c.total.Store(int64(trials))

	// JSON cannot carry ±Inf or NaN, so a non-finite prediction is
	// omitted like one the model refuses.
	var predicted *PredictionJSON
	if tech, err := model.New(sp.technique); err == nil {
		if pred, perr := tech.Predict(sp.sys, plan); perr == nil && isFinite(pred.ExpectedTime) && isFinite(pred.Efficiency) {
			predicted = &PredictionJSON{ExpectedMinutes: pred.ExpectedTime, Efficiency: pred.Efficiency}
		}
	}

	camp := sim.Campaign{
		Scenario: sim.Scenario{System: sp.sys, Plan: plan},
		Trials:   trials,
		Seed:     rng.Campaign(seed, "mlckpt").Scenario(sp.sys.Name + "/" + sp.technique),
		Workers:  s.cfg.Workers,
		TrialDone: func(sim.TrialResult) {
			c.progress.Add(1) // called from worker goroutines; atomic
		},
	}
	res, err := camp.Run()
	if err != nil {
		s.cfg.Events.Event("sim_error", "digest", key, "error", err.Error())
		return nil, err
	}
	var ci float64
	if len(res.Efficiencies) >= 2 {
		var sample stats.Sample
		sample.AddAll(res.Efficiencies)
		if hw, cerr := sample.CI(0.95); cerr == nil {
			ci = hw
		}
	}
	s.cfg.Events.Event("sim_done", "digest", key)
	return marshalBody(SimulateResponse{
		Digest:          key,
		System:          sp.sys.Name,
		Technique:       sp.technique,
		Plan:            toPlanJSON(plan),
		Trials:          trials,
		Seed:            seed,
		Predicted:       predicted,
		Efficiency:      toSummaryJSON(res.Efficiency),
		WallTimeMinutes: toSummaryJSON(res.WallTime),
		EfficiencyCI95:  ci,
		Completed:       res.Completed,
	})
}

func toSummaryJSON(s stats.Summary) SummaryJSON {
	return SummaryJSON{N: s.N, Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max}
}

// handleBatch answers POST /v1/batch: per-item plan requests resolved
// and computed concurrently (sharing the cache/coalescing machinery),
// results in request order. Item failures are reported per item; the
// batch itself answers 200.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if aerr := decodeBody(r.Body, &req); aerr != nil {
		return writeError(w, aerr)
	}
	if len(req.Requests) == 0 {
		return writeError(w, badRequest("requests must not be empty"))
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		return writeError(w, badRequest("batch of %d exceeds max %d", len(req.Requests), s.cfg.MaxBatch))
	}
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		return writeError(w, badRequest("timeout_ms %d outside [0, %d]", req.TimeoutMS, maxTimeoutMS))
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	results := make([]BatchItem, len(req.Requests))
	var wg sync.WaitGroup
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			item := req.Requests[i]
			item.TimeoutMS = 0 // the batch deadline governs
			sp, aerr := resolvePlan(item)
			if aerr == nil {
				var body []byte
				body, _, aerr = s.planBytes(ctx, sp)
				if aerr == nil {
					results[i] = BatchItem{Response: json.RawMessage(body)}
					return
				}
			}
			results[i] = BatchItem{Error: aerr.Msg, Status: aerr.Status}
		}(i)
	}
	wg.Wait()
	body, err := marshalBody(BatchResponse{Results: results})
	if err != nil {
		return writeError(w, apiErrorf(http.StatusInternalServerError, "%v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	return http.StatusOK
}
