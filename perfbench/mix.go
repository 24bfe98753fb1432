package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/system"
)

// The mlckptd-mix traffic classes, by the request the generator sends.
// Whether a plan request is served as a hit, miss or join is read back
// from the X-Cache header.
const (
	classHit      = "plan-hit"
	classMiss     = "plan-miss"
	classJoin     = "plan-join"
	classPredict  = "predict"
	classSimulate = "simulate"
)

// Every /v1/plan request has the shape of the README's and check.sh's
// example: a Table I system by name, a technique, the default sweep
// grid, and for fresh systems an mtbf_minutes override. System B is
// left out: its default sweep costs 0.4-1.4 s per miss on two CPUs, so
// B misses alone would saturate the daemon at any ladder rate; the
// batch workloads load B's sweeps.
var (
	mixSystems    = []string{"M", "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"}
	mixTechniques = []string{"dauwe", "di", "moody"}
)

// simTrials is the campaign size of every /v1/simulate request.
const simTrials = 48

// nominalRate is the ladder rate the per-class latencies are reported
// at: well below saturation on a 2-CPU machine.
const nominalRate = 200

// ladderLimit is the latency limit a ladder rate must meet at p99,
// timed from each request's due time.
const ladderLimit = 250 * time.Millisecond

// planKey is one /v1/plan request the generator can send, with the
// system the daemon resolves it to.
type planKey struct {
	req  service.PlanRequest
	body []byte
	sys  *system.System
	plan service.PlanJSON // filled when the warm-up answered it
}

// mixReq is one scheduled request.
type mixReq struct {
	class string
	path  string
	body  []byte
	due   time.Duration
	// key is the plan request (plan and predict classes).
	key *planKey
}

// reply is what came back for one request.
type reply struct {
	req     mixReq
	status  int
	cache   string
	body    []byte
	err     error
	sent    time.Duration // since the schedule's start
	done    time.Duration
	handler time.Duration // traced runs only
}

// mixEnv is one daemon under test: service.New behind httptest.Server,
// and a client limited to two connections.
type mixEnv struct {
	b       *bench
	srv     *service.Server
	ts      *httptest.Server
	client  *http.Client
	tr      *tracer
	conns   int
	workers int

	// handler holds the middleware's handler interval per request id.
	handler sync.Map
	nextID  int64
	idMu    sync.Mutex

	mu sync.Mutex
	// bodies maps a plan digest to the first response body served for
	// it; every later response for the digest must equal it byte for
	// byte.
	bodies map[string][]byte
	keys   map[string]*planKey
	// firstMiss is the first plan request answered as a miss, checked
	// once against a direct Optimize.
	firstMiss *reply
	// firstSim is the first simulate reply, re-run once on a
	// one-worker daemon.
	firstSim *reply
	// closed keeps a traced env's closed-loop replies for the service
	// layer's metrics.
	closed []reply
}

// newMixEnv starts a daemon. A traced env wraps the handler in a
// middleware that records each request's handler time.
func newMixEnv(b *bench, tr *tracer, workers, conns int) *mixEnv {
	e := &mixEnv{b: b, tr: tr, conns: conns, workers: workers,
		bodies: map[string][]byte{}, keys: map[string]*planKey{}}
	e.srv = service.New(service.Config{Workers: workers})
	h := e.srv.Handler()
	if b.faults.flipResponseByte {
		h = flipHits(h)
	}
	if tr != nil {
		h = e.middleware(h)
	}
	e.ts = httptest.NewServer(h)
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	return e
}

func (e *mixEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		e.b.fail(err)
	}
}

// middleware times service.Server.Handler() per request.
func (e *mixEnv) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id := r.Header.Get("X-Bench-Id"); id != "" {
			e.handler.Store(id, time.Since(t0))
		}
	})
}

// flipHits is the injected fault for the tests: it flips one byte of
// every /v1/plan body served from the cache.
func flipHits(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Header().Get("X-Cache") == "hit" && len(body) > 2 {
			body[len(body)/2] ^= 1
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// send posts one request and reads the whole response.
func (e *mixEnv) send(r mixReq, t0 time.Time) reply {
	rep := reply{req: r, sent: time.Since(t0)}
	hreq, err := http.NewRequest(http.MethodPost, e.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		rep.err = err
		return rep
	}
	var id string
	if e.tr != nil {
		e.idMu.Lock()
		e.nextID++
		id = strconv.FormatInt(e.nextID, 10)
		e.idMu.Unlock()
		hreq.Header.Set("X-Bench-Id", id)
	}
	resp, err := e.client.Do(hreq)
	if err == nil {
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.status = resp.StatusCode
		rep.cache = resp.Header.Get("X-Cache")
	}
	rep.err = err
	rep.done = time.Since(t0)
	if id != "" {
		if v, ok := e.handler.LoadAndDelete(id); ok {
			rep.handler = v.(time.Duration)
		}
	}
	return rep
}

// newPlanKey marshals a /v1/plan request and resolves the system the
// daemon will plan for: the named system with any MTBF and PFS cost
// override applied.
func newPlanKey(req service.PlanRequest) (*planKey, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	sys, err := system.ByName(req.System)
	if err != nil {
		return nil, err
	}
	if req.MTBFMinutes > 0 {
		sys = sys.WithMTBF(req.MTBFMinutes)
	}
	if req.PFSMinutes > 0 {
		sys = sys.WithTopCost(req.PFSMinutes)
	}
	return &planKey{req: req, body: body, sys: sys}, nil
}

// mixGen generates the seeded request mix. Each run of mixUnit
// requests holds the same number of each class, in seeded order, so
// the work in a round does not depend on the seed.
type mixGen struct {
	rnd     *rand.Rand
	warm    []*planKey
	simReq  service.SimulateRequest
	deck    []string
	pending []mixReq
	// fresh counts the fresh plan keys made; u0 offsets their MTBFs.
	fresh int
	u0    float64
}

// mixUnit is one deck of the mix: 50 % plan hits, 10 % plan misses,
// 10 % join pairs (two identical fresh requests due at the same
// instant), 15 % predicts of what-if plans and 15 % small simulates.
// The proportions are an assumption: there is no request log to take
// them from.
var mixUnit = []struct {
	class string
	n     int
}{{classHit, 10}, {classMiss, 2}, {classJoin, 1}, {classPredict, 3}, {classSimulate, 3}}

func newMixGen(seed uint64, label string, warm []*planKey, simReq service.SimulateRequest) *mixGen {
	rnd := rng.Campaign(seed, "perfbench/mlckptd-mix").Scenario(label).Rand()
	return &mixGen{rnd: rnd, warm: warm, simReq: simReq, u0: rnd.Float64()}
}

// freshKey is a plan request no one has sent yet: techniques and
// systems cycle, and each MTBF override is the system's own MTBF times
// a factor in [0.5, 2) that follows a golden-ratio sequence from a
// seeded start, so every digest is new and any run of keys covers the
// range evenly.
func (g *mixGen) freshKey() (*planKey, error) {
	j := g.fresh
	g.fresh++
	u := math.Mod(g.u0+float64(j)*0.6180339887498949, 1)
	name := mixSystems[(j/len(mixTechniques))%len(mixSystems)]
	base, err := system.ByName(name)
	if err != nil {
		return nil, err
	}
	return newPlanKey(service.PlanRequest{System: name, MTBFMinutes: base.MTBF * (0.5 + 1.5*u),
		Technique: mixTechniques[j%len(mixTechniques)]})
}

// next returns the next request of the mix.
func (g *mixGen) next() (mixReq, error) {
	if len(g.pending) > 0 {
		r := g.pending[0]
		g.pending = g.pending[1:]
		return r, nil
	}
	if len(g.deck) == 0 {
		for _, c := range mixUnit {
			for i := 0; i < c.n; i++ {
				g.deck = append(g.deck, c.class)
			}
		}
		g.rnd.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	class := g.deck[0]
	g.deck = g.deck[1:]
	switch class {
	case classHit:
		k := g.warm[g.rnd.IntN(len(g.warm))]
		return mixReq{class: classHit, path: "/v1/plan", body: k.body, key: k}, nil
	case classMiss, classJoin:
		k, err := g.freshKey()
		if err != nil {
			return mixReq{}, err
		}
		r := mixReq{class: class, path: "/v1/plan", body: k.body, key: k}
		if class == classJoin {
			g.pending = append(g.pending, r)
		}
		return r, nil
	case classPredict:
		// A what-if plan: a served Dauwe plan with its interval scaled
		// by a seeded factor and every count at least 1. (Moody's
		// model is left out: see infPredict.)
		var w *planKey
		for w == nil || w.req.Technique != "dauwe" {
			w = g.warm[g.rnd.IntN(len(g.warm))]
		}
		k := &planKey{req: w.req, sys: w.sys, plan: service.PlanJSON{
			Tau0Minutes: w.plan.Tau0Minutes * (0.8 + 0.45*g.rnd.Float64()),
			Counts:      make([]int, len(w.plan.Counts)), Levels: w.plan.Levels}}
		for i, c := range w.plan.Counts {
			k.plan.Counts[i] = max(c, 1)
		}
		body, err := json.Marshal(service.PredictRequest{PlanRequest: k.req, Plan: &k.plan})
		return mixReq{class: classPredict, path: "/v1/predict", body: body, key: k}, err
	default:
		req := g.simReq
		req.Seed = g.rnd.Uint64()>>1 | 1
		body, err := json.Marshal(req)
		return mixReq{class: classSimulate, path: "/v1/simulate", body: body}, err
	}
}

// check verifies one reply and counts it as an operation.
func (e *mixEnv) check(r reply) {
	b := e.b
	if r.err != nil || r.status != http.StatusOK {
		b.op(false, "%s %s: status %d err %v: %.200s", r.req.class, r.req.path, r.status, r.err, r.body)
		return
	}
	switch r.req.path {
	case "/v1/plan":
		var resp service.PlanResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			b.op(false, "plan %s: bad body: %v", r.cache, err)
			return
		}
		e.mu.Lock()
		first, seen := e.bodies[resp.Digest]
		if !seen {
			e.bodies[resp.Digest] = r.body
			e.keys[resp.Digest] = r.req.key
		}
		if r.cache == "miss" && e.firstMiss == nil {
			rc := r
			e.firstMiss = &rc
		}
		e.mu.Unlock()
		b.op(!seen || bytes.Equal(first, r.body),
			"plan %s for %s differs from the response that filled the cache", r.cache, resp.Digest)
	case "/v1/predict":
		var resp service.PredictResponse
		err := json.Unmarshal(r.body, &resp)
		var want model.Prediction
		if err == nil {
			want, err = directPredict(r.req.key)
		}
		b.op(err == nil && math.Float64bits(resp.Predicted.ExpectedMinutes) == math.Float64bits(want.ExpectedTime),
			"predict %s: daemon %v, direct Predict %v (err %v)", r.req.key.req.Technique,
			resp.Predicted.ExpectedMinutes, want.ExpectedTime, err)
	case "/v1/simulate":
		e.mu.Lock()
		if e.firstSim == nil {
			rc := r
			e.firstSim = &rc
		}
		e.mu.Unlock()
		var resp service.SimulateResponse
		err := json.Unmarshal(r.body, &resp)
		eff := resp.Efficiency
		b.op(err == nil && resp.Trials == simTrials && eff.N == simTrials && resp.WallTimeMinutes.N == simTrials &&
			eff.Min >= 0 && (eff.Min > 0 || resp.Completed < simTrials) && eff.Max <= 1 && resp.Completed <= simTrials,
			"simulate: trials %d N %d eff [%v, %v] completed %d (err %v)",
			resp.Trials, eff.N, eff.Min, eff.Max, resp.Completed, err)
	}
}

func directPredict(k *planKey) (model.Prediction, error) {
	tech, err := model.New(k.req.Technique)
	if err != nil {
		return model.Prediction{}, err
	}
	return tech.Predict(k.sys, pattern.Plan{Tau0: k.plan.Tau0Minutes, Counts: k.plan.Counts, Levels: k.plan.Levels})
}

// checkDirectOptimize checks one miss per run against a direct
// Optimize of the same system and technique on the default grid, with
// the daemon's worker count.
func (e *mixEnv) checkDirectOptimize() {
	e.mu.Lock()
	r := e.firstMiss
	e.mu.Unlock()
	if r == nil {
		e.b.op(false, "mlckptd-mix: no plan request was answered as a miss")
		return
	}
	k := r.req.key
	tech, err := model.New(k.req.Technique)
	if err != nil {
		e.b.fail(err)
		return
	}
	tech.(interface{ SetSweepWorkers(int) }).SetSweepWorkers(e.workers)
	plan, pred, err := tech.Optimize(k.sys)
	var resp service.PlanResponse
	if err == nil {
		err = json.Unmarshal(r.body, &resp)
	}
	got := pattern.Plan{Tau0: resp.Plan.Tau0Minutes, Counts: resp.Plan.Counts, Levels: resp.Plan.Levels}
	same := err == nil && samePlan(got, plan) &&
		math.Float64bits(resp.Predicted.ExpectedMinutes) == math.Float64bits(pred.ExpectedTime)
	e.b.op(same, "plan %s: daemon %v (%v), direct Optimize %v (%v), err %v",
		resp.Digest, got, resp.Predicted.ExpectedMinutes, plan, pred.ExpectedTime, err)
}

// checkDeterminism sends the run's first simulate request again, to a
// fresh daemon with one worker, and checks the campaign's answer is
// byte-identical to the one the multi-worker daemon served.
func (e *mixEnv) checkDeterminism() {
	e.mu.Lock()
	r := e.firstSim
	e.mu.Unlock()
	if r == nil {
		e.b.op(false, "mlckptd-mix: no simulate request was answered")
		return
	}
	body := r.req.body
	if e.b.faults.rerunDiffers {
		var req service.SimulateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			e.b.fail(err)
			return
		}
		req.Seed++
		var err error
		if body, err = json.Marshal(req); err != nil {
			e.b.fail(err)
			return
		}
	}
	one := newMixEnv(e.b, nil, 1, 1)
	defer one.close()
	got := one.send(mixReq{class: classSimulate, path: "/v1/simulate", body: body}, time.Now())
	e.b.op(got.err == nil && got.status == http.StatusOK && bytes.Equal(got.body, r.body),
		"simulate: Workers=1 re-run differs from the %d-worker daemon's answer (status %d, err %v)",
		e.workers, got.status, got.err)
}

// replayServed sends up to n plans the daemon served that contain a
// zero count back to /v1/predict and returns how many it sent and how
// many the daemon rejected. The optimizer emits N_i = 0 (pattern.Plan
// allows it) while /v1/predict validates counts as >= 1, so a client
// cannot ask for a prediction of a plan the daemon itself chose.
func (e *mixEnv) replayServed(n int) (sent, rejected int) {
	type served struct {
		key  *planKey
		plan service.PlanJSON
	}
	var plans []served
	e.mu.Lock()
	for digest, body := range e.bodies {
		var resp service.PlanResponse
		if len(plans) < n && json.Unmarshal(body, &resp) == nil && slices.Contains(resp.Plan.Counts, 0) {
			plans = append(plans, served{e.keys[digest], resp.Plan})
		}
	}
	e.mu.Unlock()
	t0 := time.Now()
	for _, p := range plans {
		body, err := json.Marshal(service.PredictRequest{PlanRequest: p.key.req, Plan: &p.plan})
		if err != nil {
			continue
		}
		r := e.send(mixReq{path: "/v1/predict", body: body}, t0)
		sent++
		if r.status == http.StatusBadRequest {
			rejected++
		}
	}
	return sent, rejected
}

// infPredict asks /v1/predict for Moody's prediction of a plan whose
// Markov efficiency underflows to 0, so the model's expected time is
// +Inf, and reports whether the daemon answered 500: its JSON encoder
// cannot write +Inf.
func (e *mixEnv) infPredict() (bool, error) {
	k, err := newPlanKey(service.PlanRequest{System: "B", MTBFMinutes: 5, PFSMinutes: 40, Technique: "moody"})
	if err != nil {
		return false, err
	}
	plan := service.PlanJSON{Tau0Minutes: 1000, Counts: []int{1, 1, 1}, Levels: []int{1, 2, 3, 4}}
	body, err := json.Marshal(service.PredictRequest{PlanRequest: k.req, Plan: &plan})
	if err != nil {
		return false, err
	}
	r := e.send(mixReq{path: "/v1/predict", body: body}, time.Now())
	return r.status == http.StatusInternalServerError, r.err
}

// warmUp fills the daemon's cache with the warm plan keys, one
// request at a time, and records their plans.
func (e *mixEnv) warmUp(keys []*planKey) error {
	t0 := time.Now()
	for _, k := range keys {
		r := e.send(mixReq{class: classMiss, path: "/v1/plan", body: k.body, key: k}, t0)
		e.check(r)
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up plan request: status %d: %v", r.status, r.err)
		}
		var resp service.PlanResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return err
		}
		k.plan = resp.Plan
	}
	return nil
}

// closedRound sends n requests of the mix over the env's connections,
// each connection sending its next request when the previous one has
// answered, and returns the replies and the round's wall time.
func (e *mixEnv) closedRound(reqs []mixReq, parent int) ([]reply, time.Duration) {
	t0 := time.Now()
	next := make(chan int, len(reqs)) // holds every index, so sends never block
	for i := range reqs {
		next <- i
	}
	close(next)
	replies := make([]reply, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < e.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				replies[i] = e.send(reqs[i], t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, r := range replies {
		e.check(r)
		e.recordSpans(r, parent, t0)
	}
	if e.tr != nil {
		e.closed = append(e.closed, replies...)
	}
	return replies, wall
}

// recordSpans files a reply as a client span with its handler span as
// the child. Each is weighted by 1/connections: concurrent requests
// share the round's wall time.
func (e *mixEnv) recordSpans(r reply, parent int, t0 time.Time) {
	if e.tr == nil {
		return
	}
	base := int64(t0.Sub(e.tr.t0))
	w := 1 / float64(e.conns)
	id := e.tr.record(span{Parent: parent, Layer: layerClient, Name: r.req.path, Weight: w,
		Start: base + int64(r.sent), End: base + int64(r.done)})
	if r.handler > 0 {
		e.tr.record(span{Parent: id, Layer: layerService, Name: "handler" + r.req.path, Weight: w,
			Start: base + int64(r.sent), End: base + int64(r.sent) + int64(r.handler)})
	}
}

// ladderStep is one fixed arrival rate of the open-loop ladder.
type ladderStep struct {
	rate    float64
	replies []reply
	late    []float64 // ms the generator dispatched each request after its due time
	ok      bool
}

// openStep sends a Poisson schedule at rate for d, dispatching each
// request at its due time regardless of how many are outstanding;
// requests wait client-side for one of the env's connections. Latency
// is timed from each request's due time.
func (e *mixEnv) openStep(g *mixGen, rate float64, d time.Duration) (ladderStep, error) {
	var reqs []mixReq
	var at time.Duration
	for {
		// The second request of a join pair shares its twin's due time.
		twin := len(g.pending) > 0
		r, err := g.next()
		if err != nil {
			return ladderStep{}, err
		}
		if !twin {
			at += time.Duration(g.rnd.ExpFloat64() / rate * float64(time.Second))
		}
		if at >= d && len(reqs) > 0 {
			g.pending = nil
			break
		}
		r.due = at
		reqs = append(reqs, r)
	}
	step := ladderStep{rate: rate, replies: make([]reply, len(reqs)), late: make([]float64, len(reqs))}
	queue := make(chan int, len(reqs)) // holds every index, so the dispatcher never blocks
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				step.replies[i] = e.send(reqs[i], t0)
			}
		}()
	}
	for i, r := range reqs {
		if wait := r.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		step.late[i] = ms(time.Since(t0) - r.due)
		queue <- i
	}
	close(queue)
	wg.Wait()

	var lat []float64
	refused := 0
	for _, r := range step.replies {
		e.check(r)
		lat = append(lat, ms(r.done-r.req.due))
		if r.status == http.StatusTooManyRequests {
			refused++
		}
	}
	// No growing backlog: the last tenth of the schedule is served
	// within the limit too.
	tail := lat[len(lat)-len(lat)/10-1:]
	step.ok = refused == 0 && quantile(lat, 0.99) <= ms(ladderLimit) && quantile(tail, 1) <= ms(ladderLimit)
	return step, nil
}

// scrape reads the daemon's /metrics and sums each family over its
// labels.
func (e *mixEnv) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// runMix runs mlckptd-mix: set-up (daemon start and cache warm-up),
// closed-loop rounds for the throughput metrics, then the open-loop
// rate ladder for the latency metrics.
func (b *bench) runMix(workers, conns int) error {
	nWarm := b.scaled(len(mixSystems)*len(mixTechniques), len(mixTechniques))
	roundN := b.scaled(400, 12)
	var (
		env   *mixEnv
		warm  []*planKey
		simRq service.SimulateRequest
	)
	setup := func(tr *tracer) (*mixEnv, error) {
		// The warm set is every mix system under every technique with
		// no override, the README's request shape, so warming the
		// cache costs the same for every seed; the seed picks which of
		// them each hit asks for.
		warm = warm[:0]
		for i := 0; i < nWarm; i++ {
			k, err := newPlanKey(service.PlanRequest{System: mixSystems[(i/len(mixTechniques))%len(mixSystems)],
				Technique: mixTechniques[i%len(mixTechniques)]})
			if err != nil {
				return nil, err
			}
			warm = append(warm, k)
		}
		sys, err := system.ByName("D2")
		if err != nil {
			return nil, err
		}
		sys = sys.WithBaseline(360)
		tech, err := model.New("daly")
		if err != nil {
			return nil, err
		}
		plan, _, err := tech.Optimize(sys)
		if err != nil {
			return nil, err
		}
		simRq = service.SimulateRequest{PredictRequest: service.PredictRequest{
			PlanRequest: service.PlanRequest{System: "D2", BaselineMinutes: 360, Technique: "daly"},
			Plan:        &service.PlanJSON{Tau0Minutes: plan.Tau0, Counts: []int{}, Levels: plan.Levels},
		}, Trials: simTrials}
		e := newMixEnv(b, tr, workers, conns)
		if err := e.warmUp(warm); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	if err := b.timeSetup(9, func() (func(), error) {
		e, err := setup(nil)
		env = e
		return func() { e.close() }, err
	}); err != nil {
		return err
	}
	defer env.close()

	var tr *tracer
	var tenv *mixEnv
	if b.trace {
		tr = newTracer()
		var err error
		if tenv, err = setup(tr); err != nil {
			return err
		}
		defer tenv.close()
	}

	var walls, overhead []float64
	var totalTrials, totalPlans int
	roundReqs := func(r int) ([]mixReq, error) {
		g := newMixGen(b.seed, "round"+strconv.Itoa(r), warm, simRq)
		reqs := make([]mixReq, roundN)
		for i := range reqs {
			var err error
			if reqs[i], err = g.next(); err != nil {
				return nil, err
			}
		}
		return reqs, nil
	}
	closedShare := 0.5
	if b.trace {
		closedShare = 0.4
	}
	_, err := b.rounds(b.budget(closedShare), 3, func(r int) error {
		reqs, err := roundReqs(r)
		if err != nil {
			return err
		}
		replies, wall := env.closedRound(reqs, 0)
		trials, plans := 0, 0
		for _, rep := range replies {
			switch rep.req.path {
			case "/v1/simulate":
				trials += simTrials
			case "/v1/plan":
				plans++
			}
		}
		if tenv != nil {
			root := tr.begin(0, layerBench, "mlckptd-mix.round"+strconv.Itoa(r))
			_, twall := tenv.closedRound(reqs, root)
			tr.end(root)
			overhead = append(overhead, twall.Seconds()/wall.Seconds()-1)
		}
		walls = append(walls, wall.Seconds())
		totalTrials += trials
		totalPlans += plans
		return nil
	})
	if err != nil {
		return err
	}
	b.reportThroughput(walls, totalTrials, totalPlans)
	// Peak RSS is read before the ladder: how far its backlog grows at
	// the rates past saturation is scheduling noise.
	if err := b.recordPeakRSS(); err != nil {
		return err
	}

	// The ladder's latencies come from the plain daemon; a traced run
	// climbs the ladder again on the traced daemon for handler times.
	ladderShare := 0.5
	if tenv != nil {
		ladderShare = 0.3
	}
	steps, err := env.ladder(b, warm, simRq, ladderShare)
	if err != nil {
		return err
	}
	b.reportLadder(steps)
	env.checkDirectOptimize()
	env.checkDeterminism()
	if tenv != nil {
		if steps, err = tenv.ladder(b, warm, simRq, ladderShare); err != nil {
			return err
		}
		tenv.checkDirectOptimize()
	}
	if tr != nil {
		b.ledger = buildLedger(tr)
		b.traced = tr
		b.setLayer("trace.overhead_frac", median(overhead), "ratio", len(overhead))
		return b.reportService(tenv, steps)
	}
	return nil
}

// ladder climbs the open-loop rate ladder, spending share of the run's
// measuring time, and stops after the first rate that misses the
// latency limit.
func (e *mixEnv) ladder(b *bench, warm []*planKey, simRq service.SimulateRequest, share float64) ([]ladderStep, error) {
	rates := []float64{100, nominalRate, 400, 800, 1600, 3200}
	stepD := time.Duration(float64(b.budget(share)) / float64(len(rates)))
	g := newMixGen(b.seed, "ladder", warm, simRq)
	var steps []ladderStep
	for _, rate := range rates {
		st, err := e.openStep(g, rate*b.scale, stepD)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
		if !st.ok {
			break
		}
	}
	return steps, nil
}

// reportLadder sets the open-loop latency metrics: per-class latency
// at the nominal rate, the highest rate that met the limit, and how
// late the generator dispatched requests.
func (b *bench) reportLadder(steps []ladderStep) {
	lat := map[string][]float64{}
	var late []float64
	maxRate := 0.0
	for _, st := range steps {
		late = append(late, st.late...)
		if st.ok {
			maxRate = st.rate
		}
		if st.rate != nominalRate*b.scale {
			continue
		}
		for _, r := range st.replies {
			class := r.req.class
			if r.req.path == "/v1/plan" {
				class = "plan_" + r.cache
			}
			lat[class] = append(lat[class], ms(r.done-r.req.due))
		}
	}
	for _, m := range []struct{ name, class string }{
		{"plan_hit", "plan_hit"}, {"plan_miss", "plan_miss"}, {"simulate", classSimulate},
	} {
		xs := lat[m.class]
		b.setE2E(m.name+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
		b.setE2E(m.name+"_p99_ms", quantile(xs, 0.99), "ms", len(xs))
	}
	b.setE2E("max_rate_rps", maxRate, "1/s", len(steps))
	b.setE2E("gen_late_p99_ms", quantile(late, 0.99), "ms", len(late))
}

// reportService sets the service layer's metrics from the traced
// daemon's replies and a final /metrics scrape.
func (b *bench) reportService(e *mixEnv, steps []ladderStep) error {
	var planH, simH, client []float64
	var plans, hits, joins, requests, refused, simMiss float64
	replies := e.closed
	for _, st := range steps {
		replies = append(replies, st.replies...)
	}
	for _, r := range replies {
		requests++
		if r.status == http.StatusTooManyRequests {
			refused++
		}
		client = append(client, ms(r.done-r.sent-r.handler))
		switch r.req.path {
		case "/v1/plan":
			plans++
			planH = append(planH, ms(r.handler))
			switch r.cache {
			case "hit":
				hits++
			case "join":
				joins++
			}
		case "/v1/simulate":
			simH = append(simH, ms(r.handler))
			if r.cache != "hit" {
				simMiss++
			}
		}
	}
	m, err := e.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	e.mu.Lock()
	unique := float64(len(e.bodies))
	e.mu.Unlock()
	b.setLayer("service.plan.handler_ms_p50", median(planH), "ms", len(planH))
	b.setLayer("service.simulate.handler_ms_p50", median(simH), "ms", len(simH))
	b.setLayer("service.cache_hit_frac", frac(hits, plans), "ratio", int(plans))
	b.setLayer("service.join_frac", frac(joins, plans), "ratio", int(plans))
	b.setLayer("service.sweeps_per_unique", frac(m["sweep_runs_total"], unique), "ratio", int(unique))
	b.setLayer("service.refused_frac", frac(refused, requests), "ratio", int(requests))
	b.setLayer("service.client_ms_p50", median(client), "ms", len(client))
	sent, rejected := e.replayServed(8)
	b.setLayer("service.replay_rejected_frac", frac(float64(rejected), float64(sent)), "ratio", sent)
	inf500, err := e.infPredict()
	if err != nil {
		return err
	}
	b.setLayer("service.inf_predict_500", map[bool]float64{false: 0, true: 1}[inf500], "count", 1)
	// The daemon's own sweeps feed the optimize layer's counters.
	st := newLayerStats()
	st.optCalls = int(m["sweep_runs_total"])
	st.evals = m["opt_evaluations_total"] + m["opt_refine_evaluations_total"]
	st.candidates = m["opt_candidates_total"]
	st.pruned = m["opt_pruned_total"]
	st.simTrials = int64(simMiss) * simTrials
	b.reportLayers(st)
	return nil
}
