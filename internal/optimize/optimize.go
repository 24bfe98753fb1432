// Package optimize implements the checkpoint-interval search of the
// paper's Section III-C: a bounded brute-force sweep over the decision
// variables (τ0, N_1..N_{ℓ-1}, and — for the Section IV-F study — the
// subset of levels a plan uses), evaluated in parallel across worker
// goroutines, with an optional golden-section refinement of τ0 around the
// best grid point.
//
// The sweep is deterministic by construction: workers pull (τ0 ×
// level-set) cells from a chunked atomic work queue (so load balances
// dynamically — small-τ0 cells can cost far more under the Markov
// objective), each keeps a running best under a total candidate order
// (expected time, then τ0, then levels, then counts, lexicographically),
// and the per-worker bests are reduced under the same order. The result
// is therefore byte-identical for any worker count. The hot path is
// allocation-free: count vectors are enumerated into per-worker scratch
// buffers that are only copied when a candidate becomes a worker's new
// best.
package optimize

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/system"
)

// Objective evaluates a candidate plan and returns its expected execution
// time in minutes. ok=false rejects the candidate (invalid or out of the
// model's domain). The plan's Counts slice is a scratch buffer reused
// between calls — an objective that retains it past the call must copy
// it. Objectives passed to Sweep must be safe for concurrent use;
// objectives built by an ObjectiveFactory are goroutine-local and need
// not be.
type Objective func(plan pattern.Plan) (expectedTime float64, ok bool)

// ObjectiveFactory builds one Objective per worker goroutine (plus one
// for the τ0 refinement stage). Factories let objectives keep
// goroutine-local scratch — memo tables, reusable solvers — without
// locks, mirroring the observer-shard idiom of sim.Campaign. metrics is
// the worker's private telemetry shard (never nil; discarded unless
// Space.Metrics is set), so objectives can count cache hits and misses.
type ObjectiveFactory func(worker int, metrics *obs.Registry) Objective

// Space bounds the brute-force sweep.
type Space struct {
	// Tau0 holds the candidate computation intervals in minutes.
	Tau0 []float64
	// CountVals holds the candidate values for each N_i.
	CountVals []int
	// LevelSets holds the candidate used-level subsets (ascending,
	// 1-based system levels).
	LevelSets [][]int
	// MaxPeriodIntervals skips patterns whose top-level period spans
	// more than this many τ0 intervals (0 = unbounded). Models with
	// per-segment cost (the Markov chain) use it to bound work.
	MaxPeriodIntervals int
	// Workers is the sweep parallelism; 0 means GOMAXPROCS.
	Workers int
	// RefineTau0 enables golden-section refinement of τ0 around the
	// best grid point, holding the level set and counts fixed. The
	// refinement bracket is clamped to the grid span, so refined τ0
	// never escapes [Tau0[first], Tau0[last]].
	RefineTau0 bool
	// LowerBound, when non-nil, is an admissible lower bound on the
	// objective: LowerBound(plan) must never exceed the objective's
	// value for a feasible plan. Candidates whose bound strictly
	// exceeds the best time found so far (shared across workers) are
	// skipped without evaluating the objective. Because the skip is
	// strict, pruning cannot change the sweep's result — only the
	// number of objective calls (reported via Metrics, not Result).
	LowerBound func(plan pattern.Plan) float64
	// Metrics, when non-nil, receives the sweep's telemetry counters
	// (opt_candidates_total, opt_evaluations_total, opt_pruned_total,
	// opt_refine_evaluations_total, plus whatever the objectives
	// record): workers count into private shards that are merged here
	// once after the sweep. Sharing one sink across concurrent sweeps
	// is not supported.
	Metrics *obs.Registry
	// Spans, when non-nil, receives the sweep's span tree: each worker
	// records a "sweep" span with one "chunk" child per work-queue grab,
	// and the τ0 refinement stage records "refine". Worker shards are
	// goroutine-local tracers merged here once after the sweep; the same
	// single-sweep-per-sink rule as Metrics applies.
	Spans *obs.Tracer
	// Context, when non-nil, cancels the sweep: workers check it at
	// every work-queue grab and at every cell boundary within a chunk,
	// so a canceled sweep stops after at most one in-flight cell per
	// worker. A canceled sweep returns ctx.Err() and a zero Result —
	// callers must not treat partial state as an answer (and in
	// particular must not cache it). Metrics and Spans recorded before
	// the cancellation point are still merged, so telemetry accounts
	// for the aborted work.
	Context context.Context
}

// Result is the outcome of a sweep.
type Result struct {
	Plan         pattern.Plan
	ExpectedTime float64
	// Evaluated counts the candidates considered (those passing the
	// static τ0 and period-length filters). It is a pure function of
	// the Space — candidates served by an objective's memo or skipped
	// by the lower-bound prune still count, so Result is identical for
	// every worker count; the actual objective-call split is reported
	// via Metrics.
	Evaluated int
}

// ErrNoFeasiblePlan is returned when every candidate was rejected.
var ErrNoFeasiblePlan = errors.New("optimize: no feasible plan in search space")

// planLess orders plans lexicographically on (τ0, levels, counts) — the
// deterministic tie-break among candidates with equal expected times.
func planLess(a, b pattern.Plan) bool {
	if a.Tau0 != b.Tau0 {
		return a.Tau0 < b.Tau0
	}
	if c := slices.Compare(a.Levels, b.Levels); c != 0 {
		return c < 0
	}
	return slices.Compare(a.Counts, b.Counts) < 0
}

// atomicMin is a lock-free shared minimum over float64s, used as the
// cross-worker pruning bound.
type atomicMin struct {
	bits atomic.Uint64
}

func (m *atomicMin) init(v float64) { m.bits.Store(math.Float64bits(v)) }

func (m *atomicMin) load() float64 { return math.Float64frombits(m.bits.Load()) }

func (m *atomicMin) lower(v float64) {
	for {
		old := m.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// countScratch enumerates count vectors into reusable buffers.
type countScratch struct {
	counts, idx []int
}

// forEach enumerates all count vectors of length n over vals in odometer
// order (last index fastest). A zero-length vector yields one empty
// enumeration. The slice passed to fn is reused between calls.
func (s *countScratch) forEach(n int, vals []int, fn func([]int)) {
	if n <= 0 {
		fn(nil)
		return
	}
	if len(vals) == 0 {
		return
	}
	if cap(s.counts) < n {
		s.counts = make([]int, n)
		s.idx = make([]int, n)
	}
	counts, idx := s.counts[:n], s.idx[:n]
	for i := range idx {
		idx[i] = 0
	}
	for {
		for i := range counts {
			counts[i] = vals[idx[i]]
		}
		fn(counts)
		// Odometer increment.
		i := n - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(vals) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// forEachCounts enumerates all count vectors of the given length over the
// candidate values. A zero-length vector yields one empty enumeration.
// The slice passed to fn is reused between calls.
func forEachCounts(n int, vals []int, fn func([]int)) {
	var s countScratch
	s.forEach(n, vals, fn)
}

// sweepWorker is the per-goroutine sweep state: the worker's running
// best under the total candidate order, its scratch buffers, and its
// metrics shard. Everything here is touched by exactly one goroutine.
type sweepWorker struct {
	space   *Space
	obj     Objective
	scratch countScratch
	bound   *atomicMin

	// Current cell.
	tau0   float64
	levels []int

	// Running best.
	plan  pattern.Plan
	time  float64
	found bool

	candidates int // deterministic: candidates considered

	evals, pruned *obs.Counter
}

// candidate filters, optionally prunes, and evaluates one count vector
// of the current cell. counts is scratch — copied only on improvement.
func (w *sweepWorker) candidate(counts []int) {
	if max := w.space.MaxPeriodIntervals; max > 0 {
		intervals := 1
		for _, c := range counts {
			intervals *= c + 1
		}
		if intervals > max {
			return
		}
	}
	w.candidates++
	plan := pattern.Plan{Tau0: w.tau0, Counts: counts, Levels: w.levels}
	if lb := w.space.LowerBound; lb != nil {
		// Strict comparison: a candidate tying the current best is
		// still evaluated, so the (τ0, levels, counts) tie-break sees
		// it and pruning cannot change the result.
		if lb(plan) > w.bound.load() {
			w.pruned.Inc()
			return
		}
	}
	w.evals.Inc()
	t, ok := w.obj(plan)
	if !ok || math.IsNaN(t) {
		return
	}
	if t > w.time || math.IsInf(t, 1) {
		return
	}
	if t == w.time && (!w.found || !planLess(plan, w.plan)) {
		return
	}
	w.time = t
	w.found = true
	// A zero-length vector is stored as nil whatever this worker found
	// before, so the result does not depend on the schedule.
	var best []int
	if len(counts) > 0 {
		best = append(w.plan.Counts[:0], counts...)
	}
	w.plan = pattern.Plan{Tau0: plan.Tau0, Counts: best, Levels: plan.Levels}
	w.bound.lower(t)
}

// Sweep minimizes the objective over the space. The objective must be
// safe for concurrent use; use SweepObjectives to give each worker its
// own.
func Sweep(space Space, objective Objective) (Result, error) {
	return SweepObjectives(space, func(int, *obs.Registry) Objective { return objective })
}

// SweepObjectives minimizes over the space with one objective per worker
// goroutine, built by the factory. The result is independent of
// Space.Workers: cells are scheduled dynamically, but candidates are
// reduced under a total order (expected time, then τ0, then levels, then
// counts).
func SweepObjectives(space Space, factory ObjectiveFactory) (Result, error) {
	if len(space.Tau0) == 0 || len(space.LevelSets) == 0 {
		return Result{}, errors.New("optimize: empty search space")
	}
	cells := len(space.Tau0) * len(space.LevelSets)
	workers := space.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	// Chunked atomic work queue: each grab takes `chunk` consecutive
	// cells. Cells are expensive (a full count enumeration each), so
	// small chunks give the best balance; chunks only grow when the
	// cell count dwarfs the worker count.
	chunk := cells / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}

	var next atomic.Int64
	var bound atomicMin
	bound.init(math.Inf(1))

	ws := make([]*sweepWorker, workers)
	regs := make([]*obs.Registry, workers+1) // last shard: refinement
	trs := make([]*obs.Tracer, workers+1)    // nil tracers no-op when Spans is unset
	for i := range regs {
		regs[i] = obs.NewRegistry()
		if space.Spans != nil {
			trs[i] = obs.NewTracer()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reg := regs[w]
			sw := &sweepWorker{
				space:  &space,
				obj:    factory(w, reg),
				bound:  &bound,
				time:   math.Inf(1),
				evals:  reg.Counter("opt_evaluations_total"),
				pruned: reg.Counter("opt_pruned_total"),
			}
			ws[w] = sw
			process := sw.candidate
			sweepSpan := trs[w].Start("sweep")
			for canceled(space.Context) == nil {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= cells {
					break
				}
				end := start + chunk
				if end > cells {
					end = cells
				}
				chunkSpan := trs[w].Start("chunk")
				for c := start; c < end; c++ {
					if canceled(space.Context) != nil {
						break
					}
					// τ0-major order puts the expensive small-τ0
					// cells at the front of the queue.
					tau0 := space.Tau0[c/len(space.LevelSets)]
					if !(tau0 > 0) {
						continue
					}
					sw.tau0 = tau0
					sw.levels = space.LevelSets[c%len(space.LevelSets)]
					sw.scratch.forEach(len(sw.levels)-1, space.CountVals, process)
				}
				chunkSpan.End()
			}
			sweepSpan.End()
			reg.Counter("opt_candidates_total").Add(uint64(sw.candidates))
		}(w)
	}
	wg.Wait()
	if err := canceled(space.Context); err != nil {
		// Abandon the partial reduction: a canceled sweep has no
		// answer. Telemetry for the work actually done still merges.
		if merr := mergeMetrics(space.Metrics, regs); merr != nil {
			return Result{}, merr
		}
		mergeSpans(space.Spans, trs)
		return Result{}, err
	}

	out := Result{ExpectedTime: math.Inf(1)}
	found := false
	for _, sw := range ws {
		out.Evaluated += sw.candidates
		if !sw.found {
			continue
		}
		if !found || sw.time < out.ExpectedTime ||
			(sw.time == out.ExpectedTime && planLess(sw.plan, out.Plan)) {
			out.ExpectedTime = sw.time
			out.Plan = sw.plan
			found = true
		}
	}
	if !found {
		if err := mergeMetrics(space.Metrics, regs); err != nil {
			return Result{}, err
		}
		mergeSpans(space.Spans, trs)
		return Result{Evaluated: out.Evaluated}, ErrNoFeasiblePlan
	}
	if space.RefineTau0 {
		reg := regs[workers]
		refineSpan := trs[workers].Start("refine")
		refined, t := refineTau0(out.Plan, out.ExpectedTime, space.Tau0,
			factory(workers, reg), reg.Counter("opt_refine_evaluations_total"))
		refineSpan.End()
		out.Plan, out.ExpectedTime = refined, t
	}
	if err := mergeMetrics(space.Metrics, regs); err != nil {
		return Result{}, err
	}
	mergeSpans(space.Spans, trs)
	return out, nil
}

// canceled returns the context's error (nil contexts never cancel).
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// mergeMetrics folds the per-worker shards into the sink, if any.
func mergeMetrics(sink *obs.Registry, regs []*obs.Registry) error {
	if sink == nil {
		return nil
	}
	for _, reg := range regs {
		if err := sink.Merge(reg); err != nil {
			return err
		}
	}
	return nil
}

// mergeSpans folds the per-worker tracer shards into the sink, if any.
func mergeSpans(sink *obs.Tracer, trs []*obs.Tracer) {
	if sink == nil {
		return
	}
	for _, tr := range trs {
		sink.Merge(tr)
	}
}

// refineTau0 golden-section-searches τ0 between the grid neighbors of the
// best point, keeping levels and counts fixed. The bracket is clamped to
// the grid span. Falls back to the grid optimum if refinement finds
// nothing better.
func refineTau0(p pattern.Plan, bestT float64, grid []float64, objective Objective, evals *obs.Counter) (pattern.Plan, float64) {
	lo, hi := neighbors(grid, p.Tau0)
	eval := func(tau float64) float64 {
		evals.Inc()
		q := p
		q.Tau0 = tau
		t, ok := objective(q)
		if !ok || math.IsNaN(t) {
			return math.Inf(1)
		}
		return t
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := eval(x1), eval(x2)
	for i := 0; i < 60 && b-a > 1e-9*(1+b); i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = eval(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = eval(x2)
		}
	}
	tau := (a + b) / 2
	if t := eval(tau); t < bestT {
		q := p
		q.Tau0 = tau
		return q, t
	}
	return p, bestT
}

// neighbors returns the grid values bracketing x, clamped to the grid
// span: when x is the smallest (largest) grid value the bracket starts
// (ends) at x itself, so refinement can never probe τ0 outside the
// domain the grid was built for (e.g. beyond the system's baseline
// time).
func neighbors(grid []float64, x float64) (lo, hi float64) {
	lo, hi = x, x
	for _, g := range grid {
		if g < x && (lo == x || g > lo) {
			lo = g
		}
		if g > x && (hi == x || g < hi) {
			hi = g
		}
	}
	return lo, hi
}

// Tau0Grid builds a log-spaced τ0 candidate grid spanning (0, T_B): from
// a small fraction of the cheapest checkpoint (or minFrac·T_B, whichever
// is larger) up to the baseline time.
func Tau0Grid(sys *system.System, points int) []float64 {
	if points < 2 {
		points = 2
	}
	minCkpt := math.Inf(1)
	for _, l := range sys.Levels {
		if l.Checkpoint < minCkpt {
			minCkpt = l.Checkpoint
		}
	}
	lo := minCkpt / 8
	if lo < sys.BaselineTime*1e-6 {
		lo = sys.BaselineTime * 1e-6
	}
	hi := sys.BaselineTime
	if lo >= hi {
		lo = hi / 1024
	}
	out := make([]float64, points)
	ratio := math.Pow(hi/lo, 1/float64(points-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[points-1] = hi
	return out
}

// DefaultCounts is the shared N_i candidate set: dense for small values
// where the optimum usually lies, geometric above.
func DefaultCounts() []int {
	return []int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64}
}

// PrefixLevelSets returns the level subsets {1..ℓ} for ℓ = 1..L — the
// level-exclusion family of the paper's Section IV-F (a short
// application may be better off skipping the costly top levels).
func PrefixLevelSets(numLevels int) [][]int {
	out := make([][]int, numLevels)
	for l := 1; l <= numLevels; l++ {
		out[l-1] = pattern.LowestLevels(l)
	}
	return out
}
