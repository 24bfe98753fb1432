package optimize

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/system"
)

func testSys() *system.System {
	return &system.System{
		Name:         "opt",
		MTBF:         50,
		BaselineTime: 500,
		Levels: []system.Level{
			{Checkpoint: 0.5, Restart: 0.5, SeverityProb: 0.8},
			{Checkpoint: 4, Restart: 4, SeverityProb: 0.2},
		},
	}
}

func TestSweepFindsAnalyticOptimum(t *testing.T) {
	// Objective with a known unique optimum: quadratic bowl in τ0
	// centered at 3.0, preferring counts [2] and levels [1 2].
	obj := func(p pattern.Plan) (float64, bool) {
		v := (p.Tau0 - 3) * (p.Tau0 - 3)
		if len(p.Counts) == 1 {
			d := float64(p.Counts[0] - 2)
			v += d * d
		} else {
			v += 100
		}
		return 1 + v, true
	}
	space := Space{
		Tau0:      []float64{0.5, 1, 2, 3, 4, 8},
		CountVals: []int{0, 1, 2, 3, 4},
		LevelSets: [][]int{{1}, {1, 2}},
		Workers:   3,
	}
	res, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Tau0 != 3 || len(res.Plan.Counts) != 1 || res.Plan.Counts[0] != 2 {
		t.Fatalf("best plan = %v", res.Plan)
	}
	if res.ExpectedTime != 1 {
		t.Fatalf("best value = %v", res.ExpectedTime)
	}
	// Evaluations: levels{1}: 6 τ0 × 1 = 6; levels{1,2}: 6 τ0 × 5 = 30.
	if res.Evaluated != 36 {
		t.Fatalf("evaluated = %d, want 36", res.Evaluated)
	}
}

func TestSweepRefinement(t *testing.T) {
	// Continuous optimum at τ0 = e (between grid points 2 and 3).
	obj := func(p pattern.Plan) (float64, bool) {
		return 1 + (p.Tau0-math.E)*(p.Tau0-math.E), true
	}
	space := Space{
		Tau0:       []float64{1, 2, 3, 4},
		LevelSets:  [][]int{{1}},
		RefineTau0: true,
	}
	res, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Plan.Tau0-math.E) > 1e-6 {
		t.Fatalf("refined τ0 = %v, want e", res.Plan.Tau0)
	}
}

func TestSweepAllRejected(t *testing.T) {
	obj := func(pattern.Plan) (float64, bool) { return 0, false }
	space := Space{Tau0: []float64{1, 2}, LevelSets: [][]int{{1}}}
	_, err := Sweep(space, obj)
	if err != ErrNoFeasiblePlan {
		t.Fatalf("err = %v, want ErrNoFeasiblePlan", err)
	}
}

func TestSweepEmptySpace(t *testing.T) {
	obj := func(pattern.Plan) (float64, bool) { return 1, true }
	if _, err := Sweep(Space{}, obj); err == nil {
		t.Fatal("empty space accepted")
	}
	if _, err := Sweep(Space{Tau0: []float64{1}}, obj); err == nil {
		t.Fatal("no level sets accepted")
	}
}

func TestSweepRejectsNaNAndInf(t *testing.T) {
	obj := func(p pattern.Plan) (float64, bool) {
		if p.Tau0 == 1 {
			return math.NaN(), true
		}
		if p.Tau0 == 2 {
			return math.Inf(1), true
		}
		return 10, true
	}
	space := Space{Tau0: []float64{1, 2, 3}, LevelSets: [][]int{{1}}}
	res, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Tau0 != 3 {
		t.Fatalf("picked %v", res.Plan)
	}
}

func TestMaxPeriodIntervalsPrunes(t *testing.T) {
	var seen []int
	obj := func(p pattern.Plan) (float64, bool) {
		seen = append(seen, p.PeriodIntervals())
		return 1, true
	}
	space := Space{
		Tau0:               []float64{1},
		CountVals:          []int{0, 3, 9},
		LevelSets:          [][]int{{1, 2}},
		MaxPeriodIntervals: 5,
		Workers:            1,
	}
	if _, err := Sweep(space, obj); err != nil {
		t.Fatal(err)
	}
	sort.Ints(seen)
	// Periods: N+1 ∈ {1, 4, 10}; 10 pruned.
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 4 {
		t.Fatalf("seen periods %v", seen)
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	obj := func(p pattern.Plan) (float64, bool) {
		return p.Tau0 + float64(p.PeriodIntervals()), true
	}
	space := Space{
		Tau0:      Tau0Grid(testSys(), 16),
		CountVals: []int{0, 1, 2},
		LevelSets: PrefixLevelSets(2),
	}
	space.Workers = 1
	r1, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	space.Workers = 7
	r7, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExpectedTime != r7.ExpectedTime {
		t.Fatalf("worker count changed optimum: %v vs %v", r1.ExpectedTime, r7.ExpectedTime)
	}
	if r1.Evaluated != r7.Evaluated {
		t.Fatalf("worker count changed eval count: %d vs %d", r1.Evaluated, r7.Evaluated)
	}
}

func TestForEachCounts(t *testing.T) {
	var got [][]int
	forEachCounts(2, []int{0, 1}, func(c []int) {
		got = append(got, append([]int(nil), c...))
	})
	if len(got) != 4 {
		t.Fatalf("enumerated %d vectors, want 4", len(got))
	}
	want := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("enumeration = %v", got)
		}
	}
	n := 0
	forEachCounts(0, []int{1, 2, 3}, func(c []int) {
		if len(c) != 0 {
			t.Fatal("zero-length vector should be empty")
		}
		n++
	})
	if n != 1 {
		t.Fatalf("zero-length enumeration ran %d times", n)
	}
	forEachCounts(2, nil, func([]int) { t.Fatal("no vals should not enumerate") })
}

func TestTau0Grid(t *testing.T) {
	sys := testSys()
	g := Tau0Grid(sys, 32)
	if len(g) != 32 {
		t.Fatalf("len = %d", len(g))
	}
	if g[len(g)-1] != sys.BaselineTime {
		t.Fatalf("grid must end at T_B: %v", g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing at %d: %v", i, g[i-1:i+1])
		}
	}
	if g[0] <= 0 || g[0] > sys.Levels[0].Checkpoint {
		t.Fatalf("grid start %v implausible", g[0])
	}
	if got := Tau0Grid(sys, 1); len(got) != 2 {
		t.Fatalf("points floor failed: %d", len(got))
	}
}

func TestPrefixLevelSets(t *testing.T) {
	sets := PrefixLevelSets(3)
	if len(sets) != 3 {
		t.Fatalf("len = %d", len(sets))
	}
	if len(sets[0]) != 1 || sets[0][0] != 1 {
		t.Fatalf("sets[0] = %v", sets[0])
	}
	if len(sets[2]) != 3 || sets[2][2] != 3 {
		t.Fatalf("sets[2] = %v", sets[2])
	}
}

func TestNeighbors(t *testing.T) {
	grid := []float64{1, 2, 4, 8}
	lo, hi := neighbors(grid, 4)
	if lo != 2 || hi != 8 {
		t.Fatalf("neighbors(4) = %v,%v", lo, hi)
	}
	// The bracket is clamped to the grid span at both ends: refinement
	// must never probe τ0 below the grid minimum or above the maximum.
	lo, hi = neighbors(grid, 1)
	if lo != 1 || hi != 2 {
		t.Fatalf("neighbors(1) = %v,%v", lo, hi)
	}
	lo, hi = neighbors(grid, 8)
	if lo != 4 || hi != 8 {
		t.Fatalf("neighbors(8) = %v,%v", lo, hi)
	}
}

// TestRefineStaysInGridSpan is the regression test for the unclamped
// refinement bracket: with the optimum at the last grid point, the old
// neighbors() probed τ0 up to 2× the grid maximum (beyond the model
// domain the grid encodes, e.g. the system's baseline time).
func TestRefineStaysInGridSpan(t *testing.T) {
	grid := []float64{1, 2, 4, 8}
	for _, opt := range []float64{grid[0], grid[len(grid)-1]} {
		opt := opt
		var mu sync.Mutex
		probed := []float64{}
		obj := func(p pattern.Plan) (float64, bool) {
			mu.Lock()
			probed = append(probed, p.Tau0)
			mu.Unlock()
			return 1 + (p.Tau0-opt)*(p.Tau0-opt), true
		}
		res, err := Sweep(Space{Tau0: grid, LevelSets: [][]int{{1}}, RefineTau0: true}, obj)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Tau0 != opt {
			t.Errorf("optimum %v: refined to %v", opt, res.Plan.Tau0)
		}
		for _, tau := range probed {
			if tau < grid[0] || tau > grid[len(grid)-1] {
				t.Errorf("optimum %v: objective probed τ0=%v outside grid span [%v, %v]",
					opt, tau, grid[0], grid[len(grid)-1])
			}
		}
	}
}

// TestSweepTieBreakIndependentOfWorkers is the regression test for the
// worker-order tie-break: with a constant objective every candidate
// ties, and the winner must be the lexicographically smallest
// (τ0, levels, counts) regardless of worker count.
func TestSweepTieBreakIndependentOfWorkers(t *testing.T) {
	obj := func(pattern.Plan) (float64, bool) { return 7, true }
	space := Space{
		Tau0:      []float64{4, 2, 1, 3}, // deliberately unsorted
		CountVals: []int{2, 0, 1},
		LevelSets: [][]int{{1, 2}, {1}, {2}},
	}
	var want Result
	for i, workers := range []int{1, 2, 4, 8, 13} {
		space.Workers = workers
		got, err := Sweep(space, obj)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			// Smallest τ0 first, then levels lexicographically: {1}
			// precedes {1,2} precedes {2}; {1} has no counts.
			if want.Plan.Tau0 != 1 || len(want.Plan.Levels) != 1 || want.Plan.Levels[0] != 1 {
				t.Fatalf("tie-break winner = %v", want.Plan)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result %+v differs from workers=1 result %+v", workers, got, want)
		}
	}
}

// TestSweepZeroLengthCountsIndependentOfWorkers: the optimum lies in
// level set {1}, whose count vector has length zero. With one worker the
// winning cell comes after a {1,2} improvement that left a count vector
// in the worker's best; with four, a barrier makes each worker take
// exactly one cell, so the winner's worker never held one. Both must
// report the same nil Counts.
func TestSweepZeroLengthCountsIndependentOfWorkers(t *testing.T) {
	values := map[float64][2]float64{ // τ0 → objective for {1}, {1,2}
		1: {10, 5},
		2: {1, 7},
	}
	space := Space{
		Tau0:      []float64{1, 2},
		CountVals: []int{3},
		LevelSets: [][]int{{1}, {1, 2}},
	}
	var results []Result
	for _, workers := range []int{1, 4} {
		space.Workers = workers
		var barrier sync.WaitGroup
		barrier.Add(workers)
		res, err := SweepObjectives(space, func(int, *obs.Registry) Objective {
			var once sync.Once
			return func(p pattern.Plan) (float64, bool) {
				once.Do(func() { barrier.Done(); barrier.Wait() })
				return values[p.Tau0][len(p.Levels)-1], true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("workers=1 result %#v differs from workers=4 result %#v", results[0], results[1])
	}
	if p := results[0].Plan; p.Tau0 != 2 || len(p.Levels) != 1 || p.Counts != nil {
		t.Fatalf("plan %#v, want τ0 2, levels [1], nil counts", p)
	}
}

func TestPlanLess(t *testing.T) {
	base := pattern.Plan{Tau0: 2, Levels: []int{1, 2}, Counts: []int{3}}
	cases := []struct {
		a, b pattern.Plan
		want bool
	}{
		{pattern.Plan{Tau0: 1, Levels: []int{1, 2}, Counts: []int{3}}, base, true},
		{pattern.Plan{Tau0: 3, Levels: []int{1, 2}, Counts: []int{3}}, base, false},
		{pattern.Plan{Tau0: 2, Levels: []int{1}}, base, true},  // prefix precedes
		{pattern.Plan{Tau0: 2, Levels: []int{2}}, base, false}, // [2] after [1 2]
		{pattern.Plan{Tau0: 2, Levels: []int{1, 2}, Counts: []int{2}}, base, true},
		{pattern.Plan{Tau0: 2, Levels: []int{1, 2}, Counts: []int{4}}, base, false},
		{base, base, false},
	}
	for i, c := range cases {
		if got := planLess(c.a, c.b); got != c.want {
			t.Errorf("case %d: planLess(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestSweepLowerBoundPrune checks that an admissible lower bound changes
// the objective-call count but never the result, and that the sweep's
// telemetry counters account for every candidate.
func TestSweepLowerBoundPrune(t *testing.T) {
	obj := func(p pattern.Plan) (float64, bool) {
		return p.Tau0 + float64(p.PeriodIntervals()), true
	}
	space := Space{
		Tau0:      Tau0Grid(testSys(), 24),
		CountVals: []int{0, 1, 2, 4},
		LevelSets: PrefixLevelSets(2),
		Workers:   1,
	}
	plain, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	space.Metrics = reg
	// Admissible: the bound never exceeds the true value.
	space.LowerBound = func(p pattern.Plan) float64 { return p.Tau0 }
	pruned, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, pruned) {
		t.Fatalf("pruned sweep result %+v differs from plain %+v", pruned, plain)
	}
	snap := reg.Snapshot()
	nPruned := snap.Counter("opt_pruned_total")
	nEvals := snap.Counter("opt_evaluations_total")
	if nPruned == 0 {
		t.Error("expected some candidates pruned")
	}
	if got := snap.Counter("opt_candidates_total"); got != nEvals+nPruned {
		t.Errorf("candidates=%d != evaluations=%d + pruned=%d", got, nEvals, nPruned)
	}
	if got := snap.Counter("opt_candidates_total"); got != uint64(pruned.Evaluated) {
		t.Errorf("candidates counter %d != Result.Evaluated %d", got, pruned.Evaluated)
	}
}

// TestSweepObjectivesPerWorker checks that the factory runs once per
// worker (plus once for refinement) and that goroutine-local objectives
// produce the same result as a shared one.
func TestSweepObjectivesPerWorker(t *testing.T) {
	var mu sync.Mutex
	built := 0
	factory := func(worker int, reg *obs.Registry) Objective {
		mu.Lock()
		built++
		mu.Unlock()
		if reg == nil {
			t.Error("factory got nil metrics registry")
		}
		memoHits := reg.Counter("test_objective_calls_total")
		return func(p pattern.Plan) (float64, bool) {
			memoHits.Inc()
			return 1 + (p.Tau0-3)*(p.Tau0-3), true
		}
	}
	space := Space{
		Tau0:       []float64{1, 2, 3, 4, 5, 6, 7, 8},
		LevelSets:  [][]int{{1}},
		Workers:    4,
		RefineTau0: true,
		Metrics:    obs.NewRegistry(),
	}
	res, err := SweepObjectives(space, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Tau0 != 3 {
		t.Fatalf("best τ0 = %v", res.Plan.Tau0)
	}
	if built != 5 { // 4 workers + 1 refinement
		t.Fatalf("factory ran %d times, want 5", built)
	}
	snap := space.Metrics.Snapshot()
	if calls := snap.Counter("test_objective_calls_total"); calls < 8 {
		t.Fatalf("objective-shard counters lost: %d calls recorded", calls)
	}
	if snap.Counter("opt_refine_evaluations_total") == 0 {
		t.Fatal("refinement evaluations not counted")
	}
}

// TestSweepScratchCountsCopied guards the allocation-free hot path: the
// Counts slice handed to objectives is scratch, but the winning plan
// must hold a stable private copy.
func TestSweepScratchCountsCopied(t *testing.T) {
	var seen []*int // first element of every Counts slice the objective saw
	obj := func(p pattern.Plan) (float64, bool) {
		if len(p.Counts) > 0 {
			seen = append(seen, &p.Counts[0])
		}
		d := float64(p.Counts[0] - 2)
		return 1 + d*d, true
	}
	space := Space{
		Tau0:      []float64{1},
		CountVals: []int{0, 1, 2, 3},
		LevelSets: [][]int{{1, 2}},
		Workers:   1,
	}
	res, err := Sweep(space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Counts) != 1 || res.Plan.Counts[0] != 2 {
		t.Fatalf("best counts = %v", res.Plan.Counts)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[0] {
			t.Fatal("objective saw reallocated scratch; hot path is not allocation-free")
		}
	}
	if len(seen) > 0 && &res.Plan.Counts[0] == seen[0] {
		t.Fatal("result aliases the scratch buffer")
	}
}

func TestForEachCountsEdgeCases(t *testing.T) {
	// Empty candidate set with a multi-level vector: nothing to
	// enumerate (no zero-length phantom vector).
	calls := 0
	forEachCounts(3, nil, func([]int) { calls++ })
	if calls != 0 {
		t.Fatalf("empty vals enumerated %d vectors", calls)
	}
	// ...but a zero-length vector is still one (empty) enumeration even
	// with no candidate values, matching single-level plans.
	calls = 0
	forEachCounts(0, nil, func(c []int) {
		if len(c) != 0 {
			t.Fatalf("zero-length enumeration got %v", c)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("zero-length enumeration ran %d times", calls)
	}
	// Single-value grid: exactly one vector, repeated value.
	var got [][]int
	forEachCounts(3, []int{5}, func(c []int) {
		got = append(got, append([]int(nil), c...))
	})
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{5, 5, 5}) {
		t.Fatalf("single-value enumeration = %v", got)
	}
	// Scratch reuse across calls with different lengths.
	var s countScratch
	s.forEach(2, []int{1, 2}, func(c []int) {})
	sum := 0
	s.forEach(1, []int{3}, func(c []int) { sum += c[0] })
	if sum != 3 {
		t.Fatalf("scratch reuse across lengths broke enumeration: sum=%d", sum)
	}
}

func TestTau0GridDegenerate(t *testing.T) {
	check := func(name string, g []float64, tb float64) {
		t.Helper()
		if len(g) < 2 {
			t.Fatalf("%s: grid too short: %v", name, g)
		}
		if g[len(g)-1] != tb {
			t.Fatalf("%s: grid must end at T_B=%v: %v", name, tb, g)
		}
		for i, v := range g {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("%s: grid[%d]=%v not positive finite", name, i, v)
			}
			if i > 0 && v <= g[i-1] {
				t.Fatalf("%s: grid not strictly increasing at %d: %v", name, i, g[i-1:i+1])
			}
		}
	}
	sys := testSys()
	for _, points := range []int{-3, 0, 1} {
		check("points<2", Tau0Grid(sys, points), sys.BaselineTime)
	}
	// Checkpoint cost at/above the baseline: the lo >= hi fallback.
	expensive := &system.System{
		Name:         "expensive",
		MTBF:         50,
		BaselineTime: 100,
		Levels: []system.Level{
			{Checkpoint: 100, Restart: 100, SeverityProb: 0.5},
			{Checkpoint: 5000, Restart: 5000, SeverityProb: 0.5},
		},
	}
	check("ckpt>=tb", Tau0Grid(expensive, 16), expensive.BaselineTime)
	// Sweeping such a grid still works end to end.
	res, err := Sweep(Space{
		Tau0:      Tau0Grid(expensive, 16),
		LevelSets: [][]int{{1}},
	}, func(p pattern.Plan) (float64, bool) { return p.Tau0, true })
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Plan.Tau0 > 0) {
		t.Fatalf("degenerate grid sweep returned %v", res.Plan)
	}
}

func TestDefaultCountsSortedUnique(t *testing.T) {
	c := DefaultCounts()
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Fatalf("counts not strictly increasing: %v", c)
		}
	}
	if c[0] != 0 {
		t.Fatal("counts must include 0 (no checkpoints of a level)")
	}
}
