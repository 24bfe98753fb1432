package sim

import (
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"

	"repro/internal/markov"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/system"
)

func twoLevel(mtbf, tb float64) *system.System {
	return &system.System{
		Name:         "sim2",
		MTBF:         mtbf,
		BaselineTime: tb,
		Levels: []system.Level{
			{Checkpoint: 0.333, Restart: 0.333, SeverityProb: 0.833},
			{Checkpoint: 0.833, Restart: 0.833, SeverityProb: 0.167},
		},
	}
}

func planBoth(tau0 float64, n1 int) pattern.Plan {
	return pattern.Plan{Tau0: tau0, Counts: []int{n1}, Levels: []int{1, 2}}
}

func seed(name string) rng.Seed {
	return rng.Campaign(1234, "simtest").Scenario(name)
}

func TestFailureFreeRun(t *testing.T) {
	sys := twoLevel(1e15, 100)
	cfg := Scenario{System: sys, Plan: planBoth(10, 1)}
	res, err := RunTrial(cfg, seed("free").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("failure-free run did not complete")
	}
	// 10 intervals of 10; pattern (ck1, ck2) repeating; the 10th
	// interval completes the app before its checkpoint. 9 checkpoints:
	// positions 1..9 → 5×ck1 + 4×ck2.
	wantCkpt := 5*0.333 + 4*0.833
	if math.Abs(res.Breakdown.CheckpointOK-wantCkpt) > 1e-9 {
		t.Fatalf("checkpoint time = %v, want %v", res.Breakdown.CheckpointOK, wantCkpt)
	}
	if math.Abs(res.WallTime-(100+wantCkpt)) > 1e-9 {
		t.Fatalf("wall = %v", res.WallTime)
	}
	if res.Breakdown.LostCompute != 0 || res.Breakdown.RestartOK != 0 {
		t.Fatalf("unexpected overhead: %+v", res.Breakdown)
	}
	if res.TotalFailures() != 0 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestBreakdownSumsToWallTime(t *testing.T) {
	sys := twoLevel(10, 300)
	cfg := Scenario{System: sys, Plan: planBoth(2, 3)}
	s := seed("sum")
	for i := 0; i < 50; i++ {
		res, err := RunTrial(cfg, s.Trial(i).Rand())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-6 {
			t.Fatalf("trial %d: breakdown %v != wall %v", i, res.Breakdown.Total(), res.WallTime)
		}
		if res.Completed && math.Abs(res.Breakdown.UsefulCompute-300) > 1e-6 {
			t.Fatalf("trial %d: useful compute %v != T_B", i, res.Breakdown.UsefulCompute)
		}
		if res.Efficiency <= 0 || res.Efficiency > 1 {
			t.Fatalf("trial %d: efficiency %v", i, res.Efficiency)
		}
	}
}

func TestAgreementWithExactMarkovChain(t *testing.T) {
	// Steady-state cross-validation: the simulator's mean wall time
	// over a long application must match the exact Markov period chain
	// under identical (Retry) semantics.
	sys := twoLevel(24, 1440)
	plan := planBoth(3, 2)
	chain, err := buildRetryChain(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	periodTime, err := chain.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	wantWall := periodTime * sys.BaselineTime / chain.Work()

	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: plan},
		Trials:   600,
		Seed:     seed("markov-x"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Trials {
		t.Fatalf("only %d/%d trials completed", res.Completed, res.Trials)
	}
	rel := math.Abs(res.WallTime.Mean-wantWall) / wantWall
	if rel > 0.03 {
		t.Fatalf("sim mean wall %v vs markov %v (rel %.3f)", res.WallTime.Mean, wantWall, rel)
	}
}

// buildRetryChain mirrors moody.BuildChain but with Retry semantics, to
// match the simulator's default policy.
func buildRetryChain(sys *system.System, plan pattern.Plan) (*markov.Chain, error) {
	c := &markov.Chain{Policy: markov.Retry}
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		c.Rates = append(c.Rates, sys.LevelRate(sev))
		c.RestartTime = append(c.RestartTime, sys.Levels[sev-1].Restart)
	}
	n := plan.PeriodIntervals()
	for k := 0; k < n; k++ {
		c.Segments = append(c.Segments, markov.Segment{Kind: markov.Compute, Duration: plan.Tau0})
		lvl := plan.Levels[plan.LevelAfterInterval(k)]
		c.Segments = append(c.Segments, markov.Segment{
			Kind: markov.Checkpoint, Duration: sys.Levels[lvl-1].Checkpoint, Level: lvl,
		})
	}
	return c, nil
}

func TestFailureCountsMatchPoissonRates(t *testing.T) {
	// Mean failures per severity must equal rate × mean wall time.
	sys := twoLevel(12, 720)
	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(2, 3)},
		Trials:   400,
		Seed:     seed("poisson"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for sev := 1; sev <= 2; sev++ {
		want := sys.LevelRate(sev) * res.WallTime.Mean
		got := res.MeanFailures[sev-1]
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("severity %d: mean failures %v, want ~%v", sev, got, want)
		}
	}
}

func TestSeverityTwoRollsPastLevelOne(t *testing.T) {
	// With identical total rates, severity-2-only failures must hurt
	// more than severity-1-only failures (they roll back to the rarer
	// level-2 checkpoints and pay the bigger restart).
	mk := func(p1 float64) *system.System {
		s := twoLevel(10, 720)
		s.Levels[0].SeverityProb = p1
		s.Levels[1].SeverityProb = 1 - p1
		return s
	}
	plan := planBoth(2, 5)
	run := func(sys *system.System, name string) float64 {
		camp := Campaign{Scenario: Scenario{System: sys, Plan: plan}, Trials: 150, Seed: seed(name)}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency.Mean
	}
	effSev1 := run(mk(0.999999), "sev1")
	effSev2 := run(mk(0.000001), "sev2")
	if !(effSev2 < effSev1) {
		t.Fatalf("severity-2 failures should cost more: %v vs %v", effSev2, effSev1)
	}
}

func TestScratchRestartWhenTopLevelSkipped(t *testing.T) {
	// Plan uses only level 1; severity-2 failures have no checkpoint to
	// read and must restart the application from zero progress.
	sys := twoLevel(30, 60)
	plan := pattern.Plan{Tau0: 5, Levels: []int{1}}
	camp := Campaign{Scenario: Scenario{System: sys, Plan: plan}, Trials: 300, Seed: seed("scratch")}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanScratchRestarts <= 0 {
		t.Fatal("expected scratch restarts")
	}
	if res.Completed == 0 {
		t.Fatal("no trial completed")
	}
	// No level-2 restarts can ever be charged.
	if res.MeanBreakdown.RestartOK > 0 {
		// level-1 restarts exist; ensure they are cheap ones only by
		// bounding each restart at R_1... indirect: mean restart time
		// per failure must be <= R_1 plus slack.
		perFailure := res.MeanBreakdown.RestartOK / math.Max(res.MeanFailures[0], 1e-9)
		if perFailure > sys.Levels[0].Restart*1.5 {
			t.Fatalf("restart cost per severity-1 failure %v too high", perFailure)
		}
	}
}

func TestHopelessSystemHitsCap(t *testing.T) {
	// Checkpoints cost many MTBFs: the run cannot finish and must stop
	// at the wall cap with tiny efficiency.
	sys := &system.System{
		Name: "hopeless", MTBF: 0.5, BaselineTime: 50,
		Levels: []system.Level{
			{Checkpoint: 5, Restart: 5, SeverityProb: 0.5},
			{Checkpoint: 50, Restart: 50, SeverityProb: 0.5},
		},
	}
	cfg := Scenario{System: sys, Plan: planBoth(1, 1), MaxWallFactor: 20}
	res, err := RunTrial(cfg, seed("cap").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("hopeless run completed")
	}
	if math.Abs(res.WallTime-20*50) > 1e-6 {
		t.Fatalf("wall = %v, want cap 1000", res.WallTime)
	}
	if res.Efficiency > 0.05 {
		t.Fatalf("efficiency = %v", res.Efficiency)
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-6 {
		t.Fatalf("breakdown %v != wall %v", res.Breakdown.Total(), res.WallTime)
	}
}

func TestEscalatePolicyCostsAtLeastRetry(t *testing.T) {
	sys := twoLevel(4, 360)
	plan := planBoth(1, 3)
	run := func(p RestartPolicy, name string) float64 {
		camp := Campaign{Scenario: Scenario{System: sys, Plan: plan, Policy: p}, Trials: 200, Seed: seed(name)}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency.Mean
	}
	retry := run(RetryPolicy, "retry-pol")
	esc := run(EscalatePolicy, "esc-pol")
	if esc > retry*1.02 {
		t.Fatalf("escalation should not beat retry: %v vs %v", esc, retry)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(15, 200), Plan: planBoth(2, 2)},
		Trials:   50,
		Seed:     seed("det"),
	}
	camp.Workers = 1
	a, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	camp.Workers = 8
	b, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Efficiency.Mean != b.Efficiency.Mean || a.WallTime.Std != b.WallTime.Std {
		t.Fatalf("worker count changed results: %+v vs %+v", a.Efficiency, b.Efficiency)
	}
	for i := range a.Efficiencies {
		if a.Efficiencies[i] != b.Efficiencies[i] {
			t.Fatalf("trial %d efficiency differs", i)
		}
	}
}

func TestCampaignSeedsDiffer(t *testing.T) {
	cfg := Scenario{System: twoLevel(15, 200), Plan: planBoth(2, 2)}
	a, err := Campaign{Scenario: cfg, Trials: 30, Seed: seed("s1")}.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign{Scenario: cfg, Trials: 30, Seed: seed("s2")}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Efficiency.Mean == b.Efficiency.Mean {
		t.Fatal("different seeds produced identical campaigns")
	}
	// But statistically indistinguishable.
	sig, err := stats.SignificantlyGreater(a.Efficiency, b.Efficiency, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if sig {
		t.Fatalf("same scenario flagged significantly different: %+v vs %+v", a.Efficiency, b.Efficiency)
	}
}

func TestBreakdownShareSumsToOne(t *testing.T) {
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(8, 300), Plan: planBoth(1.5, 4)},
		Trials:   100,
		Seed:     seed("share"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BreakdownShare.Total(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("breakdown share total = %v", got)
	}
	if res.BreakdownShare.UsefulCompute <= 0 || res.BreakdownShare.UsefulCompute >= 1 {
		t.Fatalf("useful share = %v", res.BreakdownShare.UsefulCompute)
	}
}

type collectObserver struct{ events []Event }

func (c *collectObserver) Observe(e Event) { c.events = append(c.events, e) }

func TestObserverStream(t *testing.T) {
	obs := &collectObserver{}
	eng, err := NewEngine(Scenario{System: twoLevel(20, 60), Plan: planBoth(5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(obs)
	res, err := eng.Run(seed("obs").Trial(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.events) == 0 {
		t.Fatal("no events observed")
	}
	last := obs.events[len(obs.events)-1]
	if res.Completed && last.Kind != EvComplete {
		t.Fatalf("last event = %v", last.Kind)
	}
	prev := -1.0
	var failures int
	for _, e := range obs.events {
		if e.Time < prev-1e-12 {
			t.Fatalf("event times regress: %v after %v", e.Time, prev)
		}
		prev = e.Time
		if e.Kind == EvFailure {
			failures++
		}
	}
	if failures != res.TotalFailures() {
		t.Fatalf("observer saw %d failures, result has %d", failures, res.TotalFailures())
	}
}

func TestScenarioValidation(t *testing.T) {
	good := Scenario{System: twoLevel(10, 100), Plan: planBoth(1, 1)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.System = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil system accepted")
	}
	bad = good
	bad.Plan.Tau0 = -1
	if err := bad.Validate(); err == nil {
		t.Error("bad plan accepted")
	}
	bad = good
	bad.MaxWallFactor = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative cap accepted")
	}
	if _, err := RunTrial(good, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := (Campaign{Scenario: good, Trials: 0}).Run(); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestCampaignWorkersValidation(t *testing.T) {
	good := Scenario{System: twoLevel(10, 100), Plan: planBoth(1, 1)}
	if _, err := (Campaign{Scenario: good, Trials: 2, Workers: -1, Seed: seed("w")}).Run(); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := (Campaign{Scenario: good, Trials: 2, Workers: 1 << 20, Seed: seed("w")}).Run(); err == nil {
		t.Error("absurd Workers accepted")
	}
	// Workers above Trials is merely clamped, not an error.
	if _, err := (Campaign{Scenario: good, Trials: 2, Workers: 16, Seed: seed("w")}).Run(); err != nil {
		t.Errorf("Workers > Trials rejected: %v", err)
	}
}

func TestStringers(t *testing.T) {
	if EvFailure.String() != "failure" || PhaseRestart.String() != "restart" {
		t.Fatal("stringers wrong")
	}
	if EventKind(99).String() == "" || Phase(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestAsyncFlushFailureFreeArithmetic(t *testing.T) {
	// Failure-free async run blocks only for the capture cost at top
	// checkpoints: wall = T_B + (#L1 ckpts + #top captures)·δ1.
	sys := twoLevel(1e15, 100)
	cfg := Scenario{System: sys, Plan: planBoth(10, 1), AsyncTopFlush: true}
	res, err := RunTrial(cfg, seed("async-free").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	// 9 checkpoints (5×L1 + 4×top), each top blocked at δ1 = 0.333.
	wantCkpt := 9 * 0.333
	if math.Abs(res.Breakdown.CheckpointOK-wantCkpt) > 1e-9 {
		t.Fatalf("checkpoint time = %v, want %v", res.Breakdown.CheckpointOK, wantCkpt)
	}
	if math.Abs(res.WallTime-(100+wantCkpt)) > 1e-9 {
		t.Fatalf("wall = %v", res.WallTime)
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-9 {
		t.Fatal("breakdown does not sum to wall")
	}
}

func TestAsyncFlushCommitsTopLevel(t *testing.T) {
	// After a flush completes, a severity-2 failure must restart from
	// the flushed top-level checkpoint, not from scratch.
	sys := twoLevel(1e15, 1000) // failures injected manually below
	plan := planBoth(10, 0)     // top checkpoint after every interval
	ctl := &scriptedFailures{times: []float64{200}, severities: []int{2}}
	cfg := Scenario{
		System: sys, Plan: plan, AsyncTopFlush: true,
		FailureLaws: ctl.laws(sys),
	}
	res, err := RunTrial(cfg, seed("async-commit").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if res.ScratchRestarts != 0 {
		t.Fatalf("scratch restart despite flushed top checkpoint: %+v", res)
	}
	if res.Failures[1] != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
}

func TestAsyncFlushAbortedByQuickFailure(t *testing.T) {
	// A severity-2 failure arriving during the very first flush (top
	// write takes 50 min here) must find NO top-level checkpoint and
	// restart from scratch.
	sys := twoLevel(1e15, 1000)
	sys.Levels[1].Checkpoint = 50
	sys.Levels[1].Restart = 50
	plan := planBoth(10, 0)
	ctl := &scriptedFailures{times: []float64{10.5}, severities: []int{2}}
	cfg := Scenario{
		System: sys, Plan: plan, AsyncTopFlush: true,
		FailureLaws: ctl.laws(sys),
	}
	res, err := RunTrial(cfg, seed("async-abort").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if res.ScratchRestarts != 1 {
		t.Fatalf("expected scratch restart (flush aborted): %+v", res)
	}
}

func TestFailureAtFlushDeadlineAbortsFlush(t *testing.T) {
	// A severity-2 arrival at exactly the first flush's deadline was
	// scheduled before the flush (at trial start), so the FIFO
	// tie-break pops it first: it aborts the flush, no top-level
	// checkpoint exists, and the recovery restarts from scratch. The
	// conformance checker's resolveFlush assumes this rule.
	sys := twoLevel(1e15, 100)
	plan := planBoth(10, 0) // every checkpoint is an async top-level one
	deadline := (plan.Tau0 + sys.Levels[0].Checkpoint) + sys.Levels[1].Checkpoint
	ctl := &scriptedFailures{times: []float64{deadline}, severities: []int{2}}
	cfg := Scenario{
		System: sys, Plan: plan, AsyncTopFlush: true,
		FailureLaws: ctl.laws(sys),
	}
	res, err := RunTrial(cfg, seed("async-tie").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures[1] != 1 {
		t.Fatalf("failures = %v, want one severity-2 arrival", res.Failures)
	}
	if res.ScratchRestarts != 1 {
		t.Fatalf("ScratchRestarts = %d, want 1: the flush committed before the tied failure", res.ScratchRestarts)
	}
}

func TestAsyncBeatsSyncOnPFSHeavySystem(t *testing.T) {
	sys := twoLevel(15, 720)
	sys.Levels[1].Checkpoint = 10
	sys.Levels[1].Restart = 10
	plan := planBoth(3, 3)
	run := func(async bool, name string) float64 {
		camp := Campaign{
			Scenario: Scenario{System: sys, Plan: plan, AsyncTopFlush: async},
			Trials:   150, Seed: seed(name),
		}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency.Mean
	}
	sync := run(false, "sync-pfs")
	async := run(true, "async-pfs")
	if !(async > sync+0.02) {
		t.Fatalf("async %v should clearly beat sync %v when PFS writes are long", async, sync)
	}
}

func TestAsyncIgnoredForSingleLevelPlan(t *testing.T) {
	sys := twoLevel(30, 120)
	plan := pattern.Plan{Tau0: 10, Levels: []int{2}}
	cfg := Scenario{System: sys, Plan: plan, AsyncTopFlush: true}
	res, err := RunTrial(cfg, seed("async-single").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-9 {
		t.Fatal("accounting broken for single-level async")
	}
}

// scriptedFailures injects failures at fixed absolute times: severity
// s-specific laws emit the scheduled arrival (as an inter-arrival from
// t=0) and then +Inf.
type scriptedFailures struct {
	times      []float64
	severities []int
}

func (s *scriptedFailures) laws(sys *system.System) []dist.Sampler {
	laws := make([]dist.Sampler, sys.NumLevels())
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		var draws []float64
		prev := 0.0
		for i, tgt := range s.times {
			if s.severities[i] == sev {
				draws = append(draws, tgt-prev)
				prev = tgt
			}
		}
		laws[sev-1] = &fixedDraws{draws: draws}
	}
	return laws
}

type fixedDraws struct {
	draws []float64
	next  int
}

func (f *fixedDraws) Sample(*rand.Rand) float64 {
	if f.next >= len(f.draws) {
		return math.Inf(1)
	}
	v := f.draws[f.next]
	f.next++
	return v
}

func (f *fixedDraws) Mean() float64 { return 0 }

// switchController swaps to a fixed plan at the n-th Replan consult.
type switchController struct {
	after    int
	plan     pattern.Plan
	consults int
	switched bool
}

func (c *switchController) OnFailure(float64, int) {}
func (c *switchController) Replan(now, progress float64) (pattern.Plan, bool) {
	c.consults++
	if c.switched || c.consults < c.after {
		return pattern.Plan{}, false
	}
	c.switched = true
	return c.plan, true
}

// runControlled runs one trial of scn with ctl installed.
func runControlled(t *testing.T, scn Scenario, ctl PlanController, s rng.Seed) (TrialResult, error) {
	t.Helper()
	eng, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	eng.Control(func() PlanController { return ctl })
	return eng.Run(s.Trial(0))
}

func TestControllerPlanSwitchPreservesProgress(t *testing.T) {
	sys := twoLevel(20, 300)
	ctl := &switchController{
		after: 3,
		plan:  pattern.Plan{Tau0: 4, Counts: []int{1}, Levels: []int{1, 2}},
	}
	res, err := runControlled(t, Scenario{System: sys, Plan: planBoth(2, 4)}, ctl, seed("switch"))
	if err != nil {
		t.Fatal(err)
	}
	if !ctl.switched {
		t.Fatal("controller never switched")
	}
	if !res.Completed {
		t.Fatal("switched run did not complete")
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-6 {
		t.Fatal("accounting broken after plan switch")
	}
}

func TestControllerSwitchToNarrowerLevelSet(t *testing.T) {
	// Switching to a plan that only uses level 2 must carry the stored
	// progress for level 2 (SCR commit rule guarantees data there).
	sys := twoLevel(1e15, 100) // no failures: deterministic
	ctl := &switchController{
		after: 2,
		plan:  pattern.Plan{Tau0: 10, Levels: []int{2}},
	}
	res, err := runControlled(t, Scenario{System: sys, Plan: planBoth(10, 0)}, ctl, seed("narrow"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Progress != 100 {
		t.Fatalf("narrowed run wrong: %+v", res)
	}
}

func TestControllerInvalidPlanAbortsTrial(t *testing.T) {
	sys := twoLevel(50, 100)
	ctl := &switchController{
		after: 1,
		plan:  pattern.Plan{Tau0: -1, Levels: []int{1}},
	}
	eng, err := NewEngine(Scenario{System: sys, Plan: planBoth(5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Control(func() PlanController { return ctl })
	if _, err := eng.Run(seed("badswitch").Trial(0)); err == nil {
		t.Fatal("invalid controller plan accepted")
	}
}

func TestControllerSwitchCancelsPendingFlush(t *testing.T) {
	// Async flush in flight + plan switch: the flush must be dropped
	// without corrupting stores (run simply completes).
	sys := twoLevel(1e15, 200)
	sys.Levels[1].Checkpoint = 30 // long flush window
	ctl := &switchController{
		after: 2,
		plan:  planBoth(20, 1),
	}
	res, err := runControlled(t, Scenario{System: sys, Plan: planBoth(10, 0), AsyncTopFlush: true}, ctl, seed("flushswitch"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-6 {
		t.Fatal("accounting broken")
	}
}

// countingObserver tallies events; one per worker via ObserverFactory.
type countingObserver struct {
	worker int
	events int
	trials int
}

func (o *countingObserver) Observe(e Event) {
	o.events++
	if e.Kind == EvComplete || e.Kind == EvCapped {
		o.trials++
	}
}

func TestCampaignObserverFactoryAndTrialDone(t *testing.T) {
	sys := twoLevel(10, 100)
	var mu sync.Mutex
	var shards []*countingObserver
	var doneTrials int
	var wallSum float64
	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(2, 3)},
		Trials:   40,
		Seed:     seed("hooks"),
		ObserverFactory: func(worker int) Observer {
			o := &countingObserver{worker: worker}
			mu.Lock()
			shards = append(shards, o)
			mu.Unlock()
			return o
		},
		TrialDone: func(r TrialResult) {
			mu.Lock()
			doneTrials++
			wallSum += r.WallTime
			mu.Unlock()
		},
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if doneTrials != 40 {
		t.Errorf("TrialDone fired %d times, want 40", doneTrials)
	}
	if math.Abs(wallSum-res.WallTime.Mean*40) > 1e-6*wallSum {
		t.Errorf("TrialDone wall sum %v vs campaign mean*n %v", wallSum, res.WallTime.Mean*40)
	}
	total := 0
	for _, s := range shards {
		total += s.trials
		if s.events == 0 {
			t.Errorf("worker %d shard observed no events", s.worker)
		}
	}
	if total != 40 {
		t.Errorf("shards observed %d trial ends, want 40", total)
	}
	if len(shards) > runtime.GOMAXPROCS(0) {
		t.Errorf("%d shards for %d max workers", len(shards), runtime.GOMAXPROCS(0))
	}
}

func TestCampaignFactoryDeterminism(t *testing.T) {
	// Per-trial seeding means results must not depend on whether an
	// observer factory is installed or how many workers run.
	sys := twoLevel(10, 100)
	base := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(2, 3)},
		Trials:   30,
		Seed:     seed("det"),
	}
	plain, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.Workers = 2
	hooked.ObserverFactory = func(int) Observer { return &countingObserver{} }
	hooked.TrialDone = func(TrialResult) {}
	withObs, err := hooked.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Efficiencies {
		if plain.Efficiencies[i] != withObs.Efficiencies[i] {
			t.Fatalf("trial %d efficiency changed with hooks: %v vs %v",
				i, plain.Efficiencies[i], withObs.Efficiencies[i])
		}
	}
}

// failingController returns an invalid plan at the first replan
// opportunity, which aborts its trial with an error.
type failingController struct{}

func (failingController) OnFailure(float64, int) {}
func (failingController) Replan(float64, float64) (pattern.Plan, bool) {
	return pattern.Plan{Tau0: -1}, true
}

func TestCampaignFailFast(t *testing.T) {
	// Only the first trial's controller is poisoned; every other trial
	// would succeed. The first error must cancel the remaining trials
	// rather than let the campaign run to completion before reporting.
	sys := twoLevel(1e15, 100)
	var made atomic.Int64
	var done atomic.Int64
	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(10, 1)},
		ControllerFactory: func() PlanController {
			if made.Add(1) == 1 {
				return failingController{}
			}
			return nil
		},
		Trials:    20000,
		Workers:   4,
		Seed:      seed("failfast"),
		TrialDone: func(TrialResult) { done.Add(1) },
	}
	_, err := camp.Run()
	if err == nil {
		t.Fatal("campaign with failing controller returned no error")
	}
	if !strings.Contains(err.Error(), "invalid plan") {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := done.Load(); n >= int64(camp.Trials)-1 {
		t.Fatalf("fail-fast did not cancel: %d of %d trials still ran", n, camp.Trials)
	}
}
