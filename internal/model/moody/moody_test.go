package moody

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/model/dauwe"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

func twoLevel(mtbf float64) *system.System {
	return &system.System{
		Name:         "two",
		MTBF:         mtbf,
		BaselineTime: 1440,
		Levels: []system.Level{
			{Checkpoint: 0.333, Restart: 0.333, SeverityProb: 0.833},
			{Checkpoint: 0.833, Restart: 0.833, SeverityProb: 0.167},
		},
	}
}

func TestRegistered(t *testing.T) {
	m, err := model.New("moody")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "moody" {
		t.Fatalf("name = %s", m.Name())
	}
}

func TestBuildChainStructure(t *testing.T) {
	sys := twoLevel(24)
	plan := pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}}
	c, err := BuildChain(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	// 3 intervals → 6 segments: (compute, ck1), (compute, ck1),
	// (compute, ck2).
	if len(c.Segments) != 6 {
		t.Fatalf("segments = %d", len(c.Segments))
	}
	if c.Segments[1].Level != 1 || c.Segments[3].Level != 1 || c.Segments[5].Level != 2 {
		t.Fatalf("checkpoint levels wrong: %+v", c.Segments)
	}
	if c.Segments[5].Duration != 0.833 {
		t.Fatalf("top checkpoint duration = %v", c.Segments[5].Duration)
	}
	if c.Work() != 9 {
		t.Fatalf("work = %v", c.Work())
	}
	if c.Policy != markov.Escalate {
		t.Fatal("Moody chain must use the escalation policy")
	}
}

func TestBuildChainRequiresAllLevels(t *testing.T) {
	sys := twoLevel(24)
	if _, err := BuildChain(sys, pattern.Plan{Tau0: 3, Levels: []int{2}}); err == nil {
		t.Fatal("partial plan accepted")
	}
}

func TestPredictPessimisticVersusDauwe(t *testing.T) {
	// On failure-heavy systems Moody's escalation makes its prediction
	// for the same plan more pessimistic than Dauwe's.
	plan := pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}
	for _, mtbf := range []float64{6, 3} {
		sys := twoLevel(mtbf)
		pm, err := New().Predict(sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := dauwe.New().Predict(sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !(pm.Efficiency < pw.Efficiency) {
			t.Fatalf("MTBF %v: Moody %v not more pessimistic than Dauwe %v",
				mtbf, pm.Efficiency, pw.Efficiency)
		}
	}
}

func TestPredictFailureFreeLimit(t *testing.T) {
	sys := twoLevel(1e12)
	plan := pattern.Plan{Tau0: 10, Counts: []int{2}, Levels: []int{1, 2}}
	pred, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Period: 30 work + 2·0.333 + 0.833 overhead.
	wantEff := 30 / (30 + 2*0.333 + 0.833)
	if math.Abs(pred.Efficiency-wantEff) > 1e-6 {
		t.Fatalf("efficiency = %v, want %v", pred.Efficiency, wantEff)
	}
}

func TestOptimizeTwoLevel(t *testing.T) {
	sys := twoLevel(24)
	plan, pred, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	if plan.NumUsed() != 2 {
		t.Fatalf("Moody must use all levels: %v", plan)
	}
	if !(pred.Efficiency > 0.5 && pred.Efficiency < 1) {
		t.Fatalf("efficiency = %v", pred.Efficiency)
	}
}

func TestOptimizeIgnoresBaselineTime(t *testing.T) {
	// Steady state: scaling T_B must not change the chosen intervals.
	long := twoLevel(24)
	short := twoLevel(24).WithBaseline(30)
	p1, _, err := New().Optimize(long)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := New().Optimize(short)
	if err != nil {
		t.Fatal(err)
	}
	// The τ0 candidate grid is derived from T_B, so allow the small
	// grid-artifact difference; the chosen pattern must be the same.
	if math.Abs(p1.Tau0-p2.Tau0) > 0.05*p1.Tau0 || p1.Counts[0] != p2.Counts[0] {
		t.Fatalf("T_B leaked into Moody's optimization: %v vs %v", p1, p2)
	}
	if p2.NumUsed() != 2 {
		t.Fatalf("short app still must use all levels: %v", p2)
	}
}

func TestOptimizeFourLevelKeepsPFSForShortApp(t *testing.T) {
	// The Figure 5 contrast: unlike Dauwe and Di, Moody checkpoints to
	// the PFS even for a 30-minute application.
	b, _ := system.ByName("B")
	sys := b.WithMTBF(15).WithTopCost(20).WithBaseline(30)
	plan, _, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesLevel(4) {
		t.Fatalf("Moody dropped the PFS level: %v", plan)
	}
}

func TestPredictImpossibleSystem(t *testing.T) {
	// MTBF far below every checkpoint cost: efficiency ~ 0 and the
	// prediction must degrade gracefully (no NaN, no panic).
	sys := &system.System{
		Name: "hopeless", MTBF: 0.001, BaselineTime: 100,
		Levels: []system.Level{
			{Checkpoint: 10, Restart: 10, SeverityProb: 0.9},
			{Checkpoint: 100, Restart: 100, SeverityProb: 0.1},
		},
	}
	pred, err := New().Predict(sys, pattern.Plan{Tau0: 1, Counts: []int{1}, Levels: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred.Efficiency) || pred.Efficiency > 1e-6 {
		t.Fatalf("efficiency = %v", pred.Efficiency)
	}
}

func TestOptimizeRejectsInvalidSystem(t *testing.T) {
	bad := twoLevel(24)
	bad.Levels[0].SeverityProb = 2
	if _, _, err := New().Optimize(bad); err == nil {
		t.Fatal("invalid system accepted")
	}
}

// TestSweepObjectiveMatchesPeriodEfficiency checks the memoized
// per-worker objective is bitwise identical to the straightforward
// 1/PeriodEfficiency path it replaced.
func TestSweepObjectiveMatchesPeriodEfficiency(t *testing.T) {
	for _, sys := range system.TableI() {
		reg := obs.NewRegistry()
		obj := newSweepObjective(sys, reg)
		levels := pattern.AllLevels(sys)
		counts := func(vals ...int) []int { return vals[:len(levels)-1] }
		plans := []pattern.Plan{
			{Tau0: 5, Counts: counts(0, 0, 0), Levels: levels},
			{Tau0: 30, Counts: counts(3, 1, 0), Levels: levels},
			{Tau0: 120, Counts: counts(7, 3, 2), Levels: levels},
			{Tau0: 30, Counts: counts(3, 1, 0), Levels: levels}, // memo hit
		}
		for _, p := range plans {
			got, ok := obj(p)
			eff, err := PeriodEfficiency(sys, p)
			if err != nil || !(eff > 0) {
				if ok {
					t.Fatalf("%s %v: objective ok=true but PeriodEfficiency err=%v eff=%v", sys.Name, p, err, eff)
				}
				continue
			}
			if !ok || got != 1/eff {
				t.Fatalf("%s %v: objective = %v ok=%v, want exactly %v", sys.Name, p, got, ok, 1/eff)
			}
		}
		if reg.Snapshot().Counter("opt_moody_shape_memo_hits_total") == 0 {
			t.Fatalf("%s: repeated count vector did not hit the shape memo", sys.Name)
		}
	}
}

// TestSweepObjectiveResumeMatchesPeriodEfficiency walks whole odometer
// cells through one sweep objective, as a sweep worker does — so its
// solver resumes each chain from the previous candidate's — and checks
// every candidate bit for bit against a fresh 1/PeriodEfficiency. A
// pseudo-random subset is skipped, as pruning skips candidates, so the
// solver also resumes across gaps, and now and then a candidate repeats.
// The last τ0 is so long that every chain is impossible (+Inf).
func TestSweepObjectiveResumeMatchesPeriodEfficiency(t *testing.T) {
	for _, name := range []string{"B", "M"} {
		sys, err := system.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		obj := newSweepObjective(sys, obs.NewRegistry())
		levels := pattern.AllLevels(sys)
		vals := optimize.DefaultCounts()
		src := rand.New(rand.NewPCG(7, uint64(len(name))))
		counts := make([]int, len(levels)-1)
		idx := make([]int, len(counts))
		for _, tau0 := range []float64{0.9, 45, 800 * sys.MTBF} {
			var checked, infs int
			clear(idx)
			for {
				intervals := 1
				for i := range counts {
					counts[i] = vals[idx[i]]
					intervals *= counts[i] + 1
				}
				if intervals <= New().MaxPeriodIntervals && src.IntN(4) != 0 {
					p := pattern.Plan{Tau0: tau0, Counts: counts, Levels: levels}
					eff, err := PeriodEfficiency(sys, p)
					// Now and then the same candidate comes twice in a
					// row, so the whole chain is a shared prefix.
					for again := true; again; again = src.IntN(8) == 0 {
						got, ok := obj(p)
						switch {
						case err != nil || !(eff > 0):
							if ok {
								t.Fatalf("%s %v: objective ok=true but PeriodEfficiency err=%v eff=%v", name, p, err, eff)
							}
						case !ok || math.Float64bits(got) != math.Float64bits(1/eff):
							t.Fatalf("%s %v: objective = %v ok=%v, want exactly %v", name, p, got, ok, 1/eff)
						}
					}
					if err != nil || !(eff > 0) {
						infs++
					}
					checked++
				}
				i := len(idx) - 1
				for ; i >= 0; i-- {
					if idx[i]++; idx[i] < len(vals) {
						break
					}
					idx[i] = 0
				}
				if i < 0 {
					break
				}
			}
			if checked == 0 {
				t.Fatalf("%s τ0=%v: no candidate checked", name, tau0)
			}
			if wantInf := tau0 > 1e4; (infs == checked) != wantInf {
				t.Fatalf("%s τ0=%v: %d of %d candidates impossible", name, tau0, infs, checked)
			}
		}
	}
}

// TestFailureFreeBoundAdmissible checks the pruning bound never exceeds
// the true objective value, which is what makes pruning result-neutral.
func TestFailureFreeBoundAdmissible(t *testing.T) {
	for _, sys := range system.TableI() {
		lb := failureFreeBound(sys)
		reg := obs.NewRegistry()
		obj := newSweepObjective(sys, reg)
		levels := pattern.AllLevels(sys)
		counts := func(vals ...int) []int { return vals[:len(levels)-1] }
		for _, p := range []pattern.Plan{
			{Tau0: 0.5, Counts: counts(0, 0, 0), Levels: levels},
			{Tau0: 5, Counts: counts(4, 2, 1), Levels: levels},
			{Tau0: 60, Counts: counts(1, 1, 1), Levels: levels},
			{Tau0: 480, Counts: counts(9, 0, 4), Levels: levels},
		} {
			v, ok := obj(p)
			if !ok {
				continue
			}
			if b := lb(p); b > v {
				t.Fatalf("%s %v: bound %v exceeds objective %v", sys.Name, p, b, v)
			}
		}
	}
}

// TestOptimizeDeterministicAcrossWorkers checks the full moody optimizer
// (memo + pruning + refinement) returns an identical plan and prediction
// regardless of worker count.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	sys := twoLevel(4)
	var refPlan pattern.Plan
	var refPred model.Prediction
	for i, w := range []int{1, 4} {
		tech := New()
		tech.Tau0Points = 16
		tech.Workers = w
		plan, pred, err := tech.Optimize(sys)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refPlan, refPred = plan, pred
			continue
		}
		if !reflect.DeepEqual(plan, refPlan) || pred != refPred {
			t.Fatalf("workers=%d: plan %+v pred %+v differ from workers=1 %+v %+v",
				w, plan, pred, refPlan, refPred)
		}
	}
}

// TestOptimizeSweepMetrics checks the sweep telemetry lands in the
// registry installed via SetSweepMetrics, and that pruning plus
// evaluations account for every candidate.
func TestOptimizeSweepMetrics(t *testing.T) {
	sys := twoLevel(4)
	tech := New()
	tech.Tau0Points = 16
	reg := obs.NewRegistry()
	tech.SetSweepMetrics(reg)
	if _, _, err := tech.Optimize(sys); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counter("opt_candidates_total") == 0 {
		t.Fatal("no candidates recorded")
	}
	if snap.Counter("opt_evaluations_total")+snap.Counter("opt_pruned_total") != snap.Counter("opt_candidates_total") {
		t.Fatalf("evaluations %d + pruned %d != candidates %d",
			snap.Counter("opt_evaluations_total"), snap.Counter("opt_pruned_total"), snap.Counter("opt_candidates_total"))
	}
	if snap.Counter("opt_moody_shape_memo_hits_total")+snap.Counter("opt_moody_shape_memo_misses_total") == 0 {
		t.Fatal("shape memo never consulted")
	}
	if snap.Counter("opt_refine_evaluations_total") == 0 {
		t.Fatal("refinement recorded no evaluations")
	}
}
