package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/system"
)

// crnArms builds two deliberately similar plans on D4 (the kind of pair
// the paper's Figure 5 comparisons certify) plus one dissimilar plan.
func crnArms(t *testing.T) (*system.System, []Scenario) {
	t.Helper()
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tau0 float64, counts []int, levels []int) Scenario {
		return Scenario{
			System:        sys,
			Plan:          pattern.Plan{Tau0: tau0, Counts: counts, Levels: levels},
			MaxWallFactor: 150,
		}
	}
	return sys, []Scenario{
		mk(1.47, []int{2}, []int{1, 2}),
		mk(1.46, []int{2}, []int{1, 2}),
		mk(2.9, []int{1}, []int{1, 2}),
	}
}

// The CRN orchestration must be bitwise-invisible per arm: every arm's
// marginal CampaignResult must equal a standalone Campaign run with the
// same (shared) seed — CRN changes which seed arms share, never what a
// single arm computes.
func TestPairedCampaignMarginalsBitwiseIdentical(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(11, "crn").Scenario("D4")
	pc := PairedCampaign{Arms: arms, Trials: 120, Seed: seed, Workers: 4}
	res, err := pc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun != 120 || res.TrialsSaved() != 0 {
		t.Fatalf("no stopping rule: ran %d, saved %d; want 120, 0", res.TrialsRun, res.TrialsSaved())
	}
	for a, arm := range arms {
		solo, err := Campaign{Scenario: arm, Trials: 120, Seed: seed, Workers: 2}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Arms[a], solo) {
			t.Errorf("arm %d marginal result differs from standalone campaign", a)
		}
		for i := range solo.Efficiencies {
			if math.Float64bits(res.Arms[a].Efficiencies[i]) != math.Float64bits(solo.Efficiencies[i]) {
				t.Fatalf("arm %d trial %d efficiency bits differ", a, i)
			}
		}
	}
}

// Sequential batching must not change any trial: a run whose target is
// unreachably tight (forcing it through every batch) must equal the
// single-pass run bit for bit. Batch 7 runs on 1-trial blocks and batch
// 16 on 8-trial blocks (Block = gcd(batch, DefaultBlock)), so both
// block-alignment paths through runBlocks are covered.
func TestPairedCampaignBatchingInvariant(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(12, "crn").Scenario("batch")
	onePass, err := PairedCampaign{Arms: arms, Trials: 90, Seed: seed}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{7, 16} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(t *testing.T) {
				batched, err := PairedCampaign{
					Arms: arms, Trials: 90, Seed: seed, Workers: workers,
					TargetCI: 1e-15, BatchSize: batch, MinTrials: 4,
				}.Run()
				if err != nil {
					t.Fatal(err)
				}
				if batched.TrialsRun != 90 {
					t.Fatalf("unreachable target stopped early at %d trials", batched.TrialsRun)
				}
				if !reflect.DeepEqual(onePass.Arms, batched.Arms) {
					t.Error("batched arms differ from single-pass arms")
				}
				if !reflect.DeepEqual(onePass.Comparisons, batched.Comparisons) {
					t.Error("batched comparisons differ from single-pass comparisons")
				}
			})
		}
	}
}

// The stopping decision depends only on accumulated results, so worker
// count must not perturb it (or anything else).
func TestPairedCampaignWorkerDeterminism(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(13, "crn").Scenario("workers")
	var prev *PairedResult
	for _, workers := range []int{1, 3, 8} {
		res, err := PairedCampaign{
			Arms: arms, Trials: 300, Seed: seed, Workers: workers,
			TargetCI: 0.002, BatchSize: 16, MinTrials: 16,
			ControlVariates: true,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(*prev, res) {
			t.Fatalf("workers=%d produced a different PairedResult", workers)
		}
		prev = &res
	}
}

// With a reachable target the stopping rule must save trials and still
// deliver the promised interval width.
func TestPairedCampaignSequentialStops(t *testing.T) {
	_, arms := crnArms(t)
	pc := PairedCampaign{
		Arms:   arms[:2], // the similar pair: tight paired CIs come cheap
		Trials: 2000,
		Seed:   rng.Campaign(14, "crn").Scenario("stop"),
		// Probe runs put the 2000-trial paired width near 1e-4; a 10x
		// looser target should stop far earlier.
		TargetCI: 1e-3, BatchSize: 16, MinTrials: 16,
	}
	res, err := pc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun >= res.Budget {
		t.Fatalf("stopping rule never fired: ran all %d trials", res.TrialsRun)
	}
	if res.TrialsSaved() <= 0 {
		t.Fatalf("TrialsSaved = %d, want positive", res.TrialsSaved())
	}
	c := res.Comparison(0, 1)
	if c == nil {
		t.Fatal("missing comparison 0 vs 1")
	}
	if c.CIHalf > pc.TargetCI {
		t.Fatalf("achieved CI %v exceeds target %v", c.CIHalf, pc.TargetCI)
	}
	if c.N != res.TrialsRun {
		t.Fatalf("comparison over %d pairs, want %d", c.N, res.TrialsRun)
	}
}

// Pairing must beat the unpaired Welch interval on correlated arms, and
// the diagnostics must reflect it.
func TestPairedCampaignCIWidthShrinks(t *testing.T) {
	_, arms := crnArms(t)
	res, err := PairedCampaign{
		Arms: arms[:2], Trials: 400,
		Seed:            rng.Campaign(15, "crn").Scenario("width"),
		ControlVariates: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comparison(0, 1)
	if c.Corr < 0.9 {
		t.Fatalf("cross-arm correlation %v, want > 0.9 for near-identical plans under CRN", c.Corr)
	}
	if c.CIHalf <= 0 || c.WelchCIHalf/c.CIHalf < 3 {
		t.Fatalf("paired CI %v vs Welch %v: want >= 3x shrink", c.CIHalf, c.WelchCIHalf)
	}
	if c.VarReduction < 9 {
		t.Fatalf("VarReduction = %v, want >= 9", c.VarReduction)
	}
	// Marginal control variates: the failure-count martingale must
	// explain a solid share of each arm's variance.
	if len(res.ArmCV) != 2 {
		t.Fatalf("ArmCV has %d entries, want 2", len(res.ArmCV))
	}
	for a, cv := range res.ArmCV {
		if cv.Corr > -0.3 {
			t.Errorf("arm %d control correlation %v, want strongly negative", a, cv.Corr)
		}
		if cv.Std >= cv.RawStd {
			t.Errorf("arm %d adjusted std %v did not improve on raw %v", a, cv.Std, cv.RawStd)
		}
		if math.Abs(cv.Mean-cv.RawMean) > 3*cv.RawStd {
			t.Errorf("arm %d adjusted mean %v implausibly far from raw %v", a, cv.Mean, cv.RawMean)
		}
	}
	if c.CVCIHalf <= 0 || c.CVCIHalf > c.CIHalf*1.05 {
		t.Fatalf("difference CV CI %v should refine (or at worst match) the paired CI %v", c.CVCIHalf, c.CIHalf)
	}
}

func TestPairedCampaignHooks(t *testing.T) {
	_, arms := crnArms(t)
	var done [3]atomic.Int64
	var events [3]atomic.Int64
	obs := func(arm, worker int) Observer { return countObs{&events[arm]} }
	res, err := PairedCampaign{
		Arms: arms, Trials: 40,
		Seed:            rng.Campaign(16, "crn").Scenario("hooks"),
		Workers:         4,
		ObserverFactory: obs,
		TrialDone:       func(arm int, r TrialResult) { done[arm].Add(1) },
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for a := range arms {
		if got := done[a].Load(); got != int64(res.TrialsRun) {
			t.Errorf("arm %d TrialDone fired %d times, want %d", a, got, res.TrialsRun)
		}
		if events[a].Load() == 0 {
			t.Errorf("arm %d observer saw no events", a)
		}
	}
}

type countObs struct{ n *atomic.Int64 }

func (c countObs) Observe(Event) { c.n.Add(1) }

func TestPairedCampaignValidation(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(17, "crn").Scenario("validate")
	if _, err := (PairedCampaign{Arms: arms[:1], Trials: 10, Seed: seed}).Run(); err == nil {
		t.Error("single-arm campaign accepted")
	}
	other, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	mixed := []Scenario{arms[0], {System: other, Plan: arms[0].Plan, MaxWallFactor: 150}}
	if _, err := (PairedCampaign{Arms: mixed, Trials: 10, Seed: seed}).Run(); err == nil ||
		!strings.Contains(err.Error(), "different system") {
		t.Errorf("mixed-system arms: err = %v, want different-system complaint", err)
	}
	law, err := dist.NewWeibull(100, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	weib := arms[0]
	weib.FailureLaws = []dist.Sampler{law}
	// Arms with different failure laws break the pairing.
	if _, err := (PairedCampaign{Arms: []Scenario{arms[0], weib}, Trials: 10, Seed: seed}).Run(); err == nil {
		t.Error("arms with differing failure laws accepted")
	}
	// Same custom law on both arms is a valid pairing, but not a valid
	// Poisson control.
	weib2 := arms[1]
	weib2.FailureLaws = []dist.Sampler{law}
	if _, err := (PairedCampaign{Arms: []Scenario{weib, weib2}, Trials: 10, Seed: seed}).Run(); err != nil {
		t.Errorf("shared custom law rejected: %v", err)
	}
	if _, err := (PairedCampaign{Arms: []Scenario{weib, weib2}, Trials: 10, Seed: seed, ControlVariates: true}).Run(); err == nil {
		t.Error("control variates accepted with non-exponential laws")
	}
	// Zero trials and bad workers flow through Campaign validation.
	if _, err := (PairedCampaign{Arms: arms[:2], Seed: seed}).Run(); err == nil {
		t.Error("zero-trial campaign accepted")
	}
	if _, err := (PairedCampaign{Arms: arms[:2], Trials: 10, Seed: seed, Workers: -1}).Run(); err == nil {
		t.Error("negative workers accepted")
	}
}
