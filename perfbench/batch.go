package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/model/dauwe"
	"repro/internal/model/di"
	"repro/internal/model/moody"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// fastCounts is the N_i candidate set experiments' Fast mode uses.
var fastCounts = []int{0, 1, 2, 4, 8, 16, 32}

// wallFactor is the trial cap experiments use (150·T_B).
const wallFactor = 150

// cell is one unit of batch work in experiments' own sequence:
// model.New → Optimize → Predict → Campaign.Run.
type cell struct {
	label     string
	sys       *system.System
	technique string
	// fast selects experiments' coarse Fast-mode sweep grid; otherwise
	// the technique's full-resolution default grid is swept.
	fast   bool
	trials int
	seed   rng.Seed
	// stream selects sim.NewStreamSink instead of the default exact sink.
	stream bool
	// ckPath, when set, checkpoints the campaign every ckEvery trials.
	ckPath  string
	ckEvery int
	// sample times one trial (and one sink merge) in sample when traced.
	sample int
}

// cellOut is what a cell produced, kept for the determinism re-run and
// for comparing a traced round with its untraced twin.
type cellOut struct {
	camp sim.Campaign
	plan pattern.Plan
	res  sim.CampaignResult
}

// newTechnique instantiates a technique with the benchmark's worker
// bound and, when fast, experiments' Fast-mode grid.
func newTechnique(name string, fast bool, workers int) (model.Technique, error) {
	tech, err := model.New(name)
	if err != nil {
		return nil, err
	}
	switch t := tech.(type) {
	case *dauwe.Technique:
		t.Workers = workers
		if fast {
			t.Tau0Points, t.CountVals = 24, fastCounts
		}
	case *di.Technique:
		t.Workers = workers
		if fast {
			t.Tau0Points, t.CountVals = 24, fastCounts
		}
	case *moody.Technique:
		t.Workers = workers
		if fast {
			t.Tau0Points, t.CountVals, t.MaxPeriodIntervals = 20, fastCounts, 128
		}
	}
	return tech, nil
}

// freshExpected is a fresh model evaluation of the plan in the form the
// technique's optimizer reports it. Moody's optimizer reports
// T_B·(1/efficiency), the sweep objective its code documents as bitwise
// identical to 1/PeriodEfficiency; every other technique reports its
// Predict value.
func freshExpected(technique string, sys *system.System, plan pattern.Plan, fresh model.Prediction) (float64, error) {
	if technique != "moody" {
		return fresh.ExpectedTime, nil
	}
	eff, err := moody.PeriodEfficiency(sys, plan)
	if err != nil {
		return 0, err
	}
	return sys.BaselineTime * (1 / eff), nil
}

// samePlan reports whether two plans are the same bit for bit. A nil
// and an empty Counts slice are the same plan: which one a sweep
// returns depends on which worker found the optimum.
func samePlan(a, b pattern.Plan) bool {
	return math.Float64bits(a.Tau0) == math.Float64bits(b.Tau0) &&
		slices.Equal(a.Counts, b.Counts) && slices.Equal(a.Levels, b.Levels)
}

// ulps is the distance between a and b in units in the last place.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// runCell runs one cell, checks every output, and (when tr is non-nil)
// records its spans under parent and its layer counters into st.
func (b *bench) runCell(tr *tracer, st *layerStats, parent int, c cell, workers int) (cellOut, error) {
	tech, err := newTechnique(c.technique, c.fast, workers)
	if err != nil {
		return cellOut{}, err
	}
	var reg *obs.Registry
	if tr != nil {
		if m, ok := tech.(interface{ SetSweepMetrics(*obs.Registry) }); ok {
			reg = obs.NewRegistry()
			m.SetSweepMetrics(reg)
		}
	}

	sp := tr.begin(parent, layerOptimize, "optimize."+c.technique)
	t0 := tr.now()
	plan, pred, err := tech.Optimize(c.sys)
	optNs := tr.now() - t0
	tr.end(sp)
	if err != nil {
		b.fail(fmt.Errorf("%s %s: optimize: %w", c.label, c.technique, err))
		return cellOut{}, nil
	}
	if b.faults.skewPrediction {
		pred.ExpectedTime = math.Nextafter(pred.ExpectedTime, math.Inf(1))
	}

	sp = tr.begin(parent, layerModel, "predict."+c.technique)
	t0 = tr.now()
	fresh, err := tech.Predict(c.sys, plan)
	predNs := tr.now() - t0
	tr.end(sp)
	if tr != nil {
		st.optCalls++
		st.optBusyNs += float64(optNs)
		st.sweepMs[c.technique] = append(st.sweepMs[c.technique], float64(optNs)/1e6)
		st.predictNs[c.technique] = append(st.predictNs[c.technique], float64(predNs))
		if reg != nil {
			st.sweepCounters(reg)
		}
	}
	b.checkSweep(c, plan, pred, fresh, err)

	camp := sim.Campaign{
		Scenario: sim.Scenario{System: c.sys, Plan: plan, Policy: sim.RetryPolicy, MaxWallFactor: wallFactor},
		Trials:   c.trials,
		Seed:     c.seed,
		Workers:  workers,
	}
	var sink sim.PortableSink
	switch {
	case c.stream:
		sink = sim.NewStreamSink()
	case tr != nil || b.faults.dropTrial:
		// The default sink, made explicit so it can be wrapped.
		s := sim.NewExactSink()
		s.Reserve(c.trials, c.sys.NumLevels())
		sink = s
	}
	if b.faults.dropTrial {
		sink = dropSink{sink}
	}
	if sink != nil {
		camp.Sink = sink
	}
	if c.ckPath != "" {
		camp.Checkpoint = &sim.CheckpointConfig{Path: c.ckPath, Interval: c.ckEvery}
	}
	var probe *campProbe
	if tr != nil {
		probe = newCampProbe(tr, workers, max(c.sample, 1), c.ckPath)
		probe.attach(&camp, sink)
	}
	sp = tr.begin(parent, layerSim, "campaign."+c.technique)
	t0 = tr.now()
	res, err := camp.Run()
	wallNs := tr.now() - t0
	tr.end(sp)
	if probe != nil {
		probe.record(st, sp, workers, wallNs)
	}
	b.checkCampaign(c, res, err)
	return cellOut{camp: camp, plan: plan, res: res}, nil
}

// checkSweep checks that the optimizer's reported expected time equals
// a fresh evaluation of the chosen plan bit for bit.
func (b *bench) checkSweep(c cell, plan pattern.Plan, pred, fresh model.Prediction, predictErr error) {
	if predictErr != nil {
		b.op(false, "%s %s: predict %v: %v", c.label, c.technique, plan, predictErr)
		return
	}
	want, err := freshExpected(c.technique, c.sys, plan, fresh)
	if err != nil {
		b.op(false, "%s %s: re-evaluate %v: %v", c.label, c.technique, plan, err)
		return
	}
	b.op(math.Float64bits(pred.ExpectedTime) == math.Float64bits(want) && pred.ExpectedTime > 0,
		"%s %s: sweep reported %v, fresh evaluation of %v gives %v",
		c.label, c.technique, pred.ExpectedTime, plan, want)
	if pred.ExpectedTime != fresh.ExpectedTime {
		b.mu.Lock()
		b.predictMismatch++
		b.maxMismatchUlps = max(b.maxMismatchUlps, ulps(pred.ExpectedTime, fresh.ExpectedTime))
		b.mu.Unlock()
	}
}

// checkCampaign checks one campaign's aggregate: N equals the trial
// count, every efficiency lies in [0, 1] and in (0, 1] when every trial
// completed, and the mean Figure 3 breakdown sums to the mean wall
// time. A trial stopped by the wall-time cap before its first
// checkpoint commits has made no progress, so its efficiency is
// exactly 0; a completed trial's is T_B/wall > 0.
func (b *bench) checkCampaign(c cell, res sim.CampaignResult, err error) {
	if err != nil {
		b.op(false, "%s %s: campaign: %v", c.label, c.technique, err)
		return
	}
	e := res.Efficiency
	total := res.MeanBreakdown.Total()
	wall := res.WallTime.Mean
	ok := res.Trials == c.trials && e.N == c.trials && res.WallTime.N == c.trials &&
		e.Min >= 0 && (e.Min > 0 || res.Completed < c.trials) && e.Max <= 1 && res.Completed <= c.trials &&
		math.Abs(total-wall) <= 1e-9*wall
	b.op(ok, "%s %s: campaign of %d trials: N=%d/%d eff [%v, %v] breakdown %v vs wall %v completed %d",
		c.label, c.technique, c.trials, e.N, res.WallTime.N, e.Min, e.Max, total, wall, res.Completed)
}

// checkDeterminism re-runs a campaign with the other worker count
// (1 after a multi-worker run, 2 after a one-worker run) and the plain
// sink of the same kind, and checks the result is bitwise equal.
func (b *bench) checkDeterminism(c cell, out cellOut) {
	camp := out.camp
	camp.Workers = 1
	if out.camp.Workers == 1 {
		camp.Workers = 2
	}
	camp.TrialStart, camp.ObserverFactory, camp.Progress, camp.Checkpoint = nil, nil, nil, nil
	camp.Sink = nil
	if c.stream {
		camp.Sink = sim.NewStreamSink()
	}
	if b.faults.rerunDiffers {
		camp.Seed = camp.Seed.Trial(1)
	}
	res, err := camp.Run()
	b.op(err == nil && reflect.DeepEqual(res, out.res),
		"%s %s: Workers=%d re-run differs from the %d-worker run (err %v)",
		c.label, c.technique, camp.Workers, out.camp.Workers, err)
}

// batchWorkload describes a batch workload: cells(r) generates round
// r's cells from the seed, warm the set-up's warm-up cells (one small
// cell per technique, so every code path is loaded before timing).
type batchWorkload struct {
	cells func(b *bench, r int) []cell
	warm  func(b *bench) []cell
	// plans reports plans_per_s: set where planning, not simulation,
	// is the work.
	plans bool
}

// runBatch runs a batch workload: timed set-up, then rounds of cells
// until the measuring time is spent. Traced runs pair every traced
// round with an untraced twin on the same inputs.
func (b *bench) runBatch(w batchWorkload, workers int) error {
	// Set-up generates the first round's inputs and runs the warm-up
	// cells.
	if err := b.timeSetup(15, func() (func(), error) {
		w.cells(b, 0)
		for _, c := range w.warm(b) {
			if _, err := b.runCell(nil, nil, 0, c, workers); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}); err != nil {
		return err
	}

	var (
		walls, overhead         []float64
		totalTrials, totalPlans int
		st                      = newLayerStats()
		tr                      *tracer
		det                     struct {
			c   cell
			out cellOut
			set bool
		}
	)
	if b.trace {
		tr = newTracer()
	}
	// round runs round r's cells, traced when t is non-nil, and
	// returns its wall time and outputs.
	round := func(t *tracer, r int, cells []cell) (time.Duration, []cellOut, error) {
		root := t.begin(0, layerBench, b.workload+".round"+strconv.Itoa(r))
		start := time.Now()
		outs := make([]cellOut, len(cells))
		for i, c := range cells {
			out, err := b.runCell(t, st, root, c, workers)
			if err != nil {
				return 0, nil, err
			}
			outs[i] = out
		}
		wall := time.Since(start)
		t.end(root)
		return wall, outs, nil
	}
	_, err := b.rounds(b.budget(1), 3, func(r int) error {
		cells := w.cells(b, r)
		trials, plans := 0, len(cells)
		for _, c := range cells {
			trials += c.trials
		}
		wall, outs, err := round(nil, r, cells)
		if err != nil {
			return err
		}
		if !det.set {
			k := int(b.seed % uint64(len(cells)))
			det.c, det.out, det.set = cells[k], outs[k], true
		}
		if tr != nil {
			twall, touts, err := round(tr, r, cells)
			if err != nil {
				return err
			}
			overhead = append(overhead, twall.Seconds()/wall.Seconds()-1)
			for i := range outs {
				b.op(reflect.DeepEqual(outs[i].res, touts[i].res) && samePlan(outs[i].plan, touts[i].plan),
					"%s %s: traced run differs from untraced run", cells[i].label, cells[i].technique)
			}
		}
		walls = append(walls, wall.Seconds())
		totalTrials += trials
		if w.plans {
			totalPlans += plans
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Peak RSS is read before the determinism re-run, which runs with
	// the other worker count and so has a memory profile of its own.
	if err := b.recordPeakRSS(); err != nil {
		return err
	}
	if det.set {
		before, err := peakRSSMiB()
		if err != nil {
			return err
		}
		b.checkDeterminism(det.c, det.out)
		after, err := peakRSSMiB()
		if err != nil {
			return err
		}
		b.setLayer("sim.rerun_rss_growth_mib", after-before, "MiB", 0)
	}
	b.reportThroughput(walls, totalTrials, totalPlans)
	if tr != nil {
		b.ledger = buildLedger(tr)
		b.traced = tr
		b.setLayer("trace.overhead_frac", median(overhead), "ratio", len(overhead))
		b.reportLayers(st)
	}
	return nil
}

// jitter returns x scaled by a uniform factor in [1-f, 1+f).
func jitter(x, f float64, u float64) float64 { return x * (1 - f + 2*f*u) }

// exascaleSim: system B scaled over the Fig. 4 grid (every MTBF ×
// every PFS cost, each jittered ±2 % by the seed), T_B = 1440 min, the
// three best techniques at the Fast-mode grid, exact sink.
func exascaleSim() batchWorkload {
	cells := func(b *bench, r int) []cell {
		base, _ := system.ByName("B")
		rnd := rng.Campaign(b.seed, "perfbench/exascale-sim").Scenario(strconv.Itoa(r)).Rand()
		trials := b.scaled(40, 2)
		var out []cell
		points := b.scaled(len(experiments.Fig4PFSCosts)*len(experiments.Fig4MTBFs), 1)
		for _, pfs := range experiments.Fig4PFSCosts {
			for _, mtbf := range experiments.Fig4MTBFs {
				if points == 0 {
					break
				}
				points--
				m, p := jitter(mtbf, 0.02, rnd.Float64()), jitter(pfs, 0.02, rnd.Float64())
				sys := base.WithTopCost(p).WithMTBF(m).WithBaseline(1440)
				label := fmt.Sprintf("r%d/mtbf=%.4g/pfs=%.4g", r, m, p)
				for _, tech := range experiments.BestTechniques {
					out = append(out, cell{label: label, sys: sys, technique: tech, fast: true,
						trials: trials, seed: rng.Campaign(b.seed, "exascale-sim").Scenario(label + "/" + tech),
						sample: 1})
				}
			}
		}
		return out
	}
	return batchWorkload{cells: cells, warm: func(b *bench) []cell {
		warm := cells(b, 0)[:len(experiments.BestTechniques)]
		for i := range warm {
			warm[i].trials = min(warm[i].trials, 8)
		}
		return warm
	}}
}

// shortAppPlan: a 30-min application on the Fig. 5 grid (PFS 10 and
// 20 min, MTBFs from the Fig. 4 set, jittered ±1 % by the seed) at full
// sweep resolution, with only a handful of trials per cell. A round is
// every MTBF once, at PFS 10 and 20 alternately, and the next round
// takes the other PFS cost of each: a sweep's cost varies ±15 % with
// its MTBF, so rounds that each held one MTBF pair did unequal work and
// how many of each fit in a run moved wall_s.
func shortAppPlan() batchWorkload {
	cells := func(b *bench, r int) []cell {
		base, _ := system.ByName("B")
		rnd := rng.Campaign(b.seed, "perfbench/short-app-plan").Scenario(strconv.Itoa(r)).Rand()
		var out []cell
		for i, mtbf := range experiments.Fig4MTBFs {
			pfs := []float64{10, 20}[(i+r)%2]
			m := jitter(mtbf, 0.01, rnd.Float64())
			sys := base.WithTopCost(pfs).WithMTBF(m).WithBaseline(30)
			label := fmt.Sprintf("r%d/mtbf=%.4g/pfs=%g", r, m, pfs)
			for _, tech := range experiments.BestTechniques {
				out = append(out, cell{label: label, sys: sys, technique: tech,
					fast: b.scale < 1, trials: 8,
					seed: rng.Campaign(b.seed, "short-app-plan").Scenario(label + "/" + tech), sample: 1})
			}
		}
		return out
	}
	return batchWorkload{cells: cells, plans: true, warm: func(b *bench) []cell {
		warm := cells(b, 0)[:len(experiments.BestTechniques)]
		for i := range warm {
			warm[i].fast = true
		}
		return warm
	}}
}

// megaCampaign: one event-light single-level campaign (MTBF and
// checkpoint cost jittered ±1 % around 200 and 5 min,
// T_B = 600 min, Daly's plan) of 10⁶ trials on the stream sink,
// checkpointed every eighth of the campaign.
func megaCampaign() batchWorkload {
	mk := func(b *bench, r, trials int) cell {
		rnd := rng.Campaign(b.seed, "perfbench/mega-campaign").Scenario(strconv.Itoa(r)).Rand()
		delta := jitter(5, 0.01, rnd.Float64())
		sys := &system.System{
			Name: "mega", MTBF: jitter(200, 0.01, rnd.Float64()), BaselineTime: 600,
			Levels: []system.Level{{Checkpoint: delta, Restart: delta, SeverityProb: 1}},
		}
		label := fmt.Sprintf("r%d/mtbf=%.4g/delta=%.4g", r, sys.MTBF, delta)
		return cell{label: label, sys: sys, technique: "daly", trials: trials,
			seed:   rng.Campaign(b.seed, "mega-campaign").Scenario(label),
			stream: true, ckPath: filepath.Join(b.dir, "mega-campaign.ckpt"), ckEvery: max(trials/8, 1),
			sample: 64}
	}
	return batchWorkload{
		cells: func(b *bench, r int) []cell { return []cell{mk(b, r, b.scaled(1_000_000, 64))} },
		warm:  func(b *bench) []cell { return []cell{mk(b, 0, b.scaled(50_000, 64))} },
	}
}
