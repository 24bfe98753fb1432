// Package conformance is the repository's standing correctness harness.
// It verifies the simulator/model stack three independent ways:
//
//   - Checker is a sim.Observer that replays every trial's event stream
//     against a deterministic shadow model of the SCR protocol and flags
//     any divergence (the invariant catalog in DESIGN.md §2.9): a
//     monotonic clock, contiguous and legal phase transitions, exact
//     checkpoint/restart durations, pattern-odometer conformance,
//     store/rollback consistency, restart-escalation legality, and phase
//     times that partition the wall time.
//   - Differential (differential.go) runs every model technique against
//     a deterministic simulation campaign and checks the analytic
//     prediction against the simulated confidence band, with
//     per-technique tolerances pinned as golden files.
//   - The fuzz targets (FuzzEngineScenario, FuzzPatternPlan in this
//     package; FuzzNextEvent in internal/sim) drive the same machinery
//     over randomly generated systems, plans and seeds.
//
// A Checker is pure: it never influences the engine it observes, so a
// checked run is bitwise-identical to an unchecked one (pinned by
// TestCheckedRunBitwiseIdentical). Violations are collected, not
// panicked, and surfaced through Err.
package conformance

import (
	"fmt"
	"math"

	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/system"
)

// maxRecorded bounds the violations kept per checker; further violations
// are counted but not stored.
const maxRecorded = 16

// Violation describes one invariant breach observed in an event stream.
type Violation struct {
	// Invariant is the catalog identifier (e.g. "monotonic-clock").
	Invariant string
	// Trial is the 0-based index of the trial within this checker's
	// observation stream (not the campaign trial index: campaigns shard
	// trials across worker-local checkers).
	Trial int
	// Time is the simulated time of the offending event.
	Time float64
	// Detail explains the breach.
	Detail string
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("conformance: invariant %s broken at trial %d t=%.9g: %s",
		v.Invariant, v.Trial, v.Time, v.Detail)
}

// PhaseTotals is the checker's independent per-trial time accounting,
// cross-checkable against obs.SimMetrics breakdowns. All values are
// simulated minutes; level slices are indexed by 0-based system level.
type PhaseTotals struct {
	Compute    float64
	Checkpoint []float64
	Restart    []float64
	Wall       float64
}

// Total sums every category.
func (p PhaseTotals) Total() float64 {
	t := p.Compute
	for _, v := range p.Checkpoint {
		t += v
	}
	for _, v := range p.Restart {
		t += v
	}
	return t
}

// context is the checker's position in the per-trial event grammar.
type context int

const (
	ctxIdle context = iota // before a trial / after EvComplete|EvCapped
	ctxInPhase
	ctxAfterComputeEnd
	ctxAfterCheckpointEnd
	ctxAfterRestartEnd
	ctxAfterFailure
)

// shadowStore mirrors one used level's committed checkpoint.
type shadowStore struct {
	valid    bool
	progress float64
	pos      int
}

// flushState mirrors an in-flight asynchronous top-level flush. The
// engine emits no event when a flush commits, but the commit time is
// fully determined by the launch time, so the checker resolves it from
// event timestamps (see resolveFlush).
type flushState struct {
	deadline float64
	progress float64
	pos      int
}

// Checker validates a simulation event stream against the scenario it
// was built for. It implements sim.Observer, observes any number of
// sequential trials, and never mutates anything outside itself. A
// Checker is not safe for concurrent use; campaigns install one per
// worker via Pool.
type Checker struct {
	scn     sim.Scenario
	sys     *system.System
	plan    pattern.Plan
	maxWall float64
	canFire []bool // per severity: a failure of this class may arrive
	// allowReplan relaxes the plan-dependent invariants (odometer,
	// store tracking, durations vs the static plan) for trials driven
	// by an online PlanController, which may switch plans mid-trial.
	allowReplan bool

	violations []Violation
	nviol      int
	trials     int
	events     int

	// Per-trial state.
	ctx        context
	poisoned   bool // violation seen: skip further checks this trial
	lastTime   float64
	phase      sim.Phase
	phaseLevel int
	phaseStart float64
	phaseProg  float64 // progress when the open phase started
	closedSum  float64 // total duration of closed phases
	totals     PhaseTotals
	last       PhaseTotals // totals of the most recently finished trial
	pos        int         // shadow pattern odometer (next interval index)
	stores     []shadowStore
	flush      *flushState
	need       int // pending recovery severity after a failure
	restartIdx int // index into plan.Levels of the open restart's store
}

// NewChecker validates the scenario and builds a checker for it.
func NewChecker(scn sim.Scenario) (*Checker, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	factor := scn.MaxWallFactor
	if factor == 0 {
		factor = sim.DefaultMaxWallFactor
	}
	c := &Checker{
		scn:     scn,
		sys:     scn.System,
		plan:    scn.Plan,
		maxWall: factor * scn.System.BaselineTime,
		canFire: make([]bool, scn.System.NumLevels()),
		ctx:     ctxIdle,
	}
	for sev := 1; sev <= c.sys.NumLevels(); sev++ {
		if len(scn.FailureLaws) >= sev && scn.FailureLaws[sev-1] != nil {
			c.canFire[sev-1] = true
			continue
		}
		c.canFire[sev-1] = c.sys.LevelRate(sev) > 0
	}
	c.resetTrial()
	return c, nil
}

// AllowReplan relaxes the plan-dependent invariants for trials driven by
// an online plan controller (which may switch plans after any commit).
// Clock, transition, accounting and severity invariants stay enforced.
func (c *Checker) AllowReplan() { c.allowReplan = true }

// TrialsChecked returns the number of finished trials observed.
func (c *Checker) TrialsChecked() int { return c.trials }

// EventsChecked returns the total number of events observed.
func (c *Checker) EventsChecked() int { return c.events }

// LastTotals returns the checker's independent phase-time accounting for
// the most recently finished trial.
func (c *Checker) LastTotals() PhaseTotals { return c.last }

// Violations returns the recorded violations (at most maxRecorded; see
// Err for the total count).
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil if every invariant held, or the first violation
// annotated with the total violation count.
func (c *Checker) Err() error {
	if c.nviol == 0 {
		return nil
	}
	v := c.violations[0]
	if c.nviol > 1 {
		return fmt.Errorf("%w (and %d more violations)", v, c.nviol-1)
	}
	return v
}

// violatef records a violation and poisons the rest of the trial (the
// shadow state is unreliable after a divergence).
func (c *Checker) violatef(invariant string, t float64, format string, args ...any) {
	c.nviol++
	if len(c.violations) < maxRecorded {
		c.violations = append(c.violations, Violation{
			Invariant: invariant,
			Trial:     c.trials,
			Time:      t,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
	c.poisoned = true
}

func (c *Checker) resetTrial() {
	c.ctx = ctxIdle
	c.poisoned = false
	c.lastTime = 0
	c.closedSum = 0
	c.totals = PhaseTotals{
		Checkpoint: make([]float64, c.sys.NumLevels()),
		Restart:    make([]float64, c.sys.NumLevels()),
	}
	c.pos = 0
	c.stores = make([]shadowStore, c.plan.NumUsed())
	c.flush = nil
	c.need = 0
	c.restartIdx = -1
}

// durEps is the tolerance for duration comparisons: scheduled phase ends
// pop at now+duration, so the observed elapsed time can differ from the
// configured duration by floating-point rounding only.
func durEps(scale float64) float64 { return 1e-9 * (1 + math.Abs(scale)) }

// accEps is the tolerance for accounting sums, which accumulate one
// rounding error per phase.
func accEps(scale float64) float64 { return 1e-6 * (1 + math.Abs(scale)) }

// resolveFlush commits or keeps the pending asynchronous flush given the
// next observed event. The engine schedules the flush-end event when the
// capture checkpoint commits, so the flush commits exactly at its
// deadline unless a failure arrives first; at an exact tie the failure's
// arrival event was scheduled earlier and wins (FIFO tie-break), while
// every phase event at the deadline was scheduled after the flush and
// loses.
func (c *Checker) resolveFlush(e sim.Event) {
	if c.flush == nil {
		return
	}
	committed := c.flush.deadline < e.Time ||
		(c.flush.deadline == e.Time && e.Kind != sim.EvFailure)
	if committed {
		c.stores[c.plan.NumUsed()-1] = shadowStore{
			valid: true, progress: c.flush.progress, pos: c.flush.pos,
		}
		c.flush = nil
	}
}

// Observe implements sim.Observer.
func (c *Checker) Observe(e sim.Event) {
	c.events++

	// I1 monotonic-clock: within a trial, event times never decrease.
	if c.ctx != ctxIdle {
		if e.Time < c.lastTime {
			c.violatef("monotonic-clock", e.Time, "time went backwards from %.9g", c.lastTime)
		}
		if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
			c.violatef("monotonic-clock", e.Time, "non-finite event time")
		}
	}
	if math.IsNaN(e.Progress) || e.Progress < 0 {
		c.violatef("progress-range", e.Time, "progress %v out of range", e.Progress)
	}
	if e.Progress > c.sys.BaselineTime+durEps(c.sys.BaselineTime) {
		c.violatef("progress-range", e.Time, "progress %v exceeds T_B %v", e.Progress, c.sys.BaselineTime)
	}

	if c.poisoned {
		// Shadow state is unreliable after a violation; only watch for
		// the trial boundary.
		if e.Kind == sim.EvComplete || e.Kind == sim.EvCapped {
			c.trials++
			c.resetTrial()
		}
		return
	}

	if !c.allowReplan {
		c.resolveFlush(e)
	}

	switch e.Kind {
	case sim.EvPhaseStart:
		c.phaseStartEvent(e)
	case sim.EvPhaseEnd:
		c.phaseEndEvent(e)
	case sim.EvFailure:
		c.failureEvent(e)
	case sim.EvComplete:
		c.completeEvent(e)
	case sim.EvCapped:
		c.cappedEvent(e)
	default:
		c.violatef("event-kind", e.Time, "unknown event kind %d", int(e.Kind))
	}
	c.lastTime = e.Time
}

func (c *Checker) phaseStartEvent(e sim.Event) {
	switch c.ctx {
	case ctxIdle:
		// I2 trial-opening: every trial opens with a compute phase at
		// time zero and zero progress.
		if e.Phase != sim.PhaseCompute || e.Time != 0 || e.Progress != 0 {
			c.violatef("trial-opening", e.Time,
				"trial must open with compute at t=0 progress=0, got %v at t=%v progress=%v",
				e.Phase, e.Time, e.Progress)
			return
		}
	case ctxAfterComputeEnd:
		// I2 transitions: compute is followed by the checkpoint the
		// pattern odometer selects, at the same instant.
		if e.Phase != sim.PhaseCheckpoint {
			c.violatef("phase-transition", e.Time, "compute followed by %v, want checkpoint", e.Phase)
			return
		}
		if e.Time != c.lastTime {
			c.violatef("phase-contiguity", e.Time, "gap after compute end at %.9g", c.lastTime)
			return
		}
		if e.Progress != c.phaseProg {
			c.violatef("progress-frozen", e.Time,
				"progress changed across compute-end→checkpoint-start: %v → %v", c.phaseProg, e.Progress)
			return
		}
		if !c.allowReplan {
			// I5 odometer: the checkpoint level is fully determined by
			// the pattern position.
			want := c.plan.Levels[c.plan.LevelAfterInterval(c.pos)]
			if e.Level != want {
				c.violatef("odometer", e.Time,
					"checkpoint at level %d after interval %d, pattern demands level %d",
					e.Level, c.pos, want)
				return
			}
		} else if !c.validSystemLevel(e.Level) {
			c.violatef("odometer", e.Time, "checkpoint at unknown level %d", e.Level)
			return
		}
	case ctxAfterCheckpointEnd, ctxAfterRestartEnd:
		if e.Phase != sim.PhaseCompute {
			c.violatef("phase-transition", e.Time, "%v start after %s end, want compute",
				e.Phase, map[context]string{ctxAfterCheckpointEnd: "checkpoint", ctxAfterRestartEnd: "restart"}[c.ctx])
			return
		}
		if e.Time != c.lastTime {
			c.violatef("phase-contiguity", e.Time, "gap before compute start at %.9g", c.lastTime)
			return
		}
		if c.ctx == ctxAfterCheckpointEnd {
			if e.Progress != c.phaseProg {
				c.violatef("progress-frozen", e.Time,
					"progress changed across checkpoint commit: %v → %v", c.phaseProg, e.Progress)
				return
			}
		} else if !c.allowReplan {
			// I6 rollback: a completed restart resumes from exactly the
			// state the restarted store committed.
			st := c.stores[c.restartIdx]
			if !st.valid || e.Progress != st.progress {
				c.violatef("rollback", e.Time,
					"restart from store %d resumed at progress %v, store holds valid=%v progress=%v",
					c.restartIdx, e.Progress, st.valid, st.progress)
				return
			}
			c.pos = st.pos
		}
	case ctxAfterFailure:
		if e.Time != c.lastTime {
			c.violatef("phase-contiguity", e.Time, "gap between failure at %.9g and recovery", c.lastTime)
			return
		}
		switch e.Phase {
		case sim.PhaseRestart:
			if !c.checkRestartChoice(e) {
				return
			}
		case sim.PhaseCompute:
			// Recovery with no usable checkpoint: restart from scratch.
			if e.Progress != 0 {
				c.violatef("scratch-restart", e.Time, "scratch restart resumed at progress %v, want 0", e.Progress)
				return
			}
			if !c.allowReplan {
				if idx := c.lowestValidStore(c.need); idx >= 0 {
					c.violatef("scratch-restart", e.Time,
						"restarted from scratch while level %d holds a valid checkpoint for need %d",
						c.plan.Levels[idx], c.need)
					return
				}
				c.pos = 0
			}
		default:
			c.violatef("phase-transition", e.Time, "recovery opened %v phase", e.Phase)
			return
		}
	case ctxInPhase:
		c.violatef("phase-transition", e.Time, "%v start while a %v phase is open", e.Phase, c.phase)
		return
	}
	c.ctx = ctxInPhase
	c.phase = e.Phase
	c.phaseLevel = e.Level
	c.phaseStart = e.Time
	c.phaseProg = e.Progress
}

// checkRestartChoice validates a restart phase opening after a failure
// and reports whether it was legal.
func (c *Checker) checkRestartChoice(e sim.Event) bool {
	if !c.validSystemLevel(e.Level) {
		c.violatef("restart-choice", e.Time, "restart at unknown level %d", e.Level)
		return false
	}
	if e.Progress != c.phaseProg {
		// Rollback happens when the restart *completes*; the read phase
		// itself runs at the pre-failure progress.
		c.violatef("progress-frozen", e.Time,
			"progress changed entering restart: %v → %v", c.phaseProg, e.Progress)
		return false
	}
	if e.Level < c.need {
		// I7 escalation legality: a severity-s failure destroys levels
		// < s, and an interrupted restart escalates per policy; either
		// way recovery below the required level reads destroyed data.
		c.violatef("restart-choice", e.Time, "restart at level %d below required level %d", e.Level, c.need)
		return false
	}
	if c.allowReplan {
		return true
	}
	idx := c.lowestValidStore(c.need)
	if idx < 0 {
		c.violatef("restart-choice", e.Time,
			"restart at level %d but no used level >= %d holds a valid checkpoint (scratch expected)",
			e.Level, c.need)
		return false
	}
	if want := c.plan.Levels[idx]; e.Level != want {
		c.violatef("restart-choice", e.Time,
			"restart at level %d, want lowest valid level %d for need %d", e.Level, want, c.need)
		return false
	}
	c.restartIdx = idx
	return true
}

// lowestValidStore returns the index into plan.Levels of the lowest used
// level >= need holding a valid shadow store, or -1.
func (c *Checker) lowestValidStore(need int) int {
	for i, lvl := range c.plan.Levels {
		if lvl >= need && c.stores[i].valid {
			return i
		}
	}
	return -1
}

func (c *Checker) validSystemLevel(l int) bool { return l >= 1 && l <= c.sys.NumLevels() }

func (c *Checker) phaseEndEvent(e sim.Event) {
	if c.ctx != ctxInPhase {
		c.violatef("phase-transition", e.Time, "%v phase end with no open phase", e.Phase)
		return
	}
	if e.Phase != c.phase || e.Level != c.phaseLevel {
		c.violatef("phase-transition", e.Time, "end of %v/L%d closes open %v/L%d",
			e.Phase, e.Level, c.phase, c.phaseLevel)
		return
	}
	d := e.Time - c.phaseStart
	c.closedSum += d
	switch c.phase {
	case sim.PhaseCompute:
		c.totals.Compute += d
		// I4 compute-progress: progress advances exactly 1:1 with
		// compute time and nowhere else.
		want := c.phaseProg + d
		if math.Abs(e.Progress-want) > durEps(want) {
			c.violatef("compute-progress", e.Time,
				"compute advanced progress %v → %v over %v minutes", c.phaseProg, e.Progress, d)
			return
		}
		if !c.allowReplan {
			// I3 durations: a full compute interval is min(τ0, remaining
			// work); phase ends fire exactly on schedule.
			expect := c.plan.Tau0
			if rem := c.sys.BaselineTime - c.phaseProg; expect > rem {
				expect = rem
			}
			if math.Abs(d-expect) > durEps(expect) {
				c.violatef("phase-duration", e.Time,
					"compute interval ran %v minutes, want min(τ0=%v, remaining=%v)",
					d, c.plan.Tau0, c.sys.BaselineTime-c.phaseProg)
				return
			}
		}
		c.ctx = ctxAfterComputeEnd
	case sim.PhaseCheckpoint:
		c.totals.Checkpoint[c.phaseLevel-1] += d
		if e.Progress != c.phaseProg {
			c.violatef("progress-frozen", e.Time,
				"progress changed during checkpoint: %v → %v", c.phaseProg, e.Progress)
			return
		}
		if !c.allowReplan {
			if expect := c.blockingCheckpointCost(c.phaseLevel); math.Abs(d-expect) > durEps(expect) {
				c.violatef("phase-duration", e.Time,
					"level-%d checkpoint ran %v minutes, want %v", c.phaseLevel, d, expect)
				return
			}
			c.commitShadow(e)
		} else if expect := c.sys.Levels[c.phaseLevel-1].Checkpoint; d > expect+durEps(expect) {
			c.violatef("phase-duration", e.Time,
				"level-%d checkpoint ran %v minutes, exceeds δ=%v", c.phaseLevel, d, expect)
			return
		}
		c.ctx = ctxAfterCheckpointEnd
	case sim.PhaseRestart:
		c.totals.Restart[c.phaseLevel-1] += d
		if e.Progress != c.phaseProg {
			c.violatef("progress-frozen", e.Time,
				"progress changed during restart read: %v → %v", c.phaseProg, e.Progress)
			return
		}
		expect := c.sys.Levels[c.phaseLevel-1].Restart
		if math.Abs(d-expect) > durEps(expect) {
			c.violatef("phase-duration", e.Time,
				"level-%d restart ran %v minutes, want R=%v", c.phaseLevel, d, expect)
			return
		}
		c.ctx = ctxAfterRestartEnd
	}
	c.phaseProg = e.Progress
}

// blockingCheckpointCost returns the expected blocking duration of a
// checkpoint at the given system level under the static plan: δ of the
// level itself, or — for an asynchronous top-level flush — δ of the
// next-lower used capture level.
func (c *Checker) blockingCheckpointCost(level int) float64 {
	n := c.plan.NumUsed()
	if c.scn.AsyncTopFlush && n >= 2 && level == c.plan.Levels[n-1] {
		return c.sys.Levels[c.plan.Levels[n-2]-1].Checkpoint
	}
	return c.sys.Levels[level-1].Checkpoint
}

// commitShadow applies a successful checkpoint commit to the shadow
// stores and advances the pattern odometer, mirroring the SCR rule: a
// level-u checkpoint commits to every used level <= u; an asynchronous
// top-level checkpoint commits only up to the capture level now and
// schedules the top-level commit at flush completion.
func (c *Checker) commitShadow(e sim.Event) {
	next := (c.pos + 1) % c.plan.PeriodIntervals()
	commitLevel := c.phaseLevel
	n := c.plan.NumUsed()
	if c.scn.AsyncTopFlush && n >= 2 && c.phaseLevel == c.plan.Levels[n-1] {
		commitLevel = c.plan.Levels[n-2]
		c.flush = &flushState{
			deadline: e.Time + c.sys.Levels[c.phaseLevel-1].Checkpoint,
			progress: e.Progress,
			pos:      next,
		}
	}
	for i, lvl := range c.plan.Levels {
		if lvl <= commitLevel {
			c.stores[i] = shadowStore{valid: true, progress: e.Progress, pos: next}
		}
	}
	c.pos = next
}

func (c *Checker) failureEvent(e sim.Event) {
	// I8 failure legality: failures strike only while a phase is open
	// (phases tile the trial), with a severity the scenario can produce.
	if c.ctx != ctxInPhase {
		c.violatef("failure-placement", e.Time, "failure with no open phase (ctx %d)", int(c.ctx))
		return
	}
	if e.Level < 1 || e.Level > c.sys.NumLevels() {
		c.violatef("failure-severity", e.Time, "severity %d outside 1..%d", e.Level, c.sys.NumLevels())
		return
	}
	if !c.canFire[e.Level-1] {
		c.violatef("failure-severity", e.Time, "severity %d fired but has zero rate and no custom law", e.Level)
		return
	}
	if e.Progress != c.phaseProg {
		c.violatef("progress-frozen", e.Time,
			"failure observed progress %v, open phase started at %v", e.Progress, c.phaseProg)
		return
	}
	d := e.Time - c.phaseStart
	c.closedSum += d
	switch c.phase {
	case sim.PhaseCompute:
		c.totals.Compute += d
	case sim.PhaseCheckpoint:
		c.totals.Checkpoint[c.phaseLevel-1] += d
	case sim.PhaseRestart:
		c.totals.Restart[c.phaseLevel-1] += d
	}

	// An in-flight flush loses its source data on any failure.
	c.flush = nil
	// The failure destroys checkpoints at levels below its severity.
	for i, lvl := range c.plan.Levels {
		if lvl < e.Level {
			c.stores[i].valid = false
		}
	}
	c.need = e.Level
	if c.phase == sim.PhaseRestart {
		c.need = c.escalatedNeed(c.phaseLevel, e.Level)
	}
	c.ctx = ctxAfterFailure
}

// escalatedNeed mirrors the engine's restart policy for a severity-sev
// failure interrupting a level-cur restart.
func (c *Checker) escalatedNeed(cur, sev int) int {
	switch c.scn.Policy {
	case sim.EscalatePolicy:
		next := cur
		if !c.allowReplan {
			for _, lvl := range c.plan.Levels {
				if lvl > cur {
					next = lvl
					break
				}
			}
		}
		if sev > next {
			next = sev
		}
		return next
	default: // sim.RetryPolicy
		if sev > cur {
			return sev
		}
		return cur
	}
}

func (c *Checker) completeEvent(e sim.Event) {
	okCtx := c.ctx == ctxAfterComputeEnd ||
		// A controller abort surfaces EvComplete straight after the
		// checkpoint commit it failed at; the engine also returns an
		// error, which the caller sees.
		(c.allowReplan && c.ctx == ctxAfterCheckpointEnd)
	if !okCtx {
		c.violatef("completion", e.Time, "EvComplete in context %d, want after a compute end", int(c.ctx))
		return
	}
	if e.Time != c.lastTime {
		c.violatef("completion", e.Time, "EvComplete at %.9g, final phase ended at %.9g", e.Time, c.lastTime)
		return
	}
	if c.ctx == ctxAfterComputeEnd && e.Progress != c.sys.BaselineTime {
		c.violatef("completion", e.Time, "completed with progress %v, want T_B=%v", e.Progress, c.sys.BaselineTime)
		return
	}
	c.endTrial(e)
}

func (c *Checker) cappedEvent(e sim.Event) {
	if c.ctx != ctxInPhase {
		c.violatef("wall-cap", e.Time, "EvCapped with no open phase (ctx %d)", int(c.ctx))
		return
	}
	// I9 wall-cap: trials are cut exactly at MaxWallFactor·T_B.
	if math.Abs(e.Time-c.maxWall) > durEps(c.maxWall) {
		c.violatef("wall-cap", e.Time, "capped at %v, cap is %v", e.Time, c.maxWall)
		return
	}
	// Charge the interrupted phase's partial time.
	d := e.Time - c.phaseStart
	c.closedSum += d
	switch c.phase {
	case sim.PhaseCompute:
		c.totals.Compute += d
	case sim.PhaseCheckpoint:
		c.totals.Checkpoint[c.phaseLevel-1] += d
	case sim.PhaseRestart:
		c.totals.Restart[c.phaseLevel-1] += d
	}
	c.endTrial(e)
}

// endTrial runs the whole-trial invariants and resets for the next one.
func (c *Checker) endTrial(e sim.Event) {
	// I10 accounting: phase times partition the wall clock — the phases
	// are contiguous from t=0, so their durations must sum to the final
	// time (one rounding error per phase).
	c.totals.Wall = e.Time
	if math.Abs(c.closedSum-e.Time) > accEps(e.Time) {
		c.violatef("time-accounting", e.Time,
			"phase durations sum to %v over a %v-minute trial", c.closedSum, e.Time)
	}
	if math.Abs(c.totals.Total()-e.Time) > accEps(e.Time) {
		c.violatef("time-accounting", e.Time,
			"per-level totals sum to %v over a %v-minute trial", c.totals.Total(), e.Time)
	}
	c.last = c.totals
	c.trials++
	c.resetTrial()
}
