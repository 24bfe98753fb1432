package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dist"
	"repro/internal/pattern"
	"repro/internal/rng"
)

// Next-event table slots: the phase end, the background flush, then
// one arrival per severity (slot 1+s for severity s).
const (
	slotPhase = 0
	slotFlush = 1
)

// pendingEvent is one next-event table entry.
type pendingEvent struct {
	time  float64
	seq   uint64 // scheduling order: FIFO tie-break among equal times
	armed bool
}

// eventTable is the engine's pending-event set. A trial never has more
// than one phase end, one flush and one arrival per severity pending,
// so each source owns a fixed slot: next scans the L+2 slots for the
// minimum (time, seq), and cancelling a slot clears its armed flag.
type eventTable struct {
	slots []pendingEvent
	seq   uint64
}

// schedule arms slot at time t, replacing any event pending there.
func (q *eventTable) schedule(slot int, t float64) {
	q.slots[slot] = pendingEvent{time: t, seq: q.seq, armed: true}
	q.seq++
}

// disarm cancels the event pending in slot, if any.
func (q *eventTable) disarm(slot int) { q.slots[slot].armed = false }

// next disarms and returns the earliest pending event: equal times pop
// in scheduling order. ok is false when nothing is armed.
func (q *eventTable) next() (slot int, t float64, ok bool) {
	slot = -1
	for i := range q.slots {
		s := &q.slots[i]
		if !s.armed {
			continue
		}
		if slot < 0 || s.time < t || (s.time == t && s.seq < q.slots[slot].seq) {
			slot, t = i, s.time
		}
	}
	if slot < 0 {
		return -1, 0, false
	}
	q.slots[slot].armed = false
	return slot, t, true
}

// reset disarms every slot.
func (q *eventTable) reset() {
	for i := range q.slots {
		q.slots[i].armed = false
	}
	q.seq = 0
}

// store holds one committed checkpoint.
type store struct {
	valid    bool
	progress float64 // useful work at commit time
	pos      int     // pattern interval index to resume at
}

// Engine executes trials of one scenario. It is built once (per worker
// goroutine, typically), validated once, and then reused for any number
// of trials: the next-event table, failure-law table, checkpoint stores,
// failure counters and RNG state are recycled between trials, so the
// per-trial hot path performs no heap allocations. An Engine is not
// safe for concurrent use; run one per goroutine.
//
// Results are identical to constructing a fresh engine per trial: Reset
// restores every piece of per-trial state, and the PCG stream for trial
// seed s is the same whether the generator is freshly built or reseeded.
type Engine struct {
	// Immutable after construction.
	scn      Scenario
	laws     []dist.Sampler // per severity, index 0 = severity 1
	maxWall  float64
	observer Observer
	makeCtl  func() PlanController

	// Owned RNG, reseeded per Run; RunRand substitutes a caller stream.
	pcg    *rand.PCG
	ownRng *rand.Rand
	rng    *rand.Rand

	// Per-trial state, recycled by reset.
	plan       pattern.Plan // current plan; Controller may swap it
	controller PlanController
	err        error // fatal mid-run error (invalid controller plan)

	events eventTable

	now        float64
	done       float64 // current useful progress (state the next checkpoint would commit)
	pos        int     // next pattern interval index
	stores     []store // one per used level
	phase      Phase
	phaseStart float64
	phaseLevel int // 1-based system level for checkpoint/restart phases
	restartIdx int // used-level index being read during PhaseRestart

	asyncCapture bool  // current checkpoint phase is an async capture
	flushStore   store // state the flush armed in slotFlush will commit

	failures []int // per-severity counters, reused across trials
	res      TrialResult
}

// NewEngine validates the scenario once and builds a reusable engine.
func NewEngine(scn Scenario) (*Engine, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	sys := scn.System
	L := sys.NumLevels()
	e := &Engine{scn: scn, laws: make([]dist.Sampler, L)}
	for sev := 1; sev <= L; sev++ {
		if len(scn.FailureLaws) >= sev && scn.FailureLaws[sev-1] != nil {
			e.laws[sev-1] = scn.FailureLaws[sev-1]
			continue
		}
		rate := sys.LevelRate(sev)
		if rate <= 0 {
			e.laws[sev-1] = nil // severity never fires
			continue
		}
		law, err := dist.NewExponential(rate)
		if err != nil {
			return nil, err
		}
		e.laws[sev-1] = law
	}
	factor := scn.MaxWallFactor
	if factor == 0 {
		factor = DefaultMaxWallFactor
	}
	e.maxWall = factor * sys.BaselineTime
	e.events.slots = make([]pendingEvent, L+2)
	e.failures = make([]int, L)
	e.stores = make([]store, 0, scn.Plan.NumUsed())
	return e, nil
}

// Observe streams every event of subsequent trials to o (nil detaches).
// Campaigns install one observer per worker engine so observer state
// stays goroutine-local and lock-free.
func (e *Engine) Observe(o Observer) { e.observer = o }

// Control installs an online plan-controller factory. Controllers are
// stateful per trial, so the factory is invoked at the start of every
// Run/RunRand; a nil factory (or a factory returning nil) disables
// control.
func (e *Engine) Control(factory func() PlanController) { e.makeCtl = factory }

// Run simulates one trial drawn from the given seed and returns its
// result. The engine's internal PCG generator is reseeded from the
// seed's raw words, so the stream is byte-identical to
// RunRand(seed.Rand()) without the per-trial generator allocation.
//
// The returned result's Failures slice aliases engine scratch and is
// valid until the next Run/RunRand; callers that retain results across
// trials must copy it.
func (e *Engine) Run(seed rng.Seed) (TrialResult, error) {
	if e.pcg == nil {
		e.pcg = &rand.PCG{}
		e.ownRng = rand.New(e.pcg)
	}
	hi, lo := seed.Words()
	e.pcg.Seed(hi, lo)
	return e.RunRand(e.ownRng)
}

// RunRand simulates one trial using a caller-provided random stream
// (trace replays and tests drive this directly). The same Failures
// aliasing contract as Run applies.
func (e *Engine) RunRand(r *rand.Rand) (TrialResult, error) {
	if r == nil {
		return TrialResult{}, fmt.Errorf("sim: nil random source")
	}
	e.rng = r
	e.reset()
	e.run()
	return e.res, e.err
}

// RunTrial simulates one application execution and returns its result —
// a thin compatibility wrapper over a single-use engine. The caller
// provides the random stream (see internal/rng for reproducible
// per-trial seeding). Campaigns and repeated runs should construct one
// Engine and reuse it instead.
func RunTrial(scn Scenario, r *rand.Rand) (TrialResult, error) {
	e, err := NewEngine(scn)
	if err != nil {
		return TrialResult{}, err
	}
	return e.RunRand(r)
}

// reset recycles all per-trial state and arms the opening events. It
// must leave the engine in exactly the state a freshly-built engine
// would start a trial in.
func (e *Engine) reset() {
	e.events.reset()
	e.now, e.done = 0, 0
	e.pos = 0
	e.phase, e.phaseStart, e.phaseLevel, e.restartIdx = 0, 0, 0, 0
	e.asyncCapture = false
	e.flushStore = store{}
	e.err = nil
	e.plan = e.scn.Plan
	if e.makeCtl != nil {
		e.controller = e.makeCtl()
	} else {
		e.controller = nil
	}

	n := e.plan.NumUsed()
	if cap(e.stores) < n {
		e.stores = make([]store, n)
	} else {
		e.stores = e.stores[:n]
		for i := range e.stores {
			e.stores[i] = store{}
		}
	}
	for i := range e.failures {
		e.failures[i] = 0
	}
	e.res = TrialResult{Failures: e.failures}

	// Stateful failure laws (trace replays) restart their stream.
	for _, law := range e.laws {
		if rw, ok := law.(dist.Rewinder); ok {
			rw.Rewind()
		}
	}

	// Arm one arrival per severity.
	for sev := 1; sev <= len(e.laws); sev++ {
		e.armFailure(sev)
	}
	e.startCompute()
}

// armFailure schedules the next arrival of a severity class.
func (e *Engine) armFailure(sev int) {
	law := e.laws[sev-1]
	if law == nil {
		return
	}
	e.events.schedule(slotFlush+sev, e.now+law.Sample(e.rng))
}

func (e *Engine) observe(kind EventKind, level int) {
	if e.observer == nil {
		return
	}
	e.observer.Observe(Event{
		Time: e.now, Kind: kind, Phase: e.phase, Level: level, Progress: e.done,
	})
}

// startPhase begins a phase of the given duration.
func (e *Engine) startPhase(p Phase, level int, duration float64) {
	e.phase = p
	e.phaseLevel = level
	e.phaseStart = e.now
	e.events.schedule(slotPhase, e.now+duration)
	e.observe(EvPhaseStart, level)
}

func (e *Engine) startCompute() {
	remaining := e.scn.System.BaselineTime - e.done
	interval := e.plan.Tau0
	if interval > remaining {
		interval = remaining
	}
	e.startPhase(PhaseCompute, 0, interval)
}

// run drives the event loop until completion or the wall-time cap.
func (e *Engine) run() {
	for {
		slot, t, ok := e.events.next()
		if !ok {
			// A phase is always pending, so an empty table cannot
			// happen; treat it defensively as completion of whatever
			// progress exists.
			break
		}
		e.now = t
		if e.now >= e.maxWall {
			e.now = e.maxWall
			e.chargePartialPhase()
			e.finish(false)
			e.observe(EvCapped, 0)
			return
		}
		switch slot {
		case slotPhase:
			if e.phaseEnd() {
				e.finish(true)
				e.observe(EvComplete, 0)
				return
			}
		case slotFlush:
			e.stores[e.plan.NumUsed()-1] = e.flushStore
		default:
			sev := slot - slotFlush
			e.res.Failures[sev-1]++
			e.observe(EvFailure, sev)
			if e.controller != nil {
				e.controller.OnFailure(e.now, sev)
			}
			e.armFailure(sev)
			e.failure(sev)
		}
	}
	e.finish(e.done >= e.scn.System.BaselineTime)
}

// phaseEnd handles successful completion of the current phase; it
// returns true when the application has finished.
func (e *Engine) phaseEnd() bool {
	d := e.now - e.phaseStart
	plan := &e.plan
	switch e.phase {
	case PhaseCompute:
		e.res.Breakdown.UsefulCompute += d // reclassified to Lost on rollback
		e.done += d
		e.observe(EvPhaseEnd, 0)
		if e.done >= e.scn.System.BaselineTime-1e-12 {
			e.done = e.scn.System.BaselineTime
			return true
		}
		usedIdx := plan.LevelAfterInterval(e.pos)
		lvl := plan.Levels[usedIdx]
		duration := e.scn.System.Levels[lvl-1].Checkpoint
		e.asyncCapture = false
		if e.scn.AsyncTopFlush && usedIdx == plan.NumUsed()-1 && plan.NumUsed() >= 2 {
			// Async: block only for the capture to the next-lower
			// level; the top-level write drains in the background.
			capture := plan.Levels[usedIdx-1]
			duration = e.scn.System.Levels[capture-1].Checkpoint
			e.asyncCapture = true
		}
		e.startPhase(PhaseCheckpoint, lvl, duration)
	case PhaseCheckpoint:
		e.res.Breakdown.CheckpointOK += d
		e.observe(EvPhaseEnd, e.phaseLevel)
		next := (e.pos + 1) % plan.PeriodIntervals()
		commitLevel := e.phaseLevel
		if e.asyncCapture {
			// Commit only up to the capture level now; the top level
			// commits when the background flush completes.
			commitLevel = plan.Levels[plan.NumUsed()-2]
			// Newer data supersedes any flush still in flight.
			e.flushStore = store{valid: true, progress: e.done, pos: next}
			e.events.schedule(slotFlush, e.now+e.scn.System.Levels[e.phaseLevel-1].Checkpoint)
			e.asyncCapture = false
		}
		// Commit to every used level at or below the committed level.
		for i, lvl := range plan.Levels {
			if lvl <= commitLevel {
				e.stores[i] = store{valid: true, progress: e.done, pos: next}
			}
		}
		e.pos = next
		if e.controller != nil {
			if newPlan, ok := e.controller.Replan(e.now, e.done); ok {
				if err := e.switchPlan(newPlan); err != nil {
					e.err = err
					e.finish(false)
					return true
				}
			}
		}
		e.startCompute()
	case PhaseRestart:
		e.res.Breakdown.RestartOK += d
		e.observe(EvPhaseEnd, e.phaseLevel)
		st := e.stores[e.restartIdx]
		e.rollbackTo(st)
		e.startCompute()
	}
	return false
}

// chargePartialPhase books the elapsed portion of an interrupted phase
// into the matching failure bucket.
func (e *Engine) chargePartialPhase() {
	d := e.now - e.phaseStart
	switch e.phase {
	case PhaseCompute:
		// Partial computation counts as compute time; the progress it
		// represented is lost implicitly because done is not advanced.
		e.res.Breakdown.UsefulCompute += d
	case PhaseCheckpoint:
		e.res.Breakdown.CheckpointFail += d
	case PhaseRestart:
		e.res.Breakdown.RestartFail += d
	}
}

// rollbackTo restores application state from a committed checkpoint.
func (e *Engine) rollbackTo(st store) {
	// Progress between the checkpoint and now is lost: reclassify.
	lost := e.done - st.progress
	if lost > 0 {
		e.res.Breakdown.UsefulCompute -= lost
		e.res.Breakdown.LostCompute += lost
	}
	e.done = st.progress
	e.pos = st.pos
}

// failure handles a severity-s arrival.
func (e *Engine) failure(sev int) {
	e.events.disarm(slotPhase)
	e.chargePartialPhase()
	// An in-flight background flush loses its source data.
	e.events.disarm(slotFlush)

	// The failure destroys checkpoint data at levels below its
	// severity.
	for i, lvl := range e.plan.Levels {
		if lvl < sev {
			e.stores[i].valid = false
		}
	}

	need := sev
	if e.phase == PhaseRestart {
		need = e.nextRestartNeed(sev)
	}
	e.beginRecovery(need)
}

// nextRestartNeed applies the restart policy when a failure of severity
// sev interrupts the in-progress restart.
func (e *Engine) nextRestartNeed(sev int) int {
	cur := e.phaseLevel
	switch e.scn.Policy {
	case EscalatePolicy:
		// Escalate to the next used level above the current one, and
		// at least to the failing severity's level.
		next := cur
		for _, lvl := range e.plan.Levels {
			if lvl > cur {
				next = lvl
				break
			}
		}
		if sev > next {
			next = sev
		}
		return next
	default: // RetryPolicy
		if sev > cur {
			return sev
		}
		return cur
	}
}

// beginRecovery starts a restart from the lowest used level >= need that
// holds a valid checkpoint, or restarts the application from scratch.
func (e *Engine) beginRecovery(need int) {
	for i, lvl := range e.plan.Levels {
		if lvl >= need && e.stores[i].valid {
			e.restartIdx = i
			e.startPhase(PhaseRestart, lvl, e.scn.System.Levels[lvl-1].Restart)
			return
		}
	}
	// No usable checkpoint anywhere: restart from scratch. The paper's
	// short-application study treats this as relaunching the job with
	// no state to read, so no restart read cost is charged.
	e.res.ScratchRestarts++
	e.rollbackTo(store{valid: true, progress: 0, pos: 0})
	e.startCompute()
}

// finish freezes the trial result.
func (e *Engine) finish(completed bool) {
	e.res.Completed = completed
	e.res.WallTime = e.now
	e.res.Progress = e.done
	if completed {
		e.res.Progress = e.scn.System.BaselineTime
	}
	if e.res.WallTime > 0 {
		e.res.Efficiency = e.res.Progress / e.res.WallTime
	} else {
		// Degenerate zero-length application.
		e.res.Efficiency = 1
	}
	// Useful compute must equal final progress; anything beyond it in
	// the bucket is work that was computed but never rolled back nor
	// counted (a partial interval at the cap): classify as lost.
	if excess := e.res.Breakdown.UsefulCompute - e.res.Progress; excess > 1e-9 {
		e.res.Breakdown.UsefulCompute -= excess
		e.res.Breakdown.LostCompute += excess
	}
	if math.IsNaN(e.res.Efficiency) {
		e.res.Efficiency = 0
	}
}

// switchPlan installs a controller-provided plan. The pattern restarts
// at position 0; committed checkpoints keep their progress but resume at
// the new pattern's start.
func (e *Engine) switchPlan(p pattern.Plan) error {
	if err := p.Validate(e.scn.System); err != nil {
		return fmt.Errorf("sim: controller produced invalid plan: %w", err)
	}
	// An in-flight flush belongs to the old plan's level layout.
	e.events.disarm(slotFlush)
	// Remap stores: keep the best committed progress per new used
	// level (a new level set may drop or add levels; a dropped level's
	// checkpoint data still exists, but the protocol will no longer
	// refresh it — conservatively carry progress for levels that appear
	// in both plans, and for new levels adopt the progress of the
	// nearest old level at or above them, which the SCR commit rule
	// guarantees exists there).
	old := e.stores
	oldLevels := e.plan.Levels
	e.plan = p
	e.pos = 0
	e.stores = make([]store, p.NumUsed())
	for i, lvl := range p.Levels {
		best := store{}
		for j, ol := range oldLevels {
			if ol >= lvl && old[j].valid {
				if !best.valid || old[j].progress > best.progress {
					best = old[j]
				}
			}
		}
		if best.valid {
			e.stores[i] = store{valid: true, progress: best.progress, pos: 0}
		}
	}
	return nil
}
