package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// maxWorkers bounds Campaign.Workers. Far above any real machine; a
// request beyond it is a unit mix-up (e.g. passing a trial count), not
// a parallelism choice, and is rejected rather than silently clamped.
const maxWorkers = 1 << 16

// Campaign runs many independent trials of one scenario.
type Campaign struct {
	// Scenario is the per-trial scenario.
	Scenario Scenario
	// Trials is the number of independent executions (the paper uses
	// 200, or 400 for Figure 5).
	Trials int
	// Seed is the scenario-level seed. Trial i always draws its random
	// stream from Seed.Trial(i): the seed→trial mapping is part of the
	// API contract, so a campaign's results — including the order of
	// Efficiencies and every aggregate — are byte-identical for a given
	// Seed regardless of Workers, scheduling, or engine reuse.
	Seed rng.Seed
	// Workers bounds parallelism. 0 means GOMAXPROCS; values above
	// Trials are clamped to Trials (extra workers would idle). Negative
	// or absurdly large (> 65536) values are rejected by Run.
	Workers int
	// ObserverFactory, when non-nil, builds one Observer per worker
	// goroutine (called once per worker with its index); every trial the
	// worker runs streams events to that observer. Keeping observer
	// state goroutine-local lets metrics shards aggregate without locks
	// on the hot path (see internal/obs.Pool).
	ObserverFactory func(worker int) Observer
	// ControllerFactory, when non-nil, builds one fresh PlanController
	// per trial (controllers are stateful). A factory returning nil
	// leaves that trial uncontrolled.
	ControllerFactory func() PlanController
	// TrialStart, when non-nil, is called from the worker goroutine
	// immediately before each trial runs, with the worker's index and
	// the campaign trial index — it must be safe for concurrent use.
	// Flight recorders hook in here to label the upcoming event stream
	// (see internal/trace.FlightPool).
	TrialStart func(worker, trial int)
	// TrialDone, when non-nil, is called once after every completed
	// trial, from worker goroutines — it must be safe for concurrent
	// use. Progress reporters hook in here. The result's Failures slice
	// is engine scratch, only valid during the call.
	TrialDone func(TrialResult)

	// Sink receives the per-trial results (see CampaignSink for the
	// scheduling contract). nil means an ExactSink, which reproduces the
	// historical buffered aggregation bit for bit; NewStreamSink gives
	// constant-memory aggregation for mega-campaigns.
	Sink CampaignSink
	// Block is the scheduling block size in trials (0 means
	// DefaultBlock). The trial range is cut into fixed Block-sized
	// pieces that merge into the sink in ascending order; the partition
	// depends only on trial indices, so results are byte-identical for
	// any Workers. Checkpoints and shard boundaries are block-aligned,
	// so resuming or sharding requires the same Block the original run
	// used.
	Block int
	// Checkpoint, when non-nil, enables periodic checkpointing and
	// resume (requires the sink to be a PortableSink; the default exact
	// sink and the stream sink both are).
	Checkpoint *CheckpointConfig
	// Progress, when non-nil, receives ProgressUpdates as the merged
	// prefix advances: one update when the run starts, one whenever
	// blocks merge (flagged when the merge also wrote a checkpoint), and
	// a final update on every exit path — complete, failed, or halted —
	// so progress sidecars can mirror the final-checkpoint-on-error
	// contract. Calls are made under the runner's merge lock and must be
	// fast and non-blocking (throttle expensive work, e.g. file writes,
	// inside the callback).
	Progress func(ProgressUpdate)

	// noEngineReuse forces a fresh engine per trial; determinism tests
	// use it to prove reuse does not change results.
	noEngineReuse bool
}

// RunState classifies a campaign run's lifecycle in ProgressUpdates and
// progress sidecars.
type RunState string

const (
	// RunStateRunning: trials are still merging.
	RunStateRunning RunState = "running"
	// RunStateComplete: the run finished every trial in its range.
	RunStateComplete RunState = "complete"
	// RunStateFailed: the run stopped on an error; Merged trials were
	// still flushed (checkpointed when configured).
	RunStateFailed RunState = "failed"
	// RunStateHalted: CheckpointConfig.HaltAfter stopped the run cleanly.
	RunStateHalted RunState = "halted"
)

// ProgressUpdate reports the merged-prefix progress of a campaign run.
// Trial counts are absolute campaign indices: a shard run covering
// [First, Limit) reports Merged within that range, against the
// whole-campaign Total.
type ProgressUpdate struct {
	// First and Limit delimit the trial range this run covers (the full
	// campaign for Run, the shard's slice for RunShard).
	First, Limit int
	// Merged is the contiguous merged prefix: trials [First, Merged) are
	// folded into the sink.
	Merged int
	// Total is Campaign.Trials.
	Total int
	// State is the run's lifecycle state; exactly one update with
	// Final=true carries a terminal state.
	State RunState
	// Checkpointed marks updates issued right after a checkpoint write.
	Checkpointed bool
	// Final marks the last update of the run.
	Final bool
	// Err is the terminal error when State is RunStateFailed.
	Err error
}

// notify invokes the Progress hook if set.
func (c *Campaign) notify(u ProgressUpdate) {
	if c.Progress != nil {
		u.Total = c.Trials
		c.Progress(u)
	}
}

// DefaultBlock is the default scheduling block size. Small enough that
// a paper-sized 200-trial campaign still spreads across 16+ workers,
// large enough that per-block merge bookkeeping is noise.
const DefaultBlock = 8

// blockSize resolves Campaign.Block.
func (c *Campaign) blockSize() int {
	if c.Block > 0 {
		return c.Block
	}
	return DefaultBlock
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	// Efficiency summarizes the per-trial efficiency (the bars and
	// whiskers of Figures 2, 4 and 5).
	Efficiency stats.Summary
	// WallTime summarizes the per-trial wall time in minutes.
	WallTime stats.Summary
	// Efficiencies holds every trial's efficiency, in trial order. It is
	// opt-in: only the exact-slice sink (the default when Campaign.Sink
	// is nil) populates it, for callers that need per-trial values — the
	// Welch/paired significance tests of Section IV-F, exact quantiles.
	// Streaming sinks leave it nil and carry EfficiencySketch instead.
	Efficiencies []float64
	// EfficiencySketch, when non-nil, is the streaming sink's log-bucket
	// quantile sketch over per-trial efficiencies (exact N/mean/std/
	// min/max, bucket-interpolated quantiles). nil on exact-sink runs.
	EfficiencySketch *stats.Sketch
	// WallTimeSketch is the streaming counterpart for per-trial wall
	// times in minutes. nil on exact-sink runs.
	WallTimeSketch *stats.Sketch
	// MeanBreakdown is the across-trials mean of each Figure 3
	// category, in minutes.
	MeanBreakdown Breakdown
	// BreakdownShare is MeanBreakdown normalized by the mean wall time
	// (the Figure 3 percentages, as fractions summing to 1).
	BreakdownShare Breakdown
	// Completed counts trials that finished before the wall-time cap.
	Completed int
	// Trials echoes the campaign size.
	Trials int
	// MeanFailures is the mean per-trial failure count by severity.
	MeanFailures []float64
	// MeanScratchRestarts is the mean per-trial count of recoveries
	// that found no usable checkpoint.
	MeanScratchRestarts float64
}

// Run executes the campaign. Each worker goroutine builds one Engine
// and drives all of its trials through it, so the per-trial hot path
// allocates nothing; per-trial seeding (Seed.Trial(i)) makes the
// aggregate deterministic for a given Campaign.Seed regardless of
// scheduling, worker count, or engine reuse. Results stream through
// the campaign's sink (exact-slice by default — see CampaignSink);
// with a Checkpoint config, Run periodically persists the sink's
// merged prefix and can resume from it bitwise-exactly.
func (c Campaign) Run() (CampaignResult, error) {
	if err := c.validate(); err != nil {
		return CampaignResult{}, err
	}
	var sink CampaignSink
	if c.Sink == nil {
		s := NewExactSink()
		s.Reserve(c.Trials, c.Scenario.System.NumLevels())
		sink = s
	} else {
		sink = c.Sink
	}
	first := 0
	if ck := c.Checkpoint; ck != nil && ck.Resume {
		// validate() guarantees the sink is portable when Checkpoint is
		// set.
		next, loaded, err := c.loadCheckpoint(sink.(PortableSink))
		if err != nil {
			return CampaignResult{}, err
		}
		if loaded {
			first = next
		}
	}
	halted, err := c.runBlocks(sink, first, c.Trials)
	if err != nil {
		return CampaignResult{}, err
	}
	if halted {
		return CampaignResult{}, ErrCampaignHalted
	}
	c.notify(ProgressUpdate{First: 0, Limit: c.Trials, Merged: c.Trials,
		State: RunStateComplete, Final: true})
	return sink.Result()
}

// validate checks the campaign's invariants (shared by Run and
// PairedCampaign.Run).
func (c Campaign) validate() error {
	if c.Trials <= 0 {
		return errors.New("sim: campaign needs at least one trial")
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative Workers %d", c.Workers)
	}
	if c.Workers > maxWorkers {
		return fmt.Errorf("sim: Workers %d exceeds limit %d", c.Workers, maxWorkers)
	}
	if c.Block < 0 {
		return fmt.Errorf("sim: negative Block %d", c.Block)
	}
	if ck := c.Checkpoint; ck != nil {
		if ck.Path == "" {
			return errors.New("sim: CheckpointConfig needs a Path")
		}
		if ck.Interval <= 0 || ck.Interval > c.Trials {
			return fmt.Errorf("sim: checkpoint interval %d outside [1, Trials=%d]", ck.Interval, c.Trials)
		}
		if c.Sink != nil {
			if _, ok := c.Sink.(PortableSink); !ok {
				return fmt.Errorf("sim: sink %T cannot checkpoint (needs PortableSink)", c.Sink)
			}
		}
	}
	return nil
}

// runBlocks executes trials [first, limit) of the validated campaign
// through sink. first must be block-aligned (checkpoints and shard
// boundaries always are). The trial range is cut into fixed-size blocks
// (blockSize trials; the partition ignores Workers entirely); block b
// belongs statically to worker b mod W, each worker folds its block
// into a fresh SinkShard in ascending trial order, and completed shards
// merge into the sink in ascending block order under the prefix merger
// below — so the sink's folds see the exact same sequences in the exact
// same order for every worker count, which is what makes streaming
// aggregation, checkpoint/resume and shard merges bitwise
// deterministic. Returns halted=true when CheckpointConfig.HaltAfter
// stopped the run early; on every exit path with a checkpoint config
// (success, halt, trial error) the merged prefix is flushed to the
// checkpoint file, so the fail-fast contract loses no finished work.
func (c Campaign) runBlocks(sink CampaignSink, first, limit int) (halted bool, err error) {
	ck := c.Checkpoint
	flushFinal := func(next int) error {
		if ck == nil {
			return nil
		}
		return c.writeSinkFile(ck.Path, sink.(PortableSink), 0, next)
	}
	if first >= limit {
		// Resuming a completed campaign: nothing to run.
		return false, nil
	}
	c.notify(ProgressUpdate{First: first, Limit: limit, Merged: first, State: RunStateRunning})
	B := c.blockSize()
	if first%B != 0 {
		return false, fmt.Errorf("sim: start trial %d is not aligned to block size %d", first, B)
	}
	firstBlock := first / B
	endBlock := (limit + B - 1) / B
	nBlocks := endBlock - firstBlock
	workers := c.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nBlocks {
		workers = nBlocks
	}

	// Prefix merger: completed shards park in pending until the next
	// in-order block arrives, then merge in ascending block order.
	// mergedTrials is therefore always the length of the contiguous
	// merged prefix — the only thing a checkpoint may persist.
	var (
		mergeMu      sync.Mutex
		pending      = make(map[int]SinkShard)
		nextBlock    = firstBlock
		mergedTrials = first
		lastCkpt     = first
		mergeErr     error
	)
	haltAt := 0
	if ck != nil && ck.HaltAfter > 0 {
		haltAt = first + ck.HaltAfter
	}
	var haltFlag atomic.Bool

	// A failed trial poisons the whole campaign, so it cancels the
	// remaining trials on every worker instead of letting them burn
	// through the full campaign before Run can report it. Cancellation is
	// by trial index, not a plain flag: firstBad holds the lowest failing
	// trial seen so far, and a worker skips trial i only when some trial
	// BELOW i has failed. The worker owning the globally lowest failing
	// trial k therefore always reaches and records k (its earlier trials
	// precede k and cannot be cancelled by errors at or above k), so the
	// error Run returns is the error of the lowest-index failing trial —
	// deterministic for a given Seed regardless of Workers or scheduling.
	// Blocks consisting entirely of trials below k likewise always
	// complete and merge, so the checkpoint flushed on the error path
	// holds every finished block below the failure.
	const noFailure = int64(1<<63 - 1)
	var firstBad atomic.Int64
	firstBad.Store(noFailure)
	type trialError struct {
		trial int
		err   error
	}
	var (
		errMu    sync.Mutex
		failures []trialError
	)
	record := func(trial int, err error) {
		for {
			cur := firstBad.Load()
			if int64(trial) >= cur || firstBad.CompareAndSwap(cur, int64(trial)) {
				break
			}
		}
		errMu.Lock()
		failures = append(failures, trialError{trial: trial, err: err})
		errMu.Unlock()
	}

	submit := func(b int, shard SinkShard) {
		mergeMu.Lock()
		defer mergeMu.Unlock()
		if mergeErr != nil {
			return
		}
		before := mergedTrials
		pending[b] = shard
		for {
			sh, ok := pending[nextBlock]
			if !ok {
				break
			}
			delete(pending, nextBlock)
			if err := sink.Merge(sh); err != nil {
				mergeErr = err
				haltFlag.Store(true)
				return
			}
			nextBlock++
			mergedTrials = nextBlock * B
			if mergedTrials > limit {
				mergedTrials = limit
			}
		}
		ckpted := false
		if ck != nil && mergedTrials < limit && mergedTrials-lastCkpt >= ck.Interval {
			if err := c.writeSinkFile(ck.Path, sink.(PortableSink), 0, mergedTrials); err != nil {
				mergeErr = err
				haltFlag.Store(true)
				return
			}
			lastCkpt = mergedTrials
			ckpted = true
		}
		if mergedTrials > before || ckpted {
			// Under mergeMu by design: updates arrive in merged-prefix
			// order, so sidecar writers never see progress move backwards.
			c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
				State: RunStateRunning, Checkpointed: ckpted})
		}
		if haltAt > 0 && mergedTrials >= haltAt {
			haltFlag.Store(true)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var obs Observer
			if c.ObserverFactory != nil {
				obs = c.ObserverFactory(w)
			}
			eng, err := NewEngine(c.Scenario)
			if err != nil {
				// Attribute construction errors to the worker's first
				// trial so they order deterministically with trial errors.
				record((firstBlock+w)*B, err)
				return
			}
			eng.Observe(obs)
			eng.Control(c.ControllerFactory)
			for b := firstBlock + w; b < endBlock; b += workers {
				if haltFlag.Load() {
					return
				}
				lo := b * B
				hi := lo + B
				if hi > limit {
					hi = limit
				}
				shard := sink.Shard()
				for i := lo; i < hi; i++ {
					if firstBad.Load() < int64(i) {
						return
					}
					if c.noEngineReuse {
						eng, err = NewEngine(c.Scenario)
						if err != nil {
							record(i, err)
							return
						}
						eng.Observe(obs)
						eng.Control(c.ControllerFactory)
					}
					if c.TrialStart != nil {
						c.TrialStart(w, i)
					}
					r, err := eng.Run(c.Seed.Trial(i))
					if err != nil {
						record(i, fmt.Errorf("trial %d: %w", i, err))
						return
					}
					shard.Consume(i, &r)
					if c.TrialDone != nil {
						c.TrialDone(r)
					}
				}
				submit(b, shard)
			}
		}(w)
	}
	wg.Wait()

	if mergeErr != nil {
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
			State: RunStateFailed, Final: true, Err: mergeErr})
		return false, mergeErr
	}
	if len(failures) > 0 {
		worst := failures[0]
		for _, f := range failures[1:] {
			if f.trial < worst.trial {
				worst = f
			}
		}
		// Flush the finished prefix before reporting, so the fail-fast
		// contract loses no completed work. The final progress update
		// mirrors the same contract: it records the partial state.
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
			State: RunStateFailed, Final: true, Err: worst.err})
		if ferr := flushFinal(mergedTrials); ferr != nil {
			return false, fmt.Errorf("%w (and checkpoint flush failed: %v)", worst.err, ferr)
		}
		return false, worst.err
	}
	if haltFlag.Load() {
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
			State: RunStateHalted, Final: true})
		if err := flushFinal(mergedTrials); err != nil {
			return false, err
		}
		return true, nil
	}
	if err := flushFinal(limit); err != nil {
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: limit,
			State: RunStateFailed, Final: true, Err: err})
		return false, err
	}
	return false, nil
}

// aggregateResults folds per-trial results into a CampaignResult in a
// fixed order: trial order, Welford accumulation order and
// normalization are all fixed, so any runner that produced the same
// TrialResults — batched or not — aggregates bitwise-identically.
// ExactSink.Result and PairedCampaign share it.
func aggregateResults(L int, results []TrialResult) CampaignResult {
	out := CampaignResult{Trials: len(results)}
	var eff, wall stats.Sample
	out.MeanFailures = make([]float64, L)
	out.Efficiencies = make([]float64, len(results))
	for i := range results {
		r := &results[i]
		eff.Add(r.Efficiency)
		wall.Add(r.WallTime)
		out.Efficiencies[i] = r.Efficiency
		out.MeanBreakdown.Add(r.Breakdown)
		if r.Completed {
			out.Completed++
		}
		for s := 0; s < L; s++ {
			out.MeanFailures[s] += float64(r.Failures[s])
		}
		out.MeanScratchRestarts += float64(r.ScratchRestarts)
	}
	n := float64(len(results))
	out.MeanBreakdown.Scale(1 / n)
	for s := range out.MeanFailures {
		out.MeanFailures[s] /= n
	}
	out.MeanScratchRestarts /= n
	out.Efficiency = stats.Summarize(&eff)
	out.WallTime = stats.Summarize(&wall)
	if total := out.MeanBreakdown.Total(); total > 0 {
		out.BreakdownShare = out.MeanBreakdown
		out.BreakdownShare.Scale(1 / total)
	}
	return out
}
