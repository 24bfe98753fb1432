package main

import (
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// layerStats accumulates the traced run's per-layer counters across
// every call the benchmark made. Only the goroutine running the
// workload touches it, after each instrumented call has returned.
type layerStats struct {
	optCalls   int
	optBusyNs  float64
	evals      float64
	candidates float64
	pruned     float64
	sweepMs    map[string][]float64
	predictNs  map[string][]float64

	campaigns    int
	campaignNs   float64
	capacityNs   float64 // Σ workers × campaign wall time
	simTrials    int64
	simFailures  int64
	simCompleted int64
	events       int64
	trialNs      []float64 // sampled per-trial engine times

	consumes       int64
	consumeSampled int64
	consumeNs      int64
	merges         int64
	mergeNs        int64
	mergeUs        []float64 // sampled merge durations

	writes    int64
	bytes     int64
	marshalMs []float64
	writeMs   []float64
}

func newLayerStats() *layerStats {
	return &layerStats{sweepMs: map[string][]float64{}, predictNs: map[string][]float64{}}
}

// sweepCounters reads the optimizer's telemetry counters, which the
// technique's public SetSweepMetrics probe directs into reg.
func (s *layerStats) sweepCounters(reg *obs.Registry) {
	snap := reg.Snapshot()
	s.evals += float64(snap.Counter("opt_evaluations_total") + snap.Counter("opt_refine_evaluations_total"))
	s.candidates += float64(snap.Counter("opt_candidates_total"))
	s.pruned += float64(snap.Counter("opt_pruned_total"))
}

// trialSlot holds the start time of the sampled trial a campaign worker
// is running, written by the TrialStart hook on that worker.
type trialSlot struct {
	trial atomic.Int64
	at    atomic.Int64
}

// countObserver is a sim.Observer that counts engine events; one per
// campaign worker, so counting needs no synchronisation.
type countObserver struct{ n int64 }

func (o *countObserver) Observe(sim.Event) { o.n++ }

// campProbe instruments one campaign through the engine's public hooks:
// TrialStart stamps sampled trials, a counting Observer per worker,
// a PortableSink wrapper timing Shard/Consume/Merge/MarshalState, and
// the Progress hook's Checkpointed updates timing checkpoint writes.
// Every sampled quantity is taken on one trial or merge in `every`, so
// the clock reads stay off most of the per-trial hot path.
type campProbe struct {
	tr     *tracer
	every  int
	ckPath string
	starts []trialSlot

	mu        sync.Mutex
	observers []*countObserver

	// Guarded by the runner's merge lock (Merge, MarshalState and
	// Progress are called from one goroutine at a time) and read after
	// Run returns.
	trials, failures, completed int64
	trialNs                     []float64
	consumes, consumeSampled    int64
	consumeNs                   int64
	merges, mergeNs             int64
	mergeUs                     []float64
	marshalMs, writeMs          []float64
	marshalEnd, writeEnd        int64
	bytes                       int64
}

func newCampProbe(tr *tracer, workers, every int, ckPath string) *campProbe {
	p := &campProbe{tr: tr, every: every, ckPath: ckPath, starts: make([]trialSlot, workers)}
	for i := range p.starts {
		p.starts[i].trial.Store(-1)
	}
	return p
}

// attach wires the probe's hooks into the campaign and wraps its sink.
func (p *campProbe) attach(c *sim.Campaign, inner sim.PortableSink) {
	c.Sink = &timedSink{PortableSink: inner, p: p}
	c.TrialStart = func(w, i int) {
		if i%p.every == 0 {
			p.starts[w].at.Store(p.tr.now())
			p.starts[w].trial.Store(int64(i))
		}
	}
	c.ObserverFactory = func(int) sim.Observer {
		o := &countObserver{}
		p.mu.Lock()
		p.observers = append(p.observers, o)
		p.mu.Unlock()
		return o
	}
	c.Progress = func(u sim.ProgressUpdate) {
		final := u.Final && u.State == sim.RunStateComplete
		if !(u.Checkpointed || final) || p.marshalEnd <= p.writeEnd {
			return
		}
		p.writeEnd = p.tr.now()
		p.writeMs = append(p.writeMs, float64(p.writeEnd-p.marshalEnd)/1e6)
		if fi, err := os.Stat(p.ckPath); err == nil {
			p.bytes += fi.Size()
		}
	}
}

func (p *campProbe) events() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, o := range p.observers {
		n += o.n
	}
	return n
}

// timedSink wraps a PortableSink; every other method delegates.
type timedSink struct {
	sim.PortableSink
	p *campProbe
}

type timedShard struct {
	inner                    sim.SinkShard
	p                        *campProbe
	trials, fails, completed int64
	consumeNs, sampled       int64
	trialNs                  []float64
}

func (s *timedSink) Shard() sim.SinkShard {
	return &timedShard{inner: s.PortableSink.Shard(), p: s.p}
}

func (sh *timedShard) Consume(i int, r *sim.TrialResult) {
	sh.trials++
	sh.fails += int64(r.TotalFailures())
	if r.Completed {
		sh.completed++
	}
	p := sh.p
	if i%p.every != 0 {
		sh.inner.Consume(i, r)
		return
	}
	t0 := p.tr.now()
	for w := range p.starts {
		if p.starts[w].trial.Load() == int64(i) {
			sh.trialNs = append(sh.trialNs, float64(t0-p.starts[w].at.Load()))
		}
	}
	sh.inner.Consume(i, r)
	sh.consumeNs += p.tr.now() - t0
	sh.sampled++
}

func (s *timedSink) Merge(shard sim.SinkShard) error {
	sh := shard.(*timedShard)
	p := s.p
	t0 := p.tr.now()
	err := s.PortableSink.Merge(sh.inner)
	d := p.tr.now() - t0
	p.merges++
	p.mergeNs += d
	if p.merges%int64(p.every) == 1 || p.every == 1 {
		p.mergeUs = append(p.mergeUs, float64(d)/1e3)
	}
	p.trials += sh.trials
	p.failures += sh.fails
	p.completed += sh.completed
	p.consumes += sh.trials
	p.consumeSampled += sh.sampled
	p.consumeNs += sh.consumeNs
	p.trialNs = append(p.trialNs, sh.trialNs...)
	return err
}

func (s *timedSink) MarshalState() ([]byte, error) {
	p := s.p
	t0 := p.tr.now()
	b, err := s.PortableSink.MarshalState()
	p.marshalEnd = p.tr.now()
	p.marshalMs = append(p.marshalMs, float64(p.marshalEnd-t0)/1e6)
	return b, err
}

// record files the campaign's probe readings as child spans of the
// campaign span and folds them into the run's layer statistics.
// Worker-side time is weighted 1/workers: it used one worker's share
// of the campaign's wall time.
func (p *campProbe) record(s *layerStats, campSpan int, workers int, wallNs int64) {
	w := 1 / float64(workers)
	meanConsume := float64(p.consumeNs) / float64(max(p.consumeSampled, 1))
	meanTrial := sum(p.trialNs) / float64(max(len(p.trialNs), 1))
	busy := meanTrial * float64(p.trials)
	idle := float64(workers)*float64(wallNs) - busy
	if idle < 0 {
		idle = 0
	}
	p.tr.setWait(campSpan, int64(idle*w))
	p.tr.record(span{Parent: campSpan, Layer: layerSink, Name: "sink.consume", Weight: w,
		Count: p.consumes, Total: int64(meanConsume * float64(p.consumes))})
	p.tr.record(span{Parent: campSpan, Layer: layerSink, Name: "sink.merge", Weight: w,
		Count: p.merges, Total: p.mergeNs})
	if len(p.marshalMs) > 0 {
		p.tr.record(span{Parent: campSpan, Layer: layerCheckpoint, Name: "checkpoint.marshal", Weight: w,
			Count: int64(len(p.marshalMs)), Total: int64(sum(p.marshalMs) * 1e6)})
		p.tr.record(span{Parent: campSpan, Layer: layerCheckpoint, Name: "checkpoint.write", Weight: w,
			Count: int64(len(p.writeMs)), Total: int64(sum(p.writeMs) * 1e6)})
	}

	s.campaigns++
	s.campaignNs += float64(wallNs)
	s.capacityNs += float64(workers) * float64(wallNs)
	s.simTrials += p.trials
	s.simFailures += p.failures
	s.simCompleted += p.completed
	s.events += p.events()
	s.trialNs = append(s.trialNs, p.trialNs...)
	s.consumes += p.consumes
	s.consumeSampled += p.consumeSampled
	s.consumeNs += p.consumeNs
	s.merges += p.merges
	s.mergeNs += p.mergeNs
	s.mergeUs = append(s.mergeUs, p.mergeUs...)
	s.writes += int64(len(p.writeMs))
	s.bytes += p.bytes
	s.marshalMs = append(s.marshalMs, p.marshalMs...)
	s.writeMs = append(s.writeMs, p.writeMs...)
}

// dropSink is the injected fault for the tests: it never consumes
// trial 0, as a sink that loses a result would.
type dropSink struct{ sim.PortableSink }

type dropShard struct{ inner sim.SinkShard }

func (s dropSink) Shard() sim.SinkShard { return &dropShard{s.PortableSink.Shard()} }

func (s dropSink) Merge(sh sim.SinkShard) error { return s.PortableSink.Merge(sh.(*dropShard).inner) }

func (sh *dropShard) Consume(i int, r *sim.TrialResult) {
	if i != 0 {
		sh.inner.Consume(i, r)
	}
}
