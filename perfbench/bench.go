package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a median or percentile (0 when the
	// value is a single measurement or a count).
	N int `json:"-"`
}

// faults injects defects into the benchmark's view of the program so
// the tests can prove each correctness check fires. The zero value
// injects nothing; real runs never set it.
type faults struct {
	// dropTrial wraps every campaign sink so one trial per campaign is
	// never consumed.
	dropTrial bool
	// flipResponseByte flips one byte of every /v1/plan response body
	// that is served from the cache.
	flipResponseByte bool
	// skewPrediction perturbs every optimizer prediction by one ulp.
	skewPrediction bool
	// rerunDiffers re-seeds the determinism re-run.
	rerunDiffers bool
}

// bench is the state of one benchmark run: configuration, the
// correctness ledger and the metrics gathered so far.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every workload's size; 1 for real runs, tiny in
	// the benchmark's own tests.
	scale  float64
	faults faults
	// dir holds checkpoint files and traces.
	dir string

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	e2e   map[string]metric
	layer map[string]metric
	// predictMismatch counts sweeps whose reported expected time is not
	// bitwise equal to the model's Predict of the same plan, and
	// maxMismatchUlps is the largest such difference.
	predictMismatch int
	maxMismatchUlps uint64

	// traced holds the traced run's spans and ledger its self-time table.
	traced *tracer
	ledger *ledger
}

// op records one checked operation: ok=false counts it as failed.
// The first few failure reasons are kept for the report.
func (b *bench) op(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
}

// fail records an operation that returned an error.
func (b *bench) fail(err error) { b.op(false, "%v", err) }

func (b *bench) setE2E(name string, v float64, unit string, n int) {
	b.e2e[name] = metric{Value: v, Unit: unit, N: n}
}

func (b *bench) setLayer(name string, v float64, unit string, n int) {
	b.layer[name] = metric{Value: v, Unit: unit, N: n}
}

// scaled returns n multiplied by the run's scale, at least min.
func (b *bench) scaled(n, min int) int {
	v := int(math.Round(float64(n) * b.scale))
	if v < min {
		return min
	}
	return v
}

// timeSetup runs setup at least minReps times and for at least
// setupTime, and records the median as setup_s: one set-up takes
// 15-150 ms, too short a sample on its own for a machine whose speed
// wanders. Every rep but the last is torn down by the closure the
// setup returns; the last rep's state is what the measurement uses.
func (b *bench) timeSetup(minReps int, setup func() (teardown func(), err error)) error {
	var times []float64
	budget := time.Duration(float64(setupTime) * min(b.scale, 1))
	begin := time.Now()
	for i := 0; ; i++ {
		// Collect the previous rep's garbage first, so no rep pays for
		// another's.
		runtime.GC()
		start := time.Now()
		teardown, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if i+1 >= minReps && time.Since(begin) >= budget {
			break
		}
		if teardown != nil {
			teardown()
		}
	}
	b.setE2E("setup_s", median(times), "s", len(times))
	return nil
}

// setupTime is how long timeSetup keeps setting up, at full scale.
const setupTime = 3 * time.Second

// rounds calls round(r) for r = 0, 1, ... until the run's measuring
// time is spent (at least min rounds), and returns how many ran.
func (b *bench) rounds(budget time.Duration, min int, round func(r int) error) (int, error) {
	start := time.Now()
	r := 0
	for r < min || time.Since(start) < budget {
		if err := round(r); err != nil {
			return r, err
		}
		r++
	}
	return r, nil
}

// budget is the run's measuring time, split by share.
func (b *bench) budget(share float64) time.Duration {
	return time.Duration(b.seconds * share * float64(time.Second))
}

// reportThroughput sets wall_s (the median round) and the work rates
// over the whole run: total trials, and plans where planning is the
// work (plans > 0), over total round time, so every round's work
// counts.
func (b *bench) reportThroughput(walls []float64, trials, plans int) {
	t := sum(walls)
	b.setE2E("wall_s", median(walls), "s", len(walls))
	b.setE2E("trials_per_s", frac(float64(trials), t), "1/s", len(walls))
	if plans > 0 {
		b.setE2E("plans_per_s", frac(float64(plans), t), "1/s", len(walls))
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
