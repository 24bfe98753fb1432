// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them) for a fixed measuring time, checks every
// output the program produced, and prints each metric by name with its
// unit. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload exascale-sim --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, taken with no
// instrumentation attached. With --trace 1 the same workload runs again
// with spans recorded around every call the benchmark makes into a
// layer's public API, and the metrics are the per-layer ones; the span
// tree and the self-time table are written under .bench_build/trace.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	_ "repro/internal/model/daly"
	_ "repro/internal/model/dauwe"
	_ "repro/internal/model/di"
	_ "repro/internal/model/moody"
)

// workloads in the order --workload all runs them, with the layers each
// loads and why it was chosen (BENCHMARK.json repeats the reasons).
var workloads = []struct {
	name string
	run  func(b *bench, workers int) error
}{
	{"exascale-sim", func(b *bench, w int) error { return b.runBatch(exascaleSim(), w) }},
	{"short-app-plan", func(b *bench, w int) error { return b.runBatch(shortAppPlan(), w) }},
	// mega-campaign runs one worker: with two, completed blocks of the
	// stream sink park in the runner's pending map whenever one worker
	// lags, so peak RSS (43-129 MiB against 14) and throughput follow
	// scheduling noise. Its two-worker determinism re-run still shows
	// that growth, as sim.rerun_rss_growth_mib.
	{"mega-campaign", func(b *bench, w int) error { return b.runBatch(megaCampaign(), 1) }},
	{"mlckptd-mix", func(b *bench, w int) error { return b.runMix(w, w) }},
}

// e2eMetrics are the end-to-end metrics every workload reports with
// tracing off; BENCHMARK.json lists the same names and bounds them.
// trials_per_s is the one gated rate: within a workload every round
// does the same mix of work, so any other work rate is a fixed
// multiple of it. The run prints more (error_frac, plans_per_s and the
// mlckptd-mix latencies), each where it applies.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"trials_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayerMetrics are the per-layer metrics every workload reports with
// tracing on. A layer a workload does not load reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"optimize.calls", "count"},
	{"optimize.busy_s", "s"},
	{"optimize.evaluations", "count"},
	{"optimize.ns_per_eval", "ns"},
	{"optimize.pruned_frac", "ratio"},
	{"optimize.dauwe.sweep_ms_p50", "ms"},
	{"optimize.moody.sweep_ms_p50", "ms"},
	{"optimize.di.sweep_ms_p50", "ms"},
	{"model.dauwe.predict_ns", "ns"},
	{"model.moody.predict_ns", "ns"},
	{"model.di.predict_ns", "ns"},
	{"model.daly.predict_ns", "ns"},
	{"model.predict_mismatches", "count"},
	{"model.predict_mismatch_max_ulps", "count"},
	{"sim.trials", "count"},
	{"sim.campaign_busy_s", "s"},
	{"sim.trial_us_p50", "us"},
	{"sim.trial_us_p99", "us"},
	{"sim.events_per_trial", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.failures_per_trial", "count"},
	{"sim.completed_frac", "ratio"},
	{"sim.worker_busy_frac", "ratio"},
	{"sim.rerun_rss_growth_mib", "MiB"},
	{"sink.consume_ns", "ns"},
	{"sink.merges", "count"},
	{"sink.merge_us_p50", "us"},
	{"sink.busy_frac", "ratio"},
	{"checkpoint.writes", "count"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.marshal_ms_p50", "ms"},
	{"checkpoint.write_ms_p50", "ms"},
	{"service.plan.handler_ms_p50", "ms"},
	{"service.simulate.handler_ms_p50", "ms"},
	{"service.cache_hit_frac", "ratio"},
	{"service.join_frac", "ratio"},
	{"service.sweeps_per_unique", "ratio"},
	{"service.refused_frac", "ratio"},
	{"service.client_ms_p50", "ms"},
	{"service.replay_rejected_frac", "ratio"},
	{"service.inf_predict_500", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.gap_frac", "ratio"},
	{"self.optimize_frac", "ratio"},
	{"self.model_frac", "ratio"},
	{"self.sim_frac", "ratio"},
	{"self.sink_frac", "ratio"},
	{"self.checkpoint_frac", "ratio"},
	{"self.service_frac", "ratio"},
	{"self.client_frac", "ratio"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed; the program sees only inputs generated from it")
	seconds := fs.Float64("seconds", 15, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for checkpoint files and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	fp := takeFingerprint()
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fingerprint %s\n", fpJSON)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for i, name := range names {
		if i > 0 {
			// Each workload's peak_rss_mib is its own: return the
			// earlier workloads' heap and restart the high-water mark.
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		b := &bench{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1,
			dir: filepath.Join(*dir, "run")}
		res, err := runWorkload(b, fp, out)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// workers is the campaign, sweep and client-connection bound: nproc,
// at most 2, so every machine runs the same jobs.
func workers() int { return min(runtime.NumCPU(), 2) }

// runWorkload runs one workload, prints its metric table and returns
// its result object.
func runWorkload(b *bench, fp fingerprint, out io.Writer) (result, error) {
	b.e2e, b.layer = map[string]metric{}, map[string]metric{}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return result{}, err
	}
	for _, w := range workloads {
		if w.name == b.workload {
			if err := w.run(b, workers()); err != nil {
				return result{}, err
			}
		}
	}
	if _, ok := b.e2e["peak_rss_mib"]; !ok {
		if err := b.recordPeakRSS(); err != nil {
			return result{}, err
		}
	}
	b.setE2E("error_frac", frac(float64(b.failed), float64(b.attempted)), "ratio", b.attempted)

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.attempted == 0 {
		return result{}, errors.New("no operation was checked")
	}
	if b.trace {
		b.setLayer("trace.gap_frac", b.ledger.GapFrac, "ratio", 0)
		for _, l := range layers[1:] {
			b.setLayer("self."+l+"_frac", b.ledger.share(l), "ratio", 0)
		}
		for _, m := range perLayerMetrics {
			v, ok := b.layer[m.name]
			if !ok {
				v = metric{Unit: m.unit}
			}
			res.Metrics[m.name] = v
		}
		b.ledger.print(out, b.workload)
		path, err := writeTrace(filepath.Join(filepath.Dir(b.dir), "trace"), b.workload, b.seed, fp, b.traced, b.ledger)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "trace %s\n", path)
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = b.e2e[m.name]
		}
	}
	// Every metric the run measured, by name with unit and sample count;
	// the JSON line carries the subset listed above.
	printTable(out, b.workload, "end-to-end", b.e2e)
	if b.trace {
		printTable(out, b.workload, "per-layer", b.layer)
	}
	for _, f := range b.failures {
		fmt.Fprintf(out, "FAILED %s: %s\n", b.workload, f)
	}
	return res, nil
}

func printTable(out io.Writer, workload, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(out, "metric %s %s %s %s %s n=%d\n", workload, kind, n,
			strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
	}
}

// reportLayers sets the optimize, model, sim, sink and checkpoint
// layers' metrics from the traced run's counters.
func (b *bench) reportLayers(s *layerStats) {
	b.setLayer("optimize.calls", float64(s.optCalls), "count", 0)
	b.setLayer("optimize.busy_s", s.optBusyNs/1e9, "s", 0)
	b.setLayer("optimize.evaluations", s.evals, "count", 0)
	b.setLayer("optimize.ns_per_eval", frac(s.optBusyNs, s.evals), "ns", 0)
	b.setLayer("optimize.pruned_frac", frac(s.pruned, s.candidates), "ratio", 0)
	for _, t := range []string{"dauwe", "moody", "di"} {
		b.setLayer("optimize."+t+".sweep_ms_p50", median(s.sweepMs[t]), "ms", len(s.sweepMs[t]))
	}
	for _, t := range []string{"dauwe", "moody", "di", "daly"} {
		b.setLayer("model."+t+".predict_ns", median(s.predictNs[t]), "ns", len(s.predictNs[t]))
	}
	b.setLayer("model.predict_mismatches", float64(b.predictMismatch), "count", 0)
	b.setLayer("model.predict_mismatch_max_ulps", float64(b.maxMismatchUlps), "count", 0)

	trials := float64(s.simTrials)
	meanTrial := sum(s.trialNs) / float64(max(len(s.trialNs), 1))
	perTrial := frac(float64(s.events), trials)
	b.setLayer("sim.trials", trials, "count", 0)
	b.setLayer("sim.campaign_busy_s", s.campaignNs/1e9, "s", s.campaigns)
	b.setLayer("sim.trial_us_p50", quantile(s.trialNs, 0.5)/1e3, "us", len(s.trialNs))
	b.setLayer("sim.trial_us_p99", quantile(s.trialNs, 0.99)/1e3, "us", len(s.trialNs))
	b.setLayer("sim.events_per_trial", perTrial, "count", 0)
	b.setLayer("sim.ns_per_event", frac(meanTrial, perTrial), "ns", 0)
	b.setLayer("sim.failures_per_trial", frac(float64(s.simFailures), trials), "count", 0)
	b.setLayer("sim.completed_frac", frac(float64(s.simCompleted), trials), "ratio", 0)
	b.setLayer("sim.worker_busy_frac", frac(meanTrial*trials, s.capacityNs), "ratio", 0)

	consume := frac(float64(s.consumeNs), float64(s.consumeSampled))
	b.setLayer("sink.consume_ns", consume, "ns", int(s.consumeSampled))
	b.setLayer("sink.merges", float64(s.merges), "count", 0)
	b.setLayer("sink.merge_us_p50", median(s.mergeUs), "us", len(s.mergeUs))
	b.setLayer("sink.busy_frac", frac(consume*float64(s.consumes)+float64(s.mergeNs), s.capacityNs), "ratio", 0)

	b.setLayer("checkpoint.writes", float64(s.writes), "count", 0)
	b.setLayer("checkpoint.bytes", float64(s.bytes), "bytes", 0)
	b.setLayer("checkpoint.marshal_ms_p50", median(s.marshalMs), "ms", len(s.marshalMs))
	b.setLayer("checkpoint.write_ms_p50", median(s.writeMs), "ms", len(s.writeMs))
}

// fingerprint identifies the machine and build a result came from, so
// numbers from different CPUs or commits are never compared silently.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Dirty: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value
			}
		}
	}
	return fp
}

// recordPeakRSS sets peak_rss_mib from the process's high-water mark.
func (b *bench) recordPeakRSS() error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	b.setE2E("peak_rss_mib", rss, "MiB", 0)
	return nil
}

// resetPeakRSS frees what the heap does not use and resets the
// process's peak resident set size to its current size.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
