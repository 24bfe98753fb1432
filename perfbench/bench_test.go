package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// tinyBench is a workload run at test scale: a fraction of the real
// inputs and almost no measuring time (each loop still runs its
// minimum number of rounds).
func tinyBench(t *testing.T, workload string, trace bool, f faults) *bench {
	t.Helper()
	return &bench{workload: workload, seed: 7, seconds: 0.01, trace: trace, scale: 0.01,
		faults: f, dir: filepath.Join(t.TempDir(), "run")}
}

// runTiny runs b and returns its result and printed output.
func runTiny(t *testing.T, b *bench) (result, string) {
	t.Helper()
	if b.workload == "mlckptd-mix" {
		// The rate ladder needs real rates and time to send anything.
		b.scale, b.seconds = 0.05, 0.6
	}
	var out bytes.Buffer
	res, err := runWorkload(b, takeFingerprint(), &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", b.workload, err, out.String())
	}
	return res, out.String()
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			b := tinyBench(t, w.name, trace, faults{})
			res, out := runTiny(t, b)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := e2eMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.name, got, m.unit)
				}
			}
			if !trace {
				for _, m := range e2eMetrics {
					if !(res.Metrics[m.name].Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			} else if _, err := os.Stat(filepath.Join(filepath.Dir(b.dir), "trace", w.name+"-seed7.json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
			for _, line := range strings.Split(out, "\n") {
				f := strings.Fields(line)
				if len(f) >= 6 && f[0] == "metric" && (!nameRE.MatchString(f[3]) || !unitRE.MatchString(f[5])) {
					t.Errorf("%s: bad metric name or unit in %q", w.name, line)
				}
			}
		}
	}
}

// TestChecksFire injects one fault at a time and expects the check
// that guards against it to fail operations.
func TestChecksFire(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		f        faults
		msg      string
	}{
		{"exact sink drops a trial", "exascale-sim", faults{dropTrial: true}, "campaign of"},
		{"stream sink drops a trial", "mega-campaign", faults{dropTrial: true}, "campaign of"},
		{"prediction off by one ulp", "short-app-plan", faults{skewPrediction: true}, "sweep reported"},
		{"Workers=1 re-run differs", "exascale-sim", faults{rerunDiffers: true}, "Workers=1 re-run differs"},
		{"Workers=2 re-run differs", "mega-campaign", faults{rerunDiffers: true}, "Workers=2 re-run differs"},
		{"simulate re-run differs", "mlckptd-mix", faults{rerunDiffers: true}, "simulate: Workers=1 re-run differs"},
		{"cached response byte flipped", "mlckptd-mix", faults{flipResponseByte: true}, "plan hit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tinyBench(t, tc.workload, false, tc.f)
			res, out := runTiny(t, b)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("fault went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if !strings.Contains(out, tc.msg) {
				t.Errorf("no failure mentions %q:\n%s", tc.msg, out)
			}
		})
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]struct{ name, unit string }{}, e2eMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(m.name) || len(m.name) > 64 || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.name, m.unit)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with the code.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i := range doc.Workloads {
		if i < len(workloads) && doc.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, doc.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}
