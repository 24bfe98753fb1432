package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layer names used in spans and in the self-time table. They are the
// repository's package names, plus "bench" for the benchmark's own code
// (input generation and checks) and "client" for the HTTP client and
// transport around a daemon request.
const (
	layerBench      = "bench"
	layerOptimize   = "optimize"
	layerModel      = "model"
	layerSim        = "sim"
	layerSink       = "sink"
	layerCheckpoint = "checkpoint"
	layerService    = "service"
	layerClient     = "client"
)

var layers = []string{layerBench, layerOptimize, layerModel, layerSim, layerSink, layerCheckpoint, layerService, layerClient}

// span is one traced call into a layer. Spans are kept in memory and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Weight converts the span's duration into wall-clock time of its
	// parent: 1 for a call on the parent's goroutine, 1/W for work done
	// by one of W parallel campaign workers or client connections.
	Weight float64 `json:"weight"`
	// Count, when positive, marks an aggregate span: Count operations
	// too frequent to record one by one, whose durations sum to Total.
	Count int64 `json:"count,omitempty"`
	Total int64 `json:"total_ns,omitempty"`
	// Wait is wall-clock time work spent waiting for this layer.
	Wait int64 `json:"wait_ns,omitempty"`
}

// wall is the span's duration in wall-clock nanoseconds of its parent.
func (s *span) wall() float64 {
	d := s.End - s.Start
	if s.Count > 0 {
		d = s.Total
	}
	return float64(d) * s.Weight
}

// tracer records spans. A nil *tracer records nothing, so untraced
// runs pass nil and pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is nanoseconds since the tracer started (0 when not tracing).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span on the calling goroutine and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	return t.record(span{Parent: parent, Layer: layer, Name: name, Start: t.now(), End: -1, Weight: 1})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	e := t.now()
	t.mu.Lock()
	t.spans[id-1].End = e
	t.mu.Unlock()
}

// record stores a finished or aggregate span and returns its id.
func (t *tracer) record(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// setWait attaches waiting time to a span.
func (t *tracer) setWait(id int, wait int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Wait = wait
	t.mu.Unlock()
}

// ledgerRow is one layer's line of the self-time table.
type ledgerRow struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
	Count int64   `json:"count"`
	WaitS float64 `json:"wait_s"`
}

// ledger is the traced run's self-time table: a layer's self time is
// its spans' wall time minus the part their child spans cover, so the
// rows add up to the root spans' wall time.
type ledger struct {
	Rows  []ledgerRow `json:"rows"`
	WallS float64     `json:"wall_s"`
	// GapFrac is the share of the root spans' wall time that no program
	// layer covers: the benchmark's own self time.
	GapFrac float64 `json:"gap_frac"`
}

// buildLedger computes the self-time table from t's spans.
func buildLedger(t *tracer) *ledger {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childWall := make([]float64, len(spans)+1)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			childWall[p] += spans[i].wall()
		}
	}
	rows := map[string]*ledgerRow{}
	for _, l := range layers {
		rows[l] = &ledgerRow{Layer: l}
	}
	var wall float64
	for i := range spans {
		s := &spans[i]
		row, ok := rows[s.Layer]
		if !ok {
			row = &ledgerRow{Layer: s.Layer}
			rows[s.Layer] = row
		}
		row.SelfS += (s.wall() - childWall[s.ID]) / 1e9
		if s.Count > 0 {
			row.Count += s.Count
		} else {
			row.Count++
		}
		row.WaitS += float64(s.Wait) * s.Weight / 1e9
		if s.Parent == 0 {
			wall += s.wall() / 1e9
		}
	}
	l := &ledger{WallS: wall}
	for _, r := range rows {
		r.Share = frac(r.SelfS, wall)
		l.Rows = append(l.Rows, *r)
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].SelfS > l.Rows[j].SelfS })
	l.GapFrac = frac(rows[layerBench].SelfS, wall)
	return l
}

// share returns a layer's share of the traced wall time.
func (l *ledger) share(layer string) float64 {
	for _, r := range l.Rows {
		if r.Layer == layer {
			return r.Share
		}
	}
	return 0
}

// print writes the self-time table in aligned text.
func (l *ledger) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "self-time %s: wall %.3f s, gap %.4f\n", workload, l.WallS, l.GapFrac)
	fmt.Fprintf(w, "  %-11s %10s %7s %10s %10s\n", "layer", "self_s", "share", "count", "wait_s")
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-11s %10.4f %7.4f %10d %10.4f\n", r.Layer, r.SelfS, r.Share, r.Count, r.WaitS)
	}
}

// writeTrace writes the span tree and the self-time table as one JSON
// document under dir.
func writeTrace(dir, workload string, seed uint64, fp fingerprint, t *tracer, l *ledger) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	doc := struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Fingerprint fingerprint `json:"fingerprint"`
		Ledger      *ledger     `json:"ledger"`
		Spans       []span      `json:"spans"`
	}{workload, seed, fp, l, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
