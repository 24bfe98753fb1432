package markov

import (
	"math"
	"testing"
)

// solveBoth evaluates c through the reused solver s and through a fresh
// one, and fails unless the two agree bit for bit (value and error-ness).
func solveBoth(t *testing.T, label string, s *Solver, c *Chain) float64 {
	t.Helper()
	got, gerr := c.ExpectedPeriodTimeWith(s)
	want, werr := c.ExpectedPeriodTimeWith(&Solver{})
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: reused solver err %v, fresh solver err %v", label, gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: reused solver %v (%#x), fresh solver %v (%#x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return got
}

// periodChain builds a three-level period of the given per-interval
// checkpoint levels, with compute intervals of tau0.
func periodChain(tau0 float64, levels ...int) *Chain {
	ckpt := []float64{0.5, 1.5, 6}
	c := &Chain{
		Rates:       []float64{0.02, 0.006, 0.001},
		RestartTime: []float64{0.5, 1.5, 6},
		Policy:      Escalate,
	}
	for _, l := range levels {
		c.Segments = append(c.Segments,
			Segment{Kind: Compute, Duration: tau0},
			Segment{Kind: Checkpoint, Duration: ckpt[l-1], Level: l})
	}
	return c
}

// TestSolverResumeMatchesFresh drives one Solver through a sequence of
// chains that share, extend, truncate and break each other's prefixes
// and failure models; every result must be bitwise identical to a fresh
// solve.
func TestSolverResumeMatchesFresh(t *testing.T) {
	base := periodChain(4, 1, 1, 2, 1, 1, 2, 1, 1, 3)
	withSeg := func(c *Chain, k int, seg Segment) *Chain {
		out := *c
		out.Segments = append([]Segment(nil), c.Segments...)
		out.Segments[k] = seg
		return &out
	}
	with := func(c *Chain, edit func(*Chain)) *Chain {
		out := *c
		out.Segments = append([]Segment(nil), c.Segments...)
		out.Rates = append([]float64(nil), c.Rates...)
		out.RestartTime = append([]float64(nil), c.RestartTime...)
		edit(&out)
		return &out
	}
	// A compute interval so long its survival probability underflows:
	// the sweep stops there with +Inf.
	huge := Segment{Kind: Compute, Duration: 1e6}
	infMid := withSeg(base, 8, huge)
	infMidLater := withSeg(infMid, 14, Segment{Kind: Compute, Duration: 9})

	steps := []struct {
		name  string
		chain *Chain
		inf   bool
	}{
		{"first", base, false},
		{"identical repeat", base, false},
		{"extension", periodChain(4, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 3), false},
		{"truncation", periodChain(4, 1, 1, 2, 1, 1, 3), false},
		{"back to base", base, false},
		{"middle change", periodChain(4, 1, 1, 2, 2, 1, 2, 1, 1, 3), false},
		{"new tau0", periodChain(4.5, 1, 1, 2, 2, 1, 2, 1, 1, 3), false},
		{"same tau0 again", periodChain(4.5, 1, 1, 2, 1, 1, 2, 1, 1, 3), false},
		{"changed restart", with(base, func(c *Chain) { c.RestartTime[2] = 7 }), false},
		{"restart back", base, false},
		{"changed policy", with(base, func(c *Chain) { c.Policy = Retry }), false},
		{"policy back", base, false},
		{"changed rates", with(base, func(c *Chain) { c.Rates[1] = 0.007 }), false},
		{"rates back", base, false},
		{"inf part-way", infMid, true},
		{"inf prefix shared through the inf segment", infMidLater, true},
		{"prefix shared up to the inf segment", withSeg(base, 8, Segment{Kind: Compute, Duration: 5}), false},
		{"inf again", infMid, true},
		{"base after inf", base, false},
		{"fewer levels", with(base, func(c *Chain) {
			c.Rates, c.RestartTime = c.Rates[:2], c.RestartTime[:2]
			c.Segments = c.Segments[:len(c.Segments)-2]
		}), false},
		{"fewer levels, checkpoint first", with(base, func(c *Chain) {
			c.Rates, c.RestartTime = c.Rates[:2], c.RestartTime[:2]
			c.Segments = c.Segments[1 : len(c.Segments)-2]
		}), false},
		{"more levels again", base, false},
		{"invalid chain", with(base, func(c *Chain) { c.Segments[3].Duration = 0 }), false},
		{"failure-free chain", with(base, func(c *Chain) { c.Rates = []float64{0, 0, 0} }), false},
		{"base after invalid and failure-free", base, false},
	}
	s := &Solver{}
	for _, st := range steps {
		got := solveBoth(t, st.name, s, st.chain)
		if st.inf != math.IsInf(got, 1) {
			t.Fatalf("%s: got %v, want +Inf = %v", st.name, got, st.inf)
		}
	}
}

// TestSolverDurationCacheOverflow feeds more distinct durations than the
// cache holds through one solver.
func TestSolverDurationCacheOverflow(t *testing.T) {
	s := &Solver{}
	for i := 0; i < 3*expDurCacheMax; i++ {
		c := periodChain(1+float64(i)/7, 1, 2, 1, 3)
		c.Segments[2].Duration = 2 + float64(i%5)/3
		solveBoth(t, "distinct durations", s, c)
	}
}

// fuzzReader hands out fuzz bytes, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzDuration maps a byte onto a small duration set (so durations
// repeat, as in pattern periods) with an occasional impossible one.
func fuzzDuration(b int) float64 {
	if b == 255 {
		return 1e6
	}
	return 0.25 * float64(1+b%40)
}

// FuzzSolverResume builds a random sequence of chains — each an edit of
// the previous one — and checks that one reused Solver returns bitwise
// the fresh solver's result for every chain.
func FuzzSolverResume(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 6, 3, 9, 1, 7, 0, 0, 1, 2, 3, 5, 0, 6, 4})
	f.Add([]byte{3, 10, 1, 9, 2, 8, 255, 3, 4, 2, 2, 255, 7, 1, 0, 5, 6})
	f.Add([]byte{1, 4, 40, 12, 8, 3, 2, 3, 0, 3, 1, 4, 9, 5, 2, 6, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		L := 1 + r.next()%4
		c := &Chain{Policy: RecoveryPolicy(r.next() % 2)}
		for i := 0; i < L; i++ {
			c.Rates = append(c.Rates, 0.001*float64(1+r.next()%50))
			c.RestartTime = append(c.RestartTime, fuzzDuration(r.next()))
		}
		seg := func(b int) Segment {
			if b%2 == 0 {
				return Segment{Kind: Compute, Duration: fuzzDuration(b / 2)}
			}
			return Segment{Kind: Checkpoint, Duration: fuzzDuration(b / 8), Level: 1 + (b/2)%L}
		}
		for n := 1 + r.next()%24; n > 0; n-- {
			c.Segments = append(c.Segments, seg(r.next()))
		}
		s := &Solver{}
		solveBoth(t, "initial", s, c)
		for step := 0; len(r) > 0 && step < 64; step++ {
			next := *c
			next.Segments = append([]Segment(nil), c.Segments...)
			next.Rates = append([]float64(nil), c.Rates...)
			next.RestartTime = append([]float64(nil), c.RestartTime...)
			n := len(next.Segments)
			switch r.next() % 9 {
			case 0: // repeat
			case 1: // extend
				for k := 1 + r.next()%8; k > 0; k-- {
					next.Segments = append(next.Segments, seg(r.next()))
				}
			case 2: // truncate
				if n > 1 {
					next.Segments = next.Segments[:1+r.next()%(n-1)]
				}
			case 3: // replace one segment
				next.Segments[r.next()%n] = seg(r.next())
			case 4: // new τ0: every compute interval changes
				d := fuzzDuration(r.next())
				for k := range next.Segments {
					if next.Segments[k].Kind == Compute {
						next.Segments[k].Duration = d
					}
				}
			case 5:
				next.Rates[r.next()%L] = 0.001 * float64(r.next()%50)
			case 6:
				next.RestartTime[r.next()%L] = fuzzDuration(r.next())
			case 7:
				next.Policy = 1 - next.Policy
			case 8: // another level count; checkpoints above it drop to the top
				L = 1 + r.next()%4
				for len(next.Rates) < L {
					next.Rates = append(next.Rates, 0.001*float64(1+r.next()%50))
					next.RestartTime = append(next.RestartTime, fuzzDuration(r.next()))
				}
				next.Rates, next.RestartTime = next.Rates[:L], next.RestartTime[:L]
				for k := range next.Segments {
					next.Segments[k].Level = min(next.Segments[k].Level, L)
				}
			}
			c = &next
			solveBoth(t, "step", s, c)
		}
	})
}
