// Package markov computes the exact expected duration of one multilevel
// checkpoint pattern period under competing exponential failure
// processes, by first-step analysis over the period's segments. It is the
// engine behind the reimplementation of Moody et al.'s SCR Markov model
// [5] (model/moody), and doubles as an independent exact reference for
// validating the event-driven simulator.
//
// A period is a sequence of segments — computation intervals and
// checkpoint writes — ending with the top-level checkpoint. A failure of
// severity s during segment k rolls the application back to the segment
// following the most recent committed checkpoint of level >= s (or to the
// period start, whose state is the previous period's top-level
// checkpoint), after a recovery process of one or more restart attempts
// that can themselves fail. Two recovery policies are supported:
//
//   - Retry: a failure of severity <= r during a level-r restart retries
//     the same restart; a higher severity switches the recovery to the
//     level that severity requires. This is the realistic assumption the
//     paper applies to its simulations (Section IV-G).
//   - Escalate: any failure during a level-r restart escalates recovery
//     to the next level up (at least the failing severity's level),
//     capped at the top. This is Moody et al.'s pessimistic assumption,
//     the cause of their model's efficiency underestimation.
//
// The first-passage decomposition makes the computation O(segments ×
// levels): the expected time A_k to advance from segment k to k+1
// satisfies a linear relation involving only the prefix sums of earlier
// A_m, because every failure path re-enters segment k exactly once.
//
// So A_k depends only on segments 0..k and the failure model. A reused
// Solver exploits that invariant: it resumes each solve at the first
// segment where the chain differs from the one it solved last, and
// re-solves the recoveries only when the failure model changes. The
// optimizer's sweep enumerates count vectors in odometer order, so
// consecutive candidates share most of their period. Results are bitwise
// identical to a fresh solve.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
)

// RecoveryPolicy selects the failure-during-restart semantics.
type RecoveryPolicy int

const (
	// Retry is the realistic policy (paper Section IV-G).
	Retry RecoveryPolicy = iota
	// Escalate is Moody et al.'s pessimistic policy.
	Escalate
)

// SegmentKind discriminates period segments.
type SegmentKind int

const (
	// Compute is a τ0 computation interval.
	Compute SegmentKind = iota
	// Checkpoint is a checkpoint write; on success it commits state
	// recoverable for every severity up to its level.
	Checkpoint
)

// Segment is one step of the pattern period.
type Segment struct {
	Kind     SegmentKind
	Duration float64 // minutes
	// Level is the 1-based severity level a Checkpoint segment commits
	// (recoverable for severities <= Level). Ignored for Compute.
	Level int
}

// Chain is a fully-specified pattern period.
type Chain struct {
	// Segments in execution order; the last is normally the top-level
	// checkpoint.
	Segments []Segment
	// Rates holds the failure rate of each severity class, index 0 =
	// severity 1. Every severity must be recoverable by some checkpoint
	// level that appears in RestartTime.
	Rates []float64
	// RestartTime holds the restart duration per 1-based checkpoint
	// level (index 0 = level 1). A severity-s failure restarts from the
	// lowest level >= s present in this slice; entries for unused
	// levels may be 0 but the top level must cover the highest
	// severity.
	RestartTime []float64
	// Policy selects the failure-during-restart semantics.
	Policy RecoveryPolicy
}

// Work returns the useful computation per period in minutes.
func (c *Chain) Work() float64 {
	var w float64
	for _, s := range c.Segments {
		if s.Kind == Compute {
			w += s.Duration
		}
	}
	return w
}

// validate checks chain consistency and returns the total failure rate.
func (c *Chain) validate() (float64, error) {
	if len(c.Segments) == 0 {
		return 0, errors.New("markov: empty period")
	}
	if len(c.Rates) == 0 {
		return 0, errors.New("markov: no failure classes")
	}
	if len(c.RestartTime) < len(c.Rates) {
		return 0, fmt.Errorf("markov: %d restart levels cannot cover %d severities",
			len(c.RestartTime), len(c.Rates))
	}
	var total float64
	for i, r := range c.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("markov: severity %d rate %v invalid", i+1, r)
		}
		total += r
	}
	for k, s := range c.Segments {
		if !(s.Duration > 0) {
			return 0, fmt.Errorf("markov: segment %d duration %v must be positive", k, s.Duration)
		}
		if s.Kind == Checkpoint && (s.Level < 1 || s.Level > len(c.RestartTime)) {
			return 0, fmt.Errorf("markov: segment %d commit level %d out of range", k, s.Level)
		}
	}
	return total, nil
}

// Solver holds reusable scratch for chain evaluations and resumes each
// evaluation from the previous one. A zero Solver is ready to use; a
// Solver must not be shared between goroutines.
//
// Passing the same Solver to many ExpectedPeriodTimeWith calls makes the
// steady-state evaluation allocation-free and caches the per-duration
// exponentials (pattern periods repeat a handful of distinct segment
// durations — τ0 and one checkpoint cost per level — so the expensive
// exp/expm1 calls collapse from O(segments) to O(distinct durations)).
//
// It also remembers the last chain it solved. The first-passage time A_k
// depends only on segments 0..k (plus the failure model), so when the
// next chain shares its first j segments with the last one, prefix[0..j]
// and the resume-position rows 0..j are still exact and the forward
// sweep restarts at segment j. The recovery solve depends only on Rates,
// RestartTime and Policy and is redone only when one of them changes.
// Every reused value is the value a fresh solve would recompute from
// bit-identical inputs, so results are bitwise identical to a fresh
// Solver's.
type Solver struct {
	prefix     []float64 // prefix[k] = Σ_{m<k} A_m of segs
	posByLevel []int     // (len(segs)+1) rows of L resume positions
	rec        []recovery
	absorb     []float64 // backing array for the recovery absorb rows

	// The chain the scratch above describes: its segments, the failure
	// model rec is solved for (a zero Solver's empty rates match no
	// valid chain), and how far its sweep got — prefix[0..swept] is
	// exact, which is short of len(segs) when the sweep stopped at an
	// impossible segment.
	segs           []Segment
	rates, restart []float64
	policy         RecoveryPolicy
	swept          int

	// Duration → (survival, truncated-expectation) cache, valid for
	// the failure model above.
	durs, durQ, durPartial []float64
}

// expDurCacheMax bounds the duration cache's linear scan; a full cache
// is emptied before the next new duration goes in.
const expDurCacheMax = 16

// expFor returns exp(-lambda·d) and TruncExp(d, lambda), serving repeats
// from the cache. Values are bitwise identical to direct computation.
func (s *Solver) expFor(d, lambda float64) (q, partial float64) {
	for i, dv := range s.durs {
		if dv == d {
			return s.durQ[i], s.durPartial[i]
		}
	}
	q = math.Exp(-lambda * d)
	partial = dist.TruncExp(d, lambda)
	if len(s.durs) == expDurCacheMax {
		s.durs, s.durQ, s.durPartial = s.durs[:0], s.durQ[:0], s.durPartial[:0]
	}
	s.durs = append(s.durs, d)
	s.durQ = append(s.durQ, q)
	s.durPartial = append(s.durPartial, partial)
	return q, partial
}

// sameFailureModel reports whether rec was solved for c's Rates,
// RestartTime and Policy, compared bit for bit.
func (s *Solver) sameFailureModel(c *Chain) bool {
	return s.policy == c.Policy &&
		sameBits(s.rates, c.Rates) && sameBits(s.restart, c.RestartTime)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// growFloats returns s resized to n, keeping its contents.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return append(s[:cap(s)], make([]float64, n-cap(s))...)
	}
	return s[:n]
}

// growInts returns s resized to n, keeping its contents.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return append(s[:cap(s)], make([]int, n-cap(s))...)
	}
	return s[:n]
}

// ExpectedPeriodTime returns the exact expected wall-clock duration of
// one period, including all failure, rollback and recovery overhead. The
// result is +Inf when the period cannot complete (a restart or segment
// whose success probability underflows to zero).
func (c *Chain) ExpectedPeriodTime() (float64, error) {
	return c.ExpectedPeriodTimeWith(nil)
}

// ExpectedPeriodTimeWith is ExpectedPeriodTime evaluating into the
// solver's scratch buffers (nil falls back to a private solver). Hot
// loops — the brute-force interval sweep — keep one Solver per goroutine
// and pay no allocation per chain. The solve resumes at the first
// segment where c differs from the solver's previous chain (never past
// the segment where that chain's sweep stopped on +Inf), and reuses the
// recoveries when the failure model is unchanged; the result is bitwise
// identical to a fresh Solver's.
func (c *Chain) ExpectedPeriodTimeWith(s *Solver) (float64, error) {
	lambda, err := c.validate()
	if err != nil {
		return 0, err
	}
	if lambda == 0 {
		// No failures: the period is just the sum of its segments.
		var t float64
		for _, s := range c.Segments {
			t += s.Duration
		}
		return t, nil
	}
	if s == nil {
		s = &Solver{}
	}

	L := len(c.Rates)
	if !s.sameFailureModel(c) {
		// Everything cached was solved under the old failure model
		// (and possibly another level count): start over.
		s.rates = append(s.rates[:0], c.Rates...)
		s.restart = append(s.restart[:0], c.RestartTime...)
		s.policy = c.Policy
		s.durs, s.durQ, s.durPartial = s.durs[:0], s.durQ[:0], s.durPartial[:0]
		s.segs = s.segs[:0]
		c.recoveriesInto(s, lambda)
	}
	rec := s.rec

	// j = length of the prefix shared with the previous chain.
	n := len(c.Segments)
	j := 0
	for j < n && j < len(s.segs) && c.Segments[j] == s.segs[j] {
		j++
	}
	s.segs = append(s.segs[:j], c.Segments[j:]...)

	// posByLevel[k*L + (u-1)] = resume segment index after a recovery
	// from a level-u checkpoint when the failure struck segment k: the
	// segment after the latest committed checkpoint of level >= u
	// strictly before k, or 0 (period start). Row k depends only on
	// segments 0..k-1, so rows 0..j carry over.
	posByLevel := growInts(s.posByLevel, (n+1)*L)
	s.posByLevel = posByLevel
	clear(posByLevel[:L])
	for k := j; k < n; k++ {
		row := posByLevel[(k+1)*L : (k+2)*L]
		copy(row, posByLevel[k*L:(k+1)*L])
		if s := c.Segments[k]; s.Kind == Checkpoint {
			for u := 1; u <= s.Level; u++ {
				row[u-1] = k + 1
			}
		}
	}

	// Forward first-passage sweep, resumed where the previous chain's
	// exact prefix ends.
	prefix := growFloats(s.prefix, n+1) // prefix[k] = Σ_{m<k} A_m
	s.prefix = prefix
	prefix[0] = 0
	start := min(j, s.swept)
	for k := start; k < n; k++ {
		d := c.Segments[k].Duration
		q, partial := s.expFor(d, lambda)
		if q == 0 {
			s.swept = k
			return math.Inf(1), nil
		}
		pf := 1 - q

		acc := q*d + pf*partial
		for sev := 1; sev <= L; sev++ {
			ps := pf * c.Rates[sev-1] / lambda
			if ps == 0 {
				continue
			}
			r0 := sev // recovery starts at the lowest level >= severity = sev itself
			rc := rec[r0-1]
			if math.IsInf(rc.time, 1) {
				s.swept = k
				return math.Inf(1), nil
			}
			acc += ps * rc.time
			for u := r0; u <= L; u++ {
				if a := rc.absorb[u-1]; a > 0 {
					acc += ps * a * (prefix[k] - prefix[posByLevel[k*L+u-1]])
				}
			}
		}
		ak := acc / q
		prefix[k+1] = prefix[k] + ak
	}
	s.swept = n
	return prefix[n], nil
}

// recovery holds the expected duration of a recovery that starts at a
// given level and its absorption distribution over the level whose
// checkpoint is finally read.
type recovery struct {
	time   float64
	absorb []float64 // index u-1: P(recovery completes reading level u)
}

// recoveriesInto solves the per-start-level recovery chains top-down
// into the solver's scratch. Levels only move upward under both
// policies, so each level's equations depend only on strictly higher
// levels plus a self-loop.
func (c *Chain) recoveriesInto(s *Solver, lambda float64) []recovery {
	L := len(c.Rates)
	out := growRecoveries(s, L)
	for u := L; u >= 1; u-- {
		R := c.RestartTime[u-1]
		var q, partial float64
		if R > 0 {
			q, partial = s.expFor(R, lambda)
		} else {
			q = 1 // free restart always succeeds
		}
		pf := 1 - q

		var pSelf, base float64
		absorb := out[u-1].absorb
		base = q*R + pf*partial
		absorb[u-1] = q
		for s := 1; s <= L; s++ {
			ps := pf * c.Rates[s-1] / lambda
			if ps == 0 {
				continue
			}
			next := c.nextLevel(u, s, L)
			if next == u {
				pSelf += ps
				continue
			}
			base += ps * out[next-1].time
			for v := next; v <= L; v++ {
				absorb[v-1] += ps * out[next-1].absorb[v-1]
			}
		}
		denom := 1 - pSelf
		if denom <= 0 {
			out[u-1].time = math.Inf(1)
			continue
		}
		for v := range absorb {
			absorb[v] /= denom
		}
		out[u-1].time = base / denom
	}
	return out
}

// growRecoveries sizes the solver's recovery scratch to L levels with
// zeroed absorb rows carved from one backing array.
func growRecoveries(s *Solver, L int) []recovery {
	if cap(s.rec) < L || cap(s.absorb) < L*L {
		s.rec = make([]recovery, L)
		s.absorb = make([]float64, L*L)
	}
	s.rec = s.rec[:L]
	s.absorb = s.absorb[:L*L]
	for i := range s.absorb {
		s.absorb[i] = 0
	}
	for u := 0; u < L; u++ {
		s.rec[u] = recovery{absorb: s.absorb[u*L : (u+1)*L]}
	}
	return s.rec
}

// nextLevel applies the policy: the restart level after a severity-s
// failure interrupts a level-u restart.
func (c *Chain) nextLevel(u, s, top int) int {
	switch c.Policy {
	case Escalate:
		next := u + 1
		if next > top {
			next = top
		}
		if s > next {
			next = s
		}
		return next
	default: // Retry
		if s > u {
			return s
		}
		return u
	}
}
