package sim

import (
	"math/rand/v2"
	"testing"
)

// popped is one next() result.
type popped struct {
	slot int
	time float64
}

func drainEvents(q *eventTable) []popped {
	var out []popped
	for {
		slot, t, ok := q.next()
		if !ok {
			return out
		}
		out = append(out, popped{slot, t})
	}
}

func newEventTable(slots int) *eventTable {
	return &eventTable{slots: make([]pendingEvent, slots)}
}

func TestNextEvent(t *testing.T) {
	cases := []struct {
		name  string
		setup func(q *eventTable)
		want  []popped
	}{
		{"pop_order", func(q *eventTable) {
			for slot, tm := range []float64{5, 1, 4, 2, 3} {
				q.schedule(slot, tm)
			}
		}, []popped{{1, 1}, {3, 2}, {4, 3}, {2, 4}, {0, 5}}},
		{"fifo_tie_break", func(q *eventTable) {
			for _, slot := range []int{3, 0, 4, 1, 2} {
				q.schedule(slot, 7.5)
			}
		}, []popped{{3, 7.5}, {0, 7.5}, {4, 7.5}, {1, 7.5}, {2, 7.5}}},
		{"reschedule_replaces", func(q *eventTable) {
			q.schedule(0, 1)
			q.schedule(1, 1)
			q.schedule(0, 1) // a superseded flush goes behind its tie
		}, []popped{{1, 1}, {0, 1}}},
		{"slot_and_time_preserved", func(q *eventTable) {
			q.schedule(2, 0.125)
			q.schedule(4, 3.75)
			q.schedule(0, 1e-9)
		}, []popped{{0, 1e-9}, {2, 0.125}, {4, 3.75}}},
		{"disarm", func(q *eventTable) {
			q.schedule(0, 1)
			q.schedule(1, 2)
			q.schedule(2, 3)
			q.disarm(1)
			q.disarm(4) // never armed: no-op
		}, []popped{{0, 1}, {2, 3}}},
		{"disarm_head", func(q *eventTable) {
			q.schedule(0, 1)
			q.schedule(1, 2)
			q.disarm(0)
		}, []popped{{1, 2}}},
		{"reset", func(q *eventTable) {
			q.schedule(0, 1)
			q.schedule(1, 2)
			q.reset()
			q.schedule(2, 9)
		}, []popped{{2, 9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newEventTable(5)
			tc.setup(q)
			got := drainEvents(q)
			if len(got) != len(tc.want) {
				t.Fatalf("popped %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("popped %v, want %v", got, tc.want)
				}
			}
		})
	}
	t.Run("randomized_ordering", func(t *testing.T) {
		src := rand.New(rand.NewPCG(9, 10))
		for run := 0; run < 200; run++ {
			n := 2 + src.IntN(8)
			q := newEventTable(n)
			want := make([]float64, n)
			for slot := range want {
				want[slot] = float64(src.IntN(16)) / 4
				q.schedule(slot, want[slot])
			}
			got := drainEvents(q)
			if len(got) != n {
				t.Fatalf("popped %d events, want %d", len(got), n)
			}
			seen := make([]bool, n)
			for i, p := range got {
				if i > 0 && p.time < got[i-1].time {
					t.Fatalf("popped %v: time decreases at %d", got, i)
				}
				if seen[p.slot] || p.time != want[p.slot] {
					t.Fatalf("popped %v, scheduled %v", got, want)
				}
				seen[p.slot] = true
			}
		}
	})
	t.Run("randomized_interleaved", func(t *testing.T) {
		src := rand.New(rand.NewPCG(11, 12))
		for run := 0; run < 200; run++ {
			data := make([]byte, 64+src.IntN(256))
			for i := range data {
				data[i] = byte(src.Uint32())
			}
			checkNextEvent(t, data)
		}
	})
}

// refEvents is a deliberately naive reference for eventTable: every
// scheduled event is appended in scheduling order, and the earliest
// live one by (time, scheduling order) pops first.
type refEvents struct {
	entries []popped
	live    []bool
}

func (r *refEvents) schedule(slot int, t float64) {
	r.disarm(slot)
	r.entries = append(r.entries, popped{slot, t})
	r.live = append(r.live, true)
}

func (r *refEvents) disarm(slot int) {
	for i, e := range r.entries {
		if e.slot == slot {
			r.live[i] = false
		}
	}
}

func (r *refEvents) next() (popped, bool) {
	best := -1
	for i, e := range r.entries {
		if r.live[i] && (best < 0 || e.time < r.entries[best].time) {
			best = i
		}
	}
	if best < 0 {
		return popped{}, false
	}
	r.live[best] = false
	return r.entries[best], true
}

func (r *refEvents) reset() {
	for i := range r.live {
		r.live[i] = false
	}
}

// checkNextEvent drives an eventTable and refEvents through the same
// byte-decoded operation sequence and fails on the first divergence.
// The first byte picks the level count L (the table has L+2 slots);
// then each operation is schedule (with times clustered on a coarse
// grid to force ties), disarm (armed or not), next, or an occasional
// reset. Both are drained at the end.
func checkNextEvent(t *testing.T, data []byte) {
	t.Helper()
	i := 0
	byteAt := func() byte {
		if i >= len(data) {
			return 0
		}
		v := data[i]
		i++
		return v
	}
	n := 2 + int(byteAt()%5)
	q := newEventTable(n)
	ref := &refEvents{}
	compareNext := func(where string) bool {
		slot, tm, ok := q.next()
		want, wok := ref.next()
		if ok != wok || (ok && (popped{slot, tm}) != want) {
			t.Fatalf("%s: next = (%d, %v, %v), reference (%d, %v, %v)",
				where, slot, tm, ok, want.slot, want.time, wok)
		}
		return ok
	}
	for i < len(data) {
		switch op := byteAt(); op % 5 {
		case 0, 1:
			slot := int(byteAt()) % n
			tm := float64(byteAt()%16) / 4
			q.schedule(slot, tm)
			ref.schedule(slot, tm)
		case 2:
			compareNext("step")
		case 3:
			slot := int(byteAt()) % n
			q.disarm(slot)
			ref.disarm(slot)
		case 4:
			if byteAt()%8 == 0 {
				q.reset()
				ref.reset()
			}
		}
	}
	for compareNext("drain") {
	}
}

// FuzzNextEvent checks the engine's next-event table against the naive
// reference ordered by (time, scheduling order).
func FuzzNextEvent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 10, 0, 1, 10, 0, 2, 10, 2, 2, 2}) // equal-time FIFO chain
	f.Add([]byte{4, 0, 1, 5, 0, 2, 5, 2, 0, 0, 7, 3, 1, 2, 1, 3, 0, 9, 1})
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 0, 2, 3, 4, 0, 0, 3, 4, 0, 5, 1, 2, 0, 1})
	f.Fuzz(checkNextEvent)
}
