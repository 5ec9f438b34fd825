package clock

import (
	"math/rand"
	"sort"
	"testing"

	"tiger/internal/sim"
)

// TestReleasesOrder: whatever order amounts are added in, Pop yields
// them by instant, equal instants in the order they were added, and
// nothing before its time — against a stable sort of the same items.
// Len counts what is queued and Next names the instant Pop returns next.
func TestReleasesOrder(t *testing.T) {
	type item struct {
		at  sim.Time
		seq int
	}
	rng := rand.New(rand.NewSource(1))
	var r Releases[int]
	if _, ok := r.Next(); ok || r.Len() != 0 {
		t.Fatal("the zero queue is not empty")
	}
	var want, got []item
	pop := func() item {
		next, ok := r.Next()
		before := r.Len()
		at, seq := r.Pop()
		if !ok || next != at || r.Len() != before-1 {
			t.Fatalf("Next %d (%v) and Len %d before popping %d, Len %d after", next, ok, before, at, r.Len())
		}
		return item{at, seq}
	}
	now := sim.Time(0)
	for seq := 0; seq < 5000; seq++ {
		// Mostly one pace, so appends arrive sorted; a third of the adds
		// use a shorter one and have to walk in from the back.
		pace := sim.Time(8)
		if rng.Intn(3) == 0 {
			pace = 2
		}
		r.Add(now+pace, seq)
		want = append(want, item{now + pace, seq})
		if r.Len() != len(want)-len(got) {
			t.Fatalf("Len %d with %d added and %d popped", r.Len(), len(want), len(got))
		}
		now += sim.Time(rng.Intn(3)) // 0: the next add ties this instant
		if rng.Intn(4) == 0 {
			for r.Due(now) {
				it := pop()
				if it.at > now {
					t.Fatalf("release due at %d handed out at %d", it.at, now)
				}
				got = append(got, it)
			}
			if next, ok := r.Next(); ok && next <= now {
				t.Fatalf("next release at %d is due at %d but Due says no", next, now)
			}
			if r.Len() > 64 {
				t.Fatalf("%d items kept for a handful outstanding", r.Len())
			}
		}
	}
	for r.Due(now + 8) {
		got = append(got, pop())
	}
	if _, ok := r.Next(); ok || r.Len() != 0 {
		t.Fatalf("%d left after draining", r.Len())
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("%d releases handed out, %d added", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if cap(r.q) > 256 {
		t.Fatalf("backing array grew to %d for at most a few dozen outstanding", cap(r.q))
	}
}

// TestReleasesSteadyStateAllocs: a queue that never drains — the rated
// load case, where a new send starts before the oldest ends — reuses its
// backing array.
func TestReleasesSteadyStateAllocs(t *testing.T) {
	var r Releases[int64]
	now := sim.Time(0)
	round := func() {
		for i := 0; i < 100; i++ {
			now++
			r.Add(now+10, 1)
			for r.Due(now) {
				r.Pop()
			}
		}
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("%v allocs per 100 adds", a)
	}
}
