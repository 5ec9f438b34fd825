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
func TestReleasesOrder(t *testing.T) {
	type item struct {
		at  sim.Time
		seq int
	}
	rng := rand.New(rand.NewSource(1))
	var r Releases[int]
	var want, got []item
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
		now += sim.Time(rng.Intn(3)) // 0: the next add ties this instant
		if rng.Intn(4) == 0 {
			for r.Due(now) {
				at, seq := r.Pop()
				if at > now {
					t.Fatalf("release due at %d handed out at %d", at, now)
				}
				got = append(got, item{at, seq})
			}
			if len(r.q)-r.head > 64 {
				t.Fatalf("%d items kept for a handful outstanding", len(r.q)-r.head)
			}
		}
	}
	for r.Due(now + 8) {
		at, seq := r.Pop()
		got = append(got, item{at, seq})
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
