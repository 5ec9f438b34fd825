package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// shardedTrace runs a synthetic cross-shard workload — every node
// periodically fires and posts a message to a node on another shard,
// which schedules a local follow-up — and records every execution as a
// line in the executing shard's trace. Only the owning shard writes its
// trace during a window (the same single-writer discipline the
// coordinator's mailboxes use), so per-shard traces are race-free and
// must match byte for byte across worker counts.
func shardedTrace(t *testing.T, shards, workers int, horizon Duration) [][]string {
	t.Helper()
	const lookahead = 300 * time.Microsecond
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New(int64(100 + i))
	}
	co := NewSharded(engines, lookahead, workers)

	traces := make([][]string, shards)
	// Each shard runs a few self-rescheduling nodes with co-prime
	// periods so window boundaries land unevenly, plus cross-shard
	// posts at exactly the lookahead and a bit beyond it.
	for i := range engines {
		src := i
		e := engines[src]
		for n := 0; n < 3; n++ {
			node := n
			period := Duration(37+13*src+7*node) * time.Microsecond
			var tick func()
			tick = func() {
				now := e.Now()
				traces[src] = append(traces[src], fmt.Sprintf("tick s%d n%d @%d", src, node, now))
				dst := (src + 1 + node) % shards
				delay := lookahead + Duration(node)*29*time.Microsecond
				co.Post(src, dst, now.Add(delay), func() {
					at := engines[dst].Now()
					traces[dst] = append(traces[dst], fmt.Sprintf("recv s%d<-s%d n%d @%d", dst, src, node, at))
				})
				e.After(period, tick)
			}
			e.After(period, tick)
		}
	}
	co.RunUntil(Time(horizon))
	if co.Now() != Time(horizon) {
		t.Fatalf("coordinator stopped at %v, want %v", co.Now(), Time(horizon))
	}
	return traces
}

// TestShardedDeterministicAcrossWorkers is the engine-level half of the
// sharded-vs-serial guarantee: the same partitioned model must produce
// an identical execution trace at any worker count. The appends to the
// shared trace slice are themselves cross-goroutine, so running this
// test under -race also exercises the barrier's happens-before edges.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		serial := shardedTrace(t, shards, 1, 20*time.Millisecond)
		for sh, tr := range serial {
			if len(tr) == 0 {
				t.Fatalf("shards=%d: shard %d has an empty trace", shards, sh)
			}
		}
		for _, workers := range []int{2, 4} {
			par := shardedTrace(t, shards, workers, 20*time.Millisecond)
			for sh := range serial {
				if len(par[sh]) != len(serial[sh]) {
					t.Fatalf("shards=%d workers=%d shard=%d: %d events vs %d serial",
						shards, workers, sh, len(par[sh]), len(serial[sh]))
				}
				for i := range serial[sh] {
					if par[sh][i] != serial[sh][i] {
						t.Fatalf("shards=%d workers=%d shard=%d: trace diverges at %d:\n  serial: %s\n  par:    %s",
							shards, workers, sh, i, serial[sh][i], par[sh][i])
					}
				}
			}
		}
	}
}

// TestShardedPostOrdering pins the drain order contract: posts landing
// at the same instant on one destination run in (source shard, append
// order) — independent of which goroutine executed the source.
func TestShardedPostOrdering(t *testing.T) {
	engines := []*Engine{New(1), New(2), New(3)}
	co := NewSharded(engines, time.Millisecond, 2)
	var got []string
	// All three shards post to shard 0 for the same instant from the
	// same window.
	for i := range engines {
		src := i
		engines[src].After(100*time.Microsecond, func() {
			for k := 0; k < 2; k++ {
				k := k
				co.Post(src, 0, Time(2*time.Millisecond), func() {
					got = append(got, fmt.Sprintf("s%d#%d", src, k))
				})
			}
		})
	}
	co.RunUntil(Time(3 * time.Millisecond))
	want := []string{"s0#0", "s0#1", "s1#0", "s1#1", "s2#0", "s2#1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

// TestRunBefore pins the strict-bound semantics the interior windows
// rely on: an event at exactly the bound must not run, and the clock
// still advances to the bound.
func TestRunBefore(t *testing.T) {
	e := New(1)
	var ran []int
	e.At(Time(10), func() { ran = append(ran, 10) })
	e.At(Time(20), func() { ran = append(ran, 20) })
	e.At(Time(30), func() { ran = append(ran, 30) })
	e.RunBefore(Time(20))
	if len(ran) != 1 || ran[0] != 10 {
		t.Fatalf("RunBefore(20) ran %v, want [10]", ran)
	}
	if e.Now() != Time(20) {
		t.Fatalf("now %v after RunBefore(20)", e.Now())
	}
	e.RunUntil(Time(20))
	if len(ran) != 2 || ran[1] != 20 {
		t.Fatalf("RunUntil(20) ran %v, want [10 20]", ran)
	}
	if got := e.Processed(); got != 2 {
		t.Fatalf("Processed = %d, want 2", got)
	}
}

// TestShardedBarrierHook: the hook runs once after every drain — the one
// that opens a RunUntil and the one after each window, the final window
// included — with every engine at the window's end, the mailboxes
// drained and no shard running, at any worker count. Every shard's
// events and the hook write the same per-shard counters, so under -race
// a hook that overlapped a window would also show as a race.
func TestShardedBarrierHook(t *testing.T) {
	const (
		lookahead = 300 * time.Microsecond
		period    = 10 * time.Microsecond
	)
	for _, workers := range []int{1, 2, 4} {
		engines := make([]*Engine, 4)
		for i := range engines {
			engines[i] = New(int64(i))
		}
		co := NewSharded(engines, lookahead, workers)
		events := make([]int, len(engines)) // per shard, since the last hook: written by both
		last := make([]Time, len(engines))  // per shard, the last event's instant
		var inHook atomic.Bool
		var overlaps atomic.Int64
		for i, e := range engines {
			var tick func()
			tick = func() {
				if inHook.Load() {
					overlaps.Add(1)
				}
				events[i]++
				last[i] = e.Now()
				co.Post(i, (i+1)%len(engines), e.Now().Add(lookahead), func() {})
				e.After(period, tick)
			}
			e.At(0, tick)
		}
		var at []Time
		co.OnBarrier(func() {
			inHook.Store(true)
			defer inHook.Store(false)
			end := engines[0].Now()
			for i, e := range engines {
				if e.Now() != end || last[i] > end {
					t.Fatalf("workers=%d: shard %d at %v, last event %v, at a barrier at %v", workers, i, e.Now(), last[i], end)
				}
				for dst := range engines {
					if len(co.mail[i][dst]) > 0 {
						t.Fatalf("workers=%d: the hook ran before the drain", workers)
					}
				}
				events[i] = 0
			}
			at = append(at, end)
		})
		co.RunUntil(Time(1000 * time.Microsecond))
		co.RunUntil(Time(1400 * time.Microsecond))
		us := func(d int64) Time { return Time(d * int64(time.Microsecond)) }
		// The second RunUntil opens with a drain at 1 ms and hops to the
		// next event, 10 µs on.
		want := []Time{0, us(300), us(600), us(900), us(1000), us(1000), us(1310), us(1400)}
		if fmt.Sprint(at) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: hook ran at %v, want %v", workers, at, want)
		}
		for i := range engines {
			if last[i] != us(1400) {
				t.Fatalf("workers=%d: shard %d's last event at %v, before the final window's end", workers, i, last[i])
			}
		}
		if overlaps.Load() != 0 {
			t.Fatalf("workers=%d: %d events ran during the hook", workers, overlaps.Load())
		}
	}
}
