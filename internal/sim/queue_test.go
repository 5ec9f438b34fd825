package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refQueue is the reference the engine's queue is held to: every pending
// event in one slice kept sorted by (at, seq).
type refQueue struct {
	evs []refEvent
	seq uint64
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (q *refQueue) push(at Time, id int) {
	q.seq++
	i, _ := slices.BinarySearchFunc(q.evs, at, func(ev refEvent, at Time) int {
		if ev.at <= at {
			return -1
		}
		return 1
	})
	q.evs = slices.Insert(q.evs, i, refEvent{at: at, seq: q.seq, id: id})
}

func (q *refQueue) stop(id int) bool {
	i := slices.IndexFunc(q.evs, func(ev refEvent) bool { return ev.id == id })
	if i < 0 {
		return false
	}
	q.evs = slices.Delete(q.evs, i, i+1)
	return true
}

func (q *refQueue) hasAt(at Time) bool {
	return slices.ContainsFunc(q.evs, func(ev refEvent) bool { return ev.at == at })
}

// queueCases counts the situations a differential stream reached; each
// must be reached by some stream.
type queueCases struct {
	ties, edges, horizon, belowBase, farRun    int
	stopCur, stopWheel, stopHeap, stopInactive int
}

// childBase offsets the id of the event an event schedules when it runs.
const childBase = 1 << 20

// queueStream runs one random stream of At, Stop, RunUntil, RunBefore,
// Step, Next and Take against the engine and the reference at once, and
// fails at the first divergence in what ran, the clock or the count
// pending. Instants are offset by origin: 0 for the simulator, a
// Unix-epoch instant for the real-time runtime's timer queue.
func queueStream(t *testing.T, seed int64, origin Time, ops int, cs *queueCases) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := New(1)
	var ref refQueue
	var got, want []int
	now := Time(0)
	child := map[int]Duration{} // an event that, run, schedules another this far ahead
	far := map[int]bool{}       // armed beyond the wheel's horizon
	var timers []Timer
	var timerIDs []int

	var arm func(at Time, id int) Timer
	arm = func(at Time, id int) Timer {
		return e.At(at, func() {
			got = append(got, id)
			if far[id] {
				cs.farRun++
			}
			if d, ok := child[id]; ok {
				arm(e.Now().Add(d), id+childBase)
			}
		})
	}
	refPop := func() {
		ev := ref.evs[0]
		ref.evs = slices.Delete(ref.evs, 0, 1)
		now = ev.at
		want = append(want, ev.id)
		if d, ok := child[ev.id]; ok {
			ref.push(now.Add(d), ev.id+childBase)
		}
	}
	refRun := func(limit Time, inclusive bool) {
		for len(ref.evs) > 0 && (ref.evs[0].at < limit || inclusive && ref.evs[0].at == limit) {
			refPop()
		}
		now = max(now, limit)
	}
	const ms = Time(time.Millisecond)
	horizon := func() Time { return Time((e.base + wheelSize) << tickShift) }
	for op := 0; op < ops; op++ {
		from := max(now, origin)
		switch r := rng.Intn(20); {
		case r < 9: // schedule
			var at Time
			switch rng.Intn(8) {
			case 0:
				at = now
			case 1: // beside a pending event: a tie, or a tick either side
				at = from
				if len(ref.evs) > 0 {
					k := Time(rng.Intn(3) - 1)
					at = max(ref.evs[rng.Intn(len(ref.evs))].at+k<<tickShift, from)
				}
			case 2:
				at = from + Time(rng.Int63n(int64(5*ms)))
			case 3:
				at = Time((tick(from) + 1 + rng.Int63n(wheelSize+2)) << tickShift)
			case 4:
				k := Time(rng.Intn(5) - 2)
				at = max(horizon()+k<<tickShift+Time(rng.Intn(3)-1), from)
			case 5:
				at = from + 1100*ms + Time(rng.Int63n(int64(30*time.Second)))
			default:
				at = from + Time(rng.Int63n(int64(1070*ms)))
			}
			id := len(timers)
			switch {
			case ref.hasAt(at):
				cs.ties++
			case at&(1<<tickShift-1) == 0:
				cs.edges++
			}
			if at == horizon() {
				cs.horizon++
			}
			if tick(at) < e.base {
				cs.belowBase++
			}
			if tick(at) >= e.base+wheelSize {
				far[id] = true
			}
			if rng.Intn(4) == 0 {
				child[id] = Duration(rng.Int63n(int64(3 * ms)))
			}
			timers = append(timers, arm(at, id))
			timerIDs = append(timerIDs, id)
			ref.push(at, id)
		case r < 12: // stop
			if len(timers) == 0 {
				continue
			}
			i := rng.Intn(len(timers))
			tm := timers[i]
			if ev := e.pool[tm.slot]; ev.gen != tm.gen {
				cs.stopInactive++
			} else if ev.heapIdx >= 0 {
				cs.stopHeap++
			} else if tick(ev.at) > e.base {
				cs.stopWheel++
			} else {
				cs.stopCur++
			}
			if a, b := tm.Stop(), ref.stop(timerIDs[i]); a != b {
				t.Fatalf("seed %d op %d: Stop(%d) = %v, reference %v", seed, op, timerIDs[i], a, b)
			}
		case r < 16: // run to a limit
			var limit Time
			switch rng.Intn(4) {
			case 0:
				limit = from
			case 1:
				limit = from + Time(rng.Int63n(int64(3*ms)))
			case 2:
				if len(ref.evs) > 0 {
					limit = ref.evs[rng.Intn(len(ref.evs))].at
					break
				}
				fallthrough
			default:
				limit = from + Time(rng.Int63n(int64(2*time.Second)))
			}
			if r < 14 {
				e.RunUntil(limit)
				refRun(limit, true)
			} else {
				e.RunBefore(limit)
				refRun(limit, false)
			}
		case r < 19: // peek, then take
			at, ok := e.Next()
			if ok != (len(ref.evs) > 0) || ok && at != ref.evs[0].at {
				t.Fatalf("seed %d op %d: Next = %v, %v; reference %v", seed, op, at, ok, ref.evs)
			}
			if ok && rng.Intn(2) == 0 {
				e.Take()()
				refPop()
			}
		default:
			ran := e.Step()
			if ran != (len(ref.evs) > 0) {
				t.Fatalf("seed %d op %d: Step disagrees with the reference", seed, op)
			}
			if ran {
				refPop()
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d op %d: ran %v\nreference %v", seed, op, got, want)
		}
		if e.Now() != now || e.Pending() != len(ref.evs) {
			t.Fatalf("seed %d op %d: now %v, %d pending; reference %v, %d",
				seed, op, e.Now(), e.Pending(), now, len(ref.evs))
		}
	}
	e.Run()
	refRun(1<<62, true)
	if !slices.Equal(got, want) {
		t.Fatalf("seed %d: drained %v\nreference %v", seed, got, want)
	}
}

// TestQueueAgainstSortedModel holds the wheel, its open bucket and the
// overflow heap to one sorted slice: random streams, at simulator and at
// Unix-epoch instants, must run the same events in the same order, and
// between them reach every case the layout has — ties, bucket edges,
// events exactly at the horizon, far events that move into the wheel, a
// push below the wheel's base after a peek, and a Stop in each of the
// three places an event can wait.
func TestQueueAgainstSortedModel(t *testing.T) {
	var cs queueCases
	for seed := int64(1); seed <= 40; seed++ {
		queueStream(t, seed, 0, 600, &cs)
		queueStream(t, seed, 1_700_000_000_123_456_789, 600, &cs)
	}
	t.Logf("%+v", cs)
	for name, n := range map[string]int{
		"tie": cs.ties, "bucket edge": cs.edges, "horizon": cs.horizon,
		"push below base": cs.belowBase, "far event run": cs.farRun,
		"stop in open bucket": cs.stopCur, "stop in wheel": cs.stopWheel,
		"stop in overflow": cs.stopHeap,
	} {
		if n == 0 {
			t.Errorf("no stream reached the %s case", name)
		}
	}
}

// TestSortNodes holds the opened bucket's sort to slices.SortFunc on
// shuffled, sorted, reversed and tie-heavy buckets, through the depth
// limit's hand-over too.
func TestSortNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 12, 13, 14, 28, 40, 300} {
		for shape := 0; shape < 4; shape++ {
			a := make([]node, n)
			for i := range a {
				a[i] = node{at: Time(rng.Intn(1 << tickShift)), seq: uint64(i), slot: int32(i)}
				if shape == 3 {
					a[i].at = Time(rng.Intn(3))
				}
			}
			switch shape {
			case 0:
				rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
			case 1:
				slices.SortFunc(a, compareNodes)
			case 2:
				slices.SortFunc(a, compareNodes)
				slices.Reverse(a)
			}
			for _, depth := range []int{0, 1, 2 * n} {
				got, want := slices.Clone(a), slices.Clone(a)
				sortNodes(got, depth)
				slices.SortFunc(want, compareNodes)
				if !slices.Equal(got, want) {
					t.Fatalf("n %d shape %d depth %d: sorted to %v", n, shape, depth, got)
				}
			}
		}
	}
}

// TestOverflowMovesBeforeItIsPassed: an event parked in the overflow
// must be in the wheel by the time the horizon covers it, or an event
// pushed later, one bucket behind it and straight into the wheel, would
// run first.
func TestOverflowMovesBeforeItIsPassed(t *testing.T) {
	e := New(1)
	var got []string
	at := func(k int64, name string) { e.At(Time(k<<tickShift), func() { got = append(got, name) }) }
	at(0, "first")
	at(4, "near")
	at(wheelSize, "far") // beyond the horizon: the overflow
	e.Step()
	e.Step() // opens tick 4: the horizon now covers "far"
	at(wheelSize+1, "after")
	e.Run()
	if !slices.Equal(got, []string{"first", "near", "far", "after"}) {
		t.Fatalf("ran %v", got)
	}
}
