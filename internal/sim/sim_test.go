package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.After(3*time.Second, func() { got = append(got, 3) })
	e.After(1*time.Second, func() { got = append(got, 1) })
	e.After(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("clock at %v, want 3s", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(time.Second), func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not in insertion order: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopDuringRun(t *testing.T) {
	e := New(1)
	fired := false
	var tm Timer
	e.After(time.Second, func() { tm.Stop() })
	tm = e.After(2*time.Second, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("timer stopped mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Time(time.Second), func() { count++ })
	}
	e.RunUntil(Time(5 * time.Second))
	if count != 5 {
		t.Fatalf("ran %d events, want 5", count)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock at %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("%d pending, want 5", e.Pending())
	}
}

func TestRunForAdvancesEvenWhenIdle(t *testing.T) {
	e := New(1)
	e.RunFor(7 * time.Second)
	if e.Now() != Time(7*time.Second) {
		t.Fatalf("clock at %v, want 7s", e.Now())
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	e := New(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			e.After(time.Millisecond, recur)
		}
	}
	e.After(0, recur)
	e.Run()
	if depth != 100 {
		t.Fatalf("chain depth %d, want 100", depth)
	}
	if e.Now() != Time(99*time.Millisecond) {
		t.Fatalf("clock %v, want 99ms", e.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New(1)
	e.RunFor(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Time(time.Millisecond), func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	e := New(1)
	e.RunFor(time.Second)
	fired := false
	e.After(-5*time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if e.Now() != Time(time.Second) {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		e := New(seed)
		var out []int64
		var step func()
		step = func() {
			out = append(out, int64(e.Now()), e.Rand().Int63n(1000))
			if len(out) < 200 {
				e.After(time.Duration(e.Rand().Intn(50)+1)*time.Millisecond, step)
			}
		}
		e.After(0, step)
		e.Run()
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the final clock equals the maximum delay.
func TestQuickEventOrder(t *testing.T) {
	f := func(delays []uint32) bool {
		e := New(7)
		var fired []Time
		var max Time
		for _, d := range delays {
			at := Time(d % 1_000_000_000)
			if at > max {
				max = at
			}
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTimerAfterReuse is the generation-stamp proof: a Timer whose
// event already fired must report false from Stop and must never cancel
// an unrelated later event that recycled the same slab record.
func TestStaleTimerAfterReuse(t *testing.T) {
	e := New(1)
	stale := e.After(time.Second, func() {})
	e.Run() // fires; the record returns to the free list

	// The next schedule reuses the freed slot (LIFO free list).
	fired := false
	fresh := e.After(time.Second, func() { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("free list did not recycle the slot: %d vs %d", fresh.slot, stale.slot)
	}
	if stale.Stop() {
		t.Fatal("stale Stop reported true after its record was recycled")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Stop cancelled an unrelated event")
	}
}

// TestStoppedTimerSlotReuse covers the other recycle path: Stop frees the
// record, and the stopped handle must stay inert across reuse.
func TestStoppedTimerSlotReuse(t *testing.T) {
	e := New(1)
	a := e.After(time.Second, func() { t.Fatal("stopped event fired") })
	if !a.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	fired := 0
	b := e.After(2*time.Second, func() { fired++ })
	if b.slot != a.slot {
		t.Fatalf("free list did not recycle the slot: %d vs %d", b.slot, a.slot)
	}
	if a.Stop() {
		t.Fatal("doubly-stopped stale handle reported true")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	if b.Stop() {
		t.Fatal("Stop after firing reported true")
	}
}

func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop reported true")
	}
}

// TestStopInterleavedOrdering removes events from the middle of a large
// heap and checks the survivors still fire in exact (time, seq) order.
func TestStopInterleavedOrdering(t *testing.T) {
	e := New(1)
	var want []int
	var got []int
	timers := make([]Timer, 0, 300)
	for i := 0; i < 300; i++ {
		i := i
		// Deliberately colliding times exercise the seq tie-break.
		at := Time(int64(i%37) * int64(time.Millisecond))
		timers = append(timers, e.At(at, func() { got = append(got, i) }))
	}
	for i, tm := range timers {
		if i%3 == 1 {
			if !tm.Stop() {
				t.Fatalf("Stop on pending timer %d reported false", i)
			}
		}
	}
	for at := 0; at < 37; at++ {
		for i := 0; i < 300; i++ {
			if i%3 != 1 && i%37 == at {
				want = append(want, i)
			}
		}
	}
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestTakeMatchesStep: popping with Next and Take, and running what Take
// returns, visits the events Step would, in its order, with the same
// clock and count, and spends the handle of what it took.
func TestTakeMatchesStep(t *testing.T) {
	schedule := func(e *Engine, got *[]int) []Timer {
		rng := rand.New(rand.NewSource(7))
		var timers []Timer
		for i := 0; i < 200; i++ {
			i := i
			timers = append(timers, e.At(Time(rng.Intn(50)), func() { *got = append(*got, i) }))
		}
		for i := 0; i < len(timers); i += 5 {
			timers[i].Stop()
		}
		return timers
	}
	var stepped, taken []int
	ref, e := New(1), New(1)
	schedule(ref, &stepped)
	timers := schedule(e, &taken)
	if _, ok := New(1).Next(); ok {
		t.Fatal("Next on an empty engine reported an event")
	}
	for {
		at, ok := e.Next()
		if !ok {
			break
		}
		ref.Step()
		e.Take()()
		if e.Now() != at || e.Now() != ref.Now() || e.Processed() != ref.Processed() {
			t.Fatalf("Take to %v (Next said %v, %d processed); Step to %v (%d)",
				e.Now(), at, e.Processed(), ref.Now(), ref.Processed())
		}
	}
	if ref.Pending() != 0 || len(taken) != len(stepped) {
		t.Fatalf("Take ran %d events, Step %d (%d left)", len(taken), len(stepped), ref.Pending())
	}
	for i := range stepped {
		if taken[i] != stepped[i] {
			t.Fatalf("order diverged at %d: Take %d, Step %d", i, taken[i], stepped[i])
		}
	}
	for i, tm := range timers {
		if tm.Stop() {
			t.Fatalf("timer %d still stoppable after it was taken", i)
		}
	}
}

var nop = func() {}

// TestAfterAllocs is the allocation budget of the steady scheduling path:
// on a warmed engine, a fire-and-forget After (and its Run) must not
// allocate at all.
func TestAfterAllocs(t *testing.T) {
	e := New(1)
	for i := 0; i < 64; i++ { // warm the slab and heap
		e.After(time.Duration(i)*time.Microsecond, nop)
	}
	e.Run()
	if a := testing.AllocsPerRun(200, func() {
		e.After(time.Microsecond, nop)
		e.Run()
	}); a != 0 {
		t.Fatalf("After+Run allocated %.1f/op on a warmed engine, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		tm := e.After(time.Second, nop)
		tm.Stop()
	}); a != 0 {
		t.Fatalf("After+Stop allocated %.1f/op on a warmed engine, want 0", a)
	}
}

func TestTimeHelpers(t *testing.T) {
	x := Time(1500 * time.Millisecond)
	if x.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", x.Seconds())
	}
	if x.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatal("Add broken")
	}
	if x.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatal("Sub broken")
	}
	if x.String() != "1.5s" {
		t.Fatalf("String = %q", x.String())
	}
}
