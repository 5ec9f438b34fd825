package disk

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/sim"
)

func testDisk(t *testing.T, mutate func(*Params)) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.New(1)
	p := DefaultParams()
	p.JitterFrac = 0
	p.BlipProb = 0
	if mutate != nil {
		mutate(&p)
	}
	return eng, New(0, p, clock.Sim{Eng: eng}, rand.New(rand.NewSource(1)))
}

func TestServiceTimeComposition(t *testing.T) {
	p := DefaultParams()
	want := p.SeekAvg + p.RotHalf + time.Duration(262144/p.OuterRate*1e9)
	got := p.MeanServiceTime(262144, Outer)
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("mean service %v, want %v", got, want)
	}
	if p.MeanServiceTime(262144, Inner) <= got {
		t.Fatal("inner zone should be slower than outer")
	}
	if p.WorstServiceTime(262144, Outer) <= got {
		t.Fatal("worst case should exceed the mean")
	}
}

func TestSingleReadCompletes(t *testing.T) {
	eng, d := testDisk(t, nil)
	var done sim.Time
	d.Read(262144, Outer, sim.Time(time.Second), func(at sim.Time, _ bool) { done = at })
	eng.Run()
	want := d.Params().MeanServiceTime(262144, Outer)
	if done != sim.Time(want) {
		t.Fatalf("completed at %v, want %v", done, want)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Bytes != 262144 || st.BusyTotal != want {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueingSerializes(t *testing.T) {
	eng, d := testDisk(t, nil)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Read(262144, Outer, sim.Time(time.Duration(i)*time.Second), func(sim.Time, bool) {
			order = append(order, i)
		})
	}
	if d.QueueLen() != 5 {
		t.Fatalf("queue %d, want 5", d.QueueLen())
	}
	eng.Run()
	svc := d.Params().MeanServiceTime(262144, Outer)
	if eng.Now() != sim.Time(5*svc) {
		t.Fatalf("five serial reads finished at %v, want %v", eng.Now(), 5*svc)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestEDFPrefersEarliestDue(t *testing.T) {
	eng, d := testDisk(t, nil)
	var order []string
	// Occupy the head, then enqueue far-due before near-due.
	d.Read(262144, Outer, 0, func(sim.Time, bool) { order = append(order, "head") })
	d.Read(262144, Outer, sim.Time(time.Hour), func(sim.Time, bool) { order = append(order, "far") })
	d.Read(262144, Outer, sim.Time(time.Second), func(sim.Time, bool) { order = append(order, "near") })
	eng.Run()
	if len(order) != 3 || order[1] != "near" || order[2] != "far" {
		t.Fatalf("EDF order %v", order)
	}
}

func TestJitterBounds(t *testing.T) {
	eng, d := testDisk(t, func(p *Params) { p.JitterFrac = 0.1 })
	mean := d.Params().MeanServiceTime(262144, Outer)
	lo, hi := time.Duration(float64(mean)*0.9), time.Duration(float64(mean)*1.1)
	for i := 0; i < 200; i++ {
		var start, end sim.Time
		start = eng.Now()
		d.Read(262144, Outer, start, func(at sim.Time, _ bool) { end = at })
		eng.Run()
		svc := end.Sub(start)
		if svc < lo || svc > hi {
			t.Fatalf("service %v outside [%v, %v]", svc, lo, hi)
		}
	}
}

func TestBlipAlwaysFires(t *testing.T) {
	eng, d := testDisk(t, func(p *Params) {
		p.BlipProb = 1
		p.BlipMin = time.Second
		p.BlipMax = 2 * time.Second
	})
	var end sim.Time
	d.Read(262144, Outer, 0, func(at sim.Time, _ bool) { end = at })
	eng.Run()
	mean := d.Params().MeanServiceTime(262144, Outer)
	if extra := end.Sub(0) - mean; extra < time.Second || extra > 2*time.Second {
		t.Fatalf("blip extra %v outside [1s,2s]", extra)
	}
}

func TestPlanCapacityPaperNumbers(t *testing.T) {
	// §5: 56 disks, 0.25 MB blocks, decluster 4 → ~10.75 streams/disk,
	// 602 total.
	c := PlanCapacity(DefaultParams(), 56, 262144, time.Second, 4)
	if c.Streams != 602 {
		t.Fatalf("capacity %d, want 602", c.Streams)
	}
	if c.StreamsPerDisk < 10.7 || c.StreamsPerDisk > 10.8 {
		t.Fatalf("per-disk %.3f, want ~10.75", c.StreamsPerDisk)
	}
	// Block service time stretches so slots tile the schedule (§3.1).
	if got := c.BlockService; got != time.Duration(int64(56*time.Second)/602) {
		t.Fatalf("rounded block service %v", got)
	}
}

func TestPlanCapacityNoFaultTolerance(t *testing.T) {
	ft := PlanCapacity(DefaultParams(), 56, 262144, time.Second, 4)
	nft := PlanCapacity(DefaultParams(), 56, 262144, time.Second, 0)
	if nft.Streams <= ft.Streams {
		t.Fatalf("dropping the secondary budget should raise capacity: %d vs %d",
			nft.Streams, ft.Streams)
	}
}

func TestPlanCapacityDeclusterTradeoff(t *testing.T) {
	// §2.3: higher decluster factors reserve less bandwidth for failure
	// mode, so capacity grows with the decluster factor.
	prev := 0
	for _, dc := range []int{1, 2, 4, 8} {
		c := PlanCapacity(DefaultParams(), 56, 262144, time.Second, dc)
		if c.Streams <= prev {
			t.Fatalf("decluster %d capacity %d not above previous %d", dc, c.Streams, prev)
		}
		prev = c.Streams
	}
}

func TestMaxQueueStat(t *testing.T) {
	eng, d := testDisk(t, nil)
	for i := 0; i < 7; i++ {
		d.Read(1000, Inner, 0, nil)
	}
	eng.Run()
	if d.Stats().MaxQueue != 7 {
		t.Fatalf("max queue %d, want 7", d.Stats().MaxQueue)
	}
	if d.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", d.QueueLen())
	}
}

// TestReadCompletionAllocs: a read taken to completion with a callback
// the caller reuses costs the heap nothing once the drive's record pool
// and the engine's slab are warm.
func TestReadCompletionAllocs(t *testing.T) {
	eng, d := testDisk(t, nil)
	completions := 0
	done := func(sim.Time, bool) { completions++ }
	round := func() {
		for i := 0; i < 4; i++ { // one in service, three queued
			d.Read(262144, Outer, eng.Now().Add(time.Second), done)
		}
		eng.Run()
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("%v allocs per four reads", n)
	}
	if completions != 4*202 {
		t.Fatalf("%d completions, want %d", completions, 4*202)
	}
}

// TestPendingRecordReuse: a record recycled by Cancel or by completion
// serves a later read without leaking anything of the earlier one — not
// its callback, not its cancelled mark.
func TestPendingRecordReuse(t *testing.T) {
	eng, d := testDisk(t, nil)
	var got []string
	cb := func(name string) func(sim.Time, bool) {
		return func(sim.Time, bool) { got = append(got, name) }
	}
	far := sim.Time(time.Hour)
	inService := d.Read(262144, Outer, far, cb("in-service"))
	queued := d.Read(262144, Outer, far, cb("queued"))
	if !d.Cancel(queued) || !d.Cancel(inService) {
		t.Fatal("cancel failed")
	}
	// The queued read's record is free already; the in-service one stays
	// with its (suppressed) completion event.
	a := d.Read(262144, Outer, far, cb("a"))
	eng.Run()
	b := d.Read(262144, Outer, far, cb("b"))
	eng.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("completions %v, want [a b]", got)
	}
	if d.Cancel(queued) || d.Cancel(inService) || d.Cancel(a) || d.Cancel(b) {
		t.Fatal("a finished read was still cancellable")
	}
	if st := d.Stats(); st.Cancelled != 2 || st.CancelledBusy != 1 || st.Reads != 3 {
		t.Fatalf("stats %+v", st)
	}
}
