package rt

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tiger/internal/clock"
)

// ticker is a timer's owner with its callback bound once, as the
// protocol's records bind theirs.
type ticker struct {
	fired  chan struct{}
	onTick func()
}

func newTicker() *ticker {
	tk := &ticker{fired: make(chan struct{}, 1)}
	tk.onTick = tk.tick
	return tk
}

func (tk *ticker) tick() { tk.fired <- struct{}{} }

// TestNodeTimerAllocs: arming a timer on a Node through a Clock
// interface value, with a bound callback, allocates nothing, whether
// the timer fires or is stopped. Each used to cost a *time.Timer, the
// closure around Do and a goroutine per firing.
func TestNodeTimerAllocs(t *testing.T) {
	n := NewNode(time.Now())
	defer n.Close()
	var c clock.Clock = n
	tk := newTicker()
	if a := testing.AllocsPerRun(200, func() {
		c.At(c.Now().Add(50*time.Microsecond), tk.onTick)
		<-tk.fired
	}); a != 0 {
		t.Errorf("At + fire: %v allocs", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if !c.At(c.Now().Add(time.Hour), tk.onTick).Stop() {
			t.Fatal("Stop reported not-pending")
		}
	}); a != 0 {
		t.Errorf("At + Stop: %v allocs", a)
	}
}

// TestNodeTimerOrderAndStop: timers run in instant order, equal instants
// in arming order; one whose instant passed while the executor was busy
// is still stopped exactly; and an At from another goroutine wakes a
// sleeping executor.
func TestNodeTimerOrderAndStop(t *testing.T) {
	n := NewNode(time.Now())
	defer n.Close()

	var got []int
	n.Sync(func() {
		at := n.Now().Add(20 * time.Millisecond)
		for i, d := range []time.Duration{10, 0, 10, -5, 0, 10} {
			i := i
			n.At(at.Add(d*time.Millisecond), func() { got = append(got, i) })
		}
	})
	time.Sleep(60 * time.Millisecond)
	n.Sync(func() {
		if want := []int{3, 1, 4, 0, 2, 5}; !slices.Equal(got, want) {
			t.Errorf("ran %v, want %v", got, want)
		}
	})

	var ran atomic.Bool
	n.Sync(func() {
		tm := n.After(5*time.Millisecond, func() { ran.Store(true) })
		time.Sleep(30 * time.Millisecond) // the instant passes; the executor is busy
		if !tm.Stop() {
			t.Error("Stop of a timer whose instant passed while the executor was busy reported false")
		}
	})
	time.Sleep(20 * time.Millisecond)
	n.Sync(func() {})
	if ran.Load() {
		t.Fatal("a stopped timer ran")
	}

	// The executor sleeps on a timer an hour out; a nearer one armed from
	// here must wake it.
	n.After(time.Hour, func() {})
	time.Sleep(10 * time.Millisecond)
	tk := newTicker()
	start := time.Now()
	n.After(10*time.Millisecond, tk.onTick)
	select {
	case <-tk.fired:
		if waited := time.Since(start); waited < 10*time.Millisecond {
			t.Errorf("timer ran after %v, armed for 10ms", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a timer armed from another goroutine never woke the executor")
	}
}

// TestClosedNodeReleasesTimers: Close drops pending timers. None runs,
// and a callback armed a minute out no longer keeps what it captured —
// a closed cub — alive until its instant.
func TestClosedNodeReleasesTimers(t *testing.T) {
	n := NewNode(time.Now())
	var ran atomic.Bool
	freed := make(chan struct{})
	n.Sync(func() {
		cub := new([64]byte)
		runtime.SetFinalizer(cub, func(*[64]byte) { close(freed) })
		n.After(time.Minute, func() {
			_ = cub[0]
			ran.Store(true)
		})
		n.After(30*time.Millisecond, func() { ran.Store(true) })
	})
	n.Close()
	if tm := n.After(0, func() { ran.Store(true) }); tm.Stop() {
		t.Fatal("a closed node armed a timer")
	}
	deadline := time.After(5 * time.Second)
	for freedYet := false; !freedYet; {
		runtime.GC()
		select {
		case <-freed:
			freedYet = true
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("a timer's callback still holds what it captured after Close")
		}
	}
	time.Sleep(50 * time.Millisecond) // past the 30 ms timer's instant
	if ran.Load() {
		t.Fatal("a timer ran after Close returned")
	}
	runtime.KeepAlive(n) // as its host does: a closed node is still referenced
}
