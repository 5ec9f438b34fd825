package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiger/internal/sim"
)

func TestSimAdapter(t *testing.T) {
	eng := sim.New(1)
	var c Clock = Sim{Eng: eng}

	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	fired := make([]string, 0, 2)
	c.After(2*time.Second, func() { fired = append(fired, "after") })
	c.At(sim.Time(time.Second), func() { fired = append(fired, "at") })
	tm := c.After(3*time.Second, func() { fired = append(fired, "stopped") })
	if !tm.Stop() {
		t.Fatal("Stop reported not-pending")
	}
	eng.Run()
	if len(fired) != 2 || fired[0] != "at" || fired[1] != "after" {
		t.Fatalf("fired %v", fired)
	}
	if c.Now() != sim.Time(2*time.Second) {
		t.Fatalf("clock at %v", c.Now())
	}
}

// TestZeroTimer: an unarmed timer field needs no nil check.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("Stop on the zero Timer reported a pending callback")
	}
}

// TestSimClockAllocs pins the path the protocol code actually takes —
// scheduling through a Clock interface value, not on the engine — at
// zero allocations once the engine's slab is warm. A Timer returned as
// an interface boxes every handle.
func TestSimClockAllocs(t *testing.T) {
	eng := sim.New(1)
	var c Clock = Sim{Eng: eng}
	fired := 0
	fn := func() { fired++ }
	c.After(time.Millisecond, fn)
	eng.Run()
	if n := testing.AllocsPerRun(1000, func() {
		c.After(time.Millisecond, fn)
		eng.Run()
	}); n != 0 {
		t.Errorf("After + fire: %v allocs", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if tm := c.At(eng.Now().Add(time.Millisecond), fn); !tm.Stop() {
			t.Fatal("Stop reported not-pending")
		}
	}); n != 0 {
		t.Errorf("At + Stop: %v allocs", n)
	}
	if fired != 1002 {
		t.Fatalf("fired %d callbacks, want 1002", fired)
	}
}

// TestLockedStop: a timer of a queue shared under a lock, as the
// real-time executor's is, is stopped under that lock from any
// goroutine, and exactly: every callback either runs or its Stop
// reports true, never both and never neither.
func TestLockedStop(t *testing.T) {
	var mu sync.Mutex
	eng := sim.New(1)
	var ran atomic.Int64
	fn := func() { ran.Add(1) }
	const arms, goroutines = 500, 4
	var stopped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < arms; i++ {
				mu.Lock()
				tm := Locked(eng.At(eng.Now(), fn), &mu)
				mu.Unlock()
				if tm.Stop() {
					stopped.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		for {
			mu.Lock()
			if _, ok := eng.Next(); !ok {
				mu.Unlock()
				break
			}
			f := eng.Take()
			mu.Unlock()
			f()
		}
	}
	if got := ran.Load() + stopped.Load(); got != arms*goroutines {
		t.Fatalf("%d ran and %d stopped of %d armed", ran.Load(), stopped.Load(), arms*goroutines)
	}
}
