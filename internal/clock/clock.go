// Package clock abstracts time and deferred execution so the Tiger
// protocol code (internal/core) runs unchanged under the deterministic
// discrete-event simulator (internal/sim) and under real wall-clock time
// (internal/rt).
package clock

import (
	"sync"
	"time"

	"tiger/internal/sim"
)

// Timer is a handle to a pending callback. It is a small value, not an
// interface, so arming a timer through a Clock allocates nothing: it
// wraps a generation-stamped sim.Timer, in both runtimes, since the
// real-time executor keeps its timers in a sim.Engine of its own. There
// the queue is shared with whoever arms from another goroutine, and mu
// is the lock that guards it; under the simulator mu is nil. The zero
// Timer is unarmed and Stop on it reports false, so a timer field needs
// no nil check.
type Timer struct {
	sim sim.Timer
	mu  *sync.Mutex
}

// Locked wraps a timer of a queue that mu guards.
func Locked(t sim.Timer, mu *sync.Mutex) Timer { return Timer{sim: t, mu: mu} }

// Stop cancels the timer, reporting whether it was still pending: false
// means the callback has run, or has been taken to run, or the timer was
// stopped before. Called on the executor that runs the callback, Stop is
// exact in both runtimes: a callback it reports false for will not run.
func (t Timer) Stop() bool {
	if t.mu == nil {
		return t.sim.Stop()
	}
	t.mu.Lock()
	ok := t.sim.Stop()
	t.mu.Unlock()
	return ok
}

// Clock provides the current instant and deferred callbacks. Callbacks
// fire on the owning node's executor: implementations guarantee that all
// callbacks and message deliveries for one node are serialized, so node
// state needs no locking.
type Clock interface {
	Now() sim.Time
	At(t sim.Time, fn func()) Timer
	After(d time.Duration, fn func()) Timer
}

// Sim adapts a *sim.Engine to the Clock interface. The simulator is
// single-threaded, so serialization is trivial.
type Sim struct {
	Eng *sim.Engine
}

func (s Sim) Now() sim.Time                          { return s.Eng.Now() }
func (s Sim) At(t sim.Time, fn func()) Timer         { return Timer{sim: s.Eng.At(t, fn)} }
func (s Sim) After(d time.Duration, fn func()) Timer { return Timer{sim: s.Eng.After(d, fn)} }

var _ Clock = Sim{}
