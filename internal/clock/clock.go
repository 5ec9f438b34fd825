// Package clock abstracts time and deferred execution so the Tiger
// protocol code (internal/core) runs unchanged under the deterministic
// discrete-event simulator (internal/sim) and under real wall-clock time
// (internal/rt).
package clock

import (
	"time"

	"tiger/internal/sim"
)

// Timer is a handle to a pending callback. It is a small value, not an
// interface, so arming a timer through a Clock allocates nothing: it
// wraps the simulator's generation-stamped sim.Timer or, under the
// real-time runtime, the *time.Timer behind the callback. The zero Timer
// is unarmed and Stop on it reports false, so a timer field needs no nil
// check.
type Timer struct {
	sim  sim.Timer
	real *time.Timer
}

// Real wraps the wall-clock timer behind a real-time callback.
func Real(t *time.Timer) Timer { return Timer{real: t} }

// Stop cancels the timer, reporting whether it was still pending. Under
// the simulator false means the callback has run (or the timer was
// stopped before). Under the real-time runtime false can also mean the
// callback is already queued on the node's executor and will still run:
// whoever owns the state the callback reads must not reuse it until then.
func (t Timer) Stop() bool {
	if t.real != nil {
		return t.real.Stop()
	}
	return t.sim.Stop()
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
