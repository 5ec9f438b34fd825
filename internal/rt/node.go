// Package rt runs the Tiger protocol (internal/core) in real time over
// real TCP connections: goroutine-per-node executors, wall-clock timers,
// and the wire framing. The identical cub and controller code that runs
// under the simulator runs here — that is the point of the clock and
// transport abstractions.
package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"tiger/internal/clock"
	"tiger/internal/sim"
)

// Node is one machine's executor: a serial event loop that all timers
// and message deliveries for the node are funnelled through, giving the
// protocol code the same single-threaded discipline it has under the
// simulator. Its timers wait in a sim.Engine used as a due-ordered
// queue, driven by one wall-clock timer, so arming one allocates
// nothing.
type Node struct {
	epoch     time.Time
	exec      chan func()
	quit      chan struct{}
	once      sync.Once
	wg        sync.WaitGroup
	processed atomic.Uint64

	mu     sync.Mutex  // guards timers and closed
	timers *sim.Engine // its clock is the instant of the last timer taken
	closed bool        // Close has dropped the timers; At arms nothing
	wake   chan struct{}
}

// NewNode creates and starts a node executor. All nodes of one system
// must share the same epoch (the controller is the clock master, §2.1).
func NewNode(epoch time.Time) *Node {
	n := &Node{
		epoch:  epoch,
		exec:   make(chan func(), 4096),
		quit:   make(chan struct{}),
		timers: sim.New(0),
		wake:   make(chan struct{}, 1),
	}
	n.wg.Add(1)
	go n.loop()
	return n
}

// loop runs every timer that has fallen due, sets the wall-clock timer
// for the next, and waits for it, a Do, or a wake from an At that armed
// an earlier head. Only callbacks count as events; a wake-up is none.
func (n *Node) loop() {
	defer n.wg.Done()
	wall := time.NewTimer(time.Hour)
	wall.Stop()
	armed, armedAt := false, sim.Time(0) // armed: set, and not yet received from
	for {
		if next, ok := n.runDue(); ok && (!armed || next != armedAt) {
			if armed && !wall.Stop() {
				<-wall.C
			}
			wall.Reset(time.Duration(next - n.Now()))
			armed, armedAt = true, next
		}
		select {
		case fn := <-n.exec:
			n.processed.Add(1)
			fn()
		case <-n.wake:
		case <-wall.C:
			armed = false
		case <-n.quit:
			wall.Stop()
			n.drain()
			return
		}
	}
}

// drain runs whatever Do has already queued, then drops the timers, and
// with them what their callbacks hold: none of them runs.
func (n *Node) drain() {
	for {
		select {
		case fn := <-n.exec:
			n.processed.Add(1)
			fn()
		default:
			n.mu.Lock()
			n.closed = true
			for _, ok := n.timers.Next(); ok; _, ok = n.timers.Next() {
				n.timers.Take()
			}
			n.mu.Unlock()
			return
		}
	}
}

// runDue runs, in instant order, every timer due by now, including those
// the callbacks arm for instants that have come, and reports the instant
// of the next. A callback runs without the lock, so it can arm and stop
// timers of its own.
func (n *Node) runDue() (next sim.Time, ok bool) {
	for {
		n.mu.Lock()
		next, ok = n.timers.Next()
		if !ok || next > n.Now() {
			n.mu.Unlock()
			return next, ok
		}
		fn := n.timers.Take()
		n.mu.Unlock()
		n.processed.Add(1)
		fn()
	}
}

// Processed reports the number of events the executor has run — the
// real-time counterpart of sim.Engine.Processed, and the denominator
// for per-event cost when profiling a live node.
func (n *Node) Processed() uint64 { return n.processed.Load() }

// Do schedules fn on the node's executor. It never blocks the caller
// indefinitely: if the node has stopped, the call is dropped.
func (n *Node) Do(fn func()) {
	select {
	case n.exec <- fn:
	case <-n.quit:
	}
}

// Sync runs fn on the executor and returns once it has run (or the node
// has stopped): how another goroutine attaches to executor-owned state
// without racing protocol events already in flight.
func (n *Node) Sync(fn func()) {
	done := make(chan struct{})
	n.Do(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-n.quit:
	}
}

// ask runs take on n's executor and returns what it returned; ok is false
// if no answer came within timeout or the node has stopped. This is how
// another goroutine — an HTTP debug handler — reads executor-owned state
// without racing it, and without hanging on a wedged node.
func ask[T any](n *Node, timeout time.Duration, take func() T) (v T, ok bool) {
	ch := make(chan T, 1) // buffered: a late answer must not block the executor
	n.Do(func() { ch <- take() })
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case v = <-ch:
		return v, true
	case <-n.quit:
	case <-t.C:
	}
	return v, false
}

// Close stops the executor after draining queued work. Pending timers
// are dropped: none of them runs, and nothing they hold is kept alive.
func (n *Node) Close() {
	n.once.Do(func() { close(n.quit) })
	n.wg.Wait()
}

// Now implements clock.Clock: nanoseconds since the system epoch.
func (n *Node) Now() sim.Time { return sim.Time(time.Since(n.epoch)) }

// After implements clock.Clock: At(Now()+d).
func (n *Node) After(d time.Duration, fn func()) clock.Timer {
	return n.At(n.Now().Add(d), fn)
}

// At implements clock.Clock; the callback runs on the executor, in
// instant order, equal instants in the order they were armed. An instant
// already past runs as soon as the executor is free. It may be called
// from any goroutine: an At that arms a new head wakes the executor.
// Stop on the handle is exact: until the executor takes the callback to
// run it, Stop removes it and reports true; a callback whose instant has
// passed while the executor was busy is still stoppable.
func (n *Node) At(t sim.Time, fn func()) clock.Timer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return clock.Timer{}
	}
	t = max(t, n.timers.Now())
	head, ok := n.timers.Next()
	tm := n.timers.At(t, fn)
	if !ok || t < head {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
	return clock.Locked(tm, &n.mu)
}

var _ clock.Clock = (*Node)(nil)
