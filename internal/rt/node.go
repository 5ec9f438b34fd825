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
// simulator.
type Node struct {
	epoch     time.Time
	exec      chan func()
	quit      chan struct{}
	once      sync.Once
	wg        sync.WaitGroup
	processed atomic.Uint64
}

// NewNode creates and starts a node executor. All nodes of one system
// must share the same epoch (the controller is the clock master, §2.1).
func NewNode(epoch time.Time) *Node {
	n := &Node{
		epoch: epoch,
		exec:  make(chan func(), 4096),
		quit:  make(chan struct{}),
	}
	n.wg.Add(1)
	go n.loop()
	return n
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.exec:
			n.processed.Add(1)
			fn()
		case <-n.quit:
			// Drain whatever is already queued, then stop.
			for {
				select {
				case fn := <-n.exec:
					n.processed.Add(1)
					fn()
				default:
					return
				}
			}
		}
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
	select {
	case v = <-ch:
		return v, true
	case <-n.quit:
	case <-time.After(timeout):
	}
	return v, false
}

// Close stops the executor after draining queued work.
func (n *Node) Close() {
	n.once.Do(func() { close(n.quit) })
	n.wg.Wait()
}

// Now implements clock.Clock: nanoseconds since the system epoch.
func (n *Node) Now() sim.Time { return sim.Time(time.Since(n.epoch)) }

// After implements clock.Clock; the callback runs on the executor. Once
// the wall-clock timer has fired, fn is queued on the executor and a
// later Stop reports false although fn has yet to run.
func (n *Node) After(d time.Duration, fn func()) clock.Timer {
	if d < 0 {
		d = 0
	}
	return clock.Real(time.AfterFunc(d, func() { n.Do(fn) }))
}

// At implements clock.Clock.
func (n *Node) At(t sim.Time, fn func()) clock.Timer {
	return n.After(time.Duration(t-n.Now()), fn)
}

var _ clock.Clock = (*Node)(nil)
