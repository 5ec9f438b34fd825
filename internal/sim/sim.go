// Package sim provides a deterministic discrete-event simulation engine.
//
// All Tiger protocol experiments run in virtual time on this engine: the
// paper's hour-long measurement runs complete in seconds of wall time, and
// every run is reproducible from its RNG seed. The engine is deliberately
// single-threaded; determinism comes from a total order on events (time,
// then insertion sequence).
//
// The scheduling hot path is allocation-free in steady state: events live
// in a slab recycled through a free list, the priority queue is an inline
// indexed 4-ary heap of small value nodes (no container/heap, no interface
// boxing), and Timer handles are generation-stamped values, so a
// fire-and-forget After costs no heap allocation once the engine is warm.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, measured in nanoseconds since the
// start of the simulation. It is kept distinct from time.Time so that a
// wall-clock value can never be mixed into a simulation by accident.
type Time int64

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return Duration(t).String() }

// event is one slab record: the callback plus the bookkeeping that lets a
// Timer find it again safely. Records are recycled through a free list;
// gen increments on every release, so a stale Timer handle can never
// cancel a later event that happens to reuse the same slot.
type event struct {
	fn      func()
	gen     uint32
	heapIdx int32 // index into Engine.heap; -1 when not queued
	free    int32 // next free slot when on the free list
}

// heapNode is the priority-queue element proper: the full (time, seq) sort
// key plus the slab slot of its record. Nodes are moved by value during
// sifts; only the slab's heapIdx needs patching.
type heapNode struct {
	at   Time
	seq  uint64
	slot int32
}

// before reports whether a sorts strictly before b in the engine's total
// order. seq is unique per event, so this is a strict total order and the
// pop sequence is independent of heap layout.
func (a heapNode) before(b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// noSlot marks an empty free list.
const noSlot = -1

// Timer is a handle to a scheduled event; Stop cancels it if it has not
// yet fired. The zero Timer is valid and Stop on it reports false. Timer
// is a value: copies refer to the same scheduled event.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the timer was still pending:
// false once the event has fired, been stopped, or if the handle is stale
// (its slab record was recycled for a later event).
func (t Timer) Stop() bool {
	e := t.eng
	if e == nil || t.slot < 0 || int(t.slot) >= len(e.pool) {
		return false
	}
	ev := &e.pool[t.slot]
	if ev.gen != t.gen || ev.heapIdx < 0 {
		return false
	}
	e.heapRemove(int(ev.heapIdx))
	e.release(t.slot)
	return true
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64
	heap      []heapNode
	pool      []event // slab of event records, addressed by heapNode.slot
	freeHead  int32
	rng       *rand.Rand
	// running guards against re-entrant Run calls.
	running bool
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), freeHead: noSlot}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All stochastic
// models (disk jitter, network latency, workload arrivals) must draw from
// this source so a run is a pure function of the seed.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc takes a record slot from the free list, growing the slab only
// when it is exhausted.
func (e *Engine) alloc() int32 {
	if s := e.freeHead; s != noSlot {
		e.freeHead = e.pool[s].free
		return s
	}
	e.pool = append(e.pool, event{})
	return int32(len(e.pool) - 1)
}

// release recycles a record: bump the generation so outstanding Timer
// handles go stale, drop the callback reference, and chain the slot onto
// the free list.
func (e *Engine) release(slot int32) {
	ev := &e.pool[slot]
	ev.fn = nil
	ev.gen++
	ev.heapIdx = -1
	ev.free = e.freeHead
	e.freeHead = slot
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// is always a model bug, and silently clamping would hide it.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	slot := e.alloc()
	e.pool[slot].fn = fn
	gen := e.pool[slot].gen
	e.heapPush(heapNode{at: t, seq: e.seq, slot: slot})
	return Timer{eng: e, slot: slot, gen: gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) }

// Processed reports the number of events executed since New. It is the
// denominator for ns/event and allocs/event budgets.
func (e *Engine) Processed() uint64 { return e.processed }

// Step runs the single earliest event. It reports whether an event ran.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	n := e.heap[0]
	e.heapRemove(0)
	fn := e.pool[n.slot].fn
	e.release(n.slot)
	e.now = n.at
	e.processed++
	fn()
	return true
}

// Next reports the instant of the earliest scheduled event; ok is false
// if none is scheduled.
func (e *Engine) Next() (t Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// Take is Step for a caller that runs the callback itself: it removes
// the earliest event, advances the clock to it, counts it and returns
// its callback. The queue must not be empty. The real-time runtime uses
// the engine as a timer queue and runs what it takes outside its lock.
func (e *Engine) Take() func() {
	n := e.heap[0]
	e.heapRemove(0)
	fn := e.pool[n.slot].fn
	e.release(n.slot)
	e.now = n.at
	e.processed++
	return fn
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.enter()
	defer e.leave()
	for e.Step() {
	}
}

// RunUntil executes events with at-time <= t, then advances the clock to
// exactly t. Events scheduled at t run; later ones remain queued.
func (e *Engine) RunUntil(t Time) {
	e.enter()
	defer e.leave()
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunBefore executes events with at-time strictly less than t, then
// advances the clock to exactly t. The sharded coordinator uses the
// strict bound for every window except the last: an event scheduled at
// exactly a window boundary belongs to the next window, so that events
// injected at the boundary by another shard (which the lookahead bound
// guarantees arrive no earlier than the boundary) still sort into the
// same total order a serial execution would produce.
func (e *Engine) RunBefore(t Time) {
	e.enter()
	defer e.leave()
	for len(e.heap) > 0 && e.heap[0].at < t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

func (e *Engine) enter() {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
}

func (e *Engine) leave() { e.running = false }

// --- inline indexed 4-ary heap ---
//
// A 4-ary heap halves the tree depth of a binary heap, trading slightly
// more comparisons per level for many fewer node moves; with 24-byte value
// nodes and the sift loops inlined, the engine spends its time on the
// comparisons alone. The slab's heapIdx is patched on every placement so
// Stop can remove an arbitrary node by index.

func (e *Engine) place(i int, n heapNode) {
	e.heap[i] = n
	e.pool[n.slot].heapIdx = int32(i)
}

func (e *Engine) heapPush(n heapNode) {
	e.heap = append(e.heap, heapNode{})
	e.siftUp(len(e.heap)-1, n)
}

// heapRemove deletes the node at heap index i, preserving heap order.
func (e *Engine) heapRemove(i int) {
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap[last] = heapNode{}
	e.heap = e.heap[:last]
	if i == last {
		return
	}
	// Re-seat the displaced tail node: it may need to move either way
	// relative to position i.
	if i > 0 {
		parent := (i - 1) / 4
		if moved.before(e.heap[parent]) {
			e.siftUp(i, moved)
			return
		}
	}
	e.siftDown(i, moved)
}

// siftUp places n, currently destined for index i, at its final position
// on the path to the root.
func (e *Engine) siftUp(i int, n heapNode) {
	for i > 0 {
		parent := (i - 1) / 4
		p := e.heap[parent]
		if !n.before(p) {
			break
		}
		e.place(i, p)
		i = parent
	}
	e.place(i, n)
}

// siftDown places n, currently destined for index i, at its final
// position among its descendants.
func (e *Engine) siftDown(i int, n heapNode) {
	size := len(e.heap)
	for {
		first := 4*i + 1
		if first >= size {
			break
		}
		min := first
		end := first + 4
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if e.heap[c].before(e.heap[min]) {
				min = c
			}
		}
		if !e.heap[min].before(n) {
			break
		}
		e.place(i, e.heap[min])
		i = min
	}
	e.place(i, n)
}
