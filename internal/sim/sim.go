// Package sim provides a deterministic discrete-event simulation engine.
//
// All Tiger protocol experiments run in virtual time on this engine: the
// paper's hour-long measurement runs complete in seconds of wall time, and
// every run is reproducible from its RNG seed. The engine is deliberately
// single-threaded; determinism comes from a total order on events (time,
// then insertion sequence).
//
// The queue is a timing wheel in front of a heap. The wheel has 1 024
// buckets of 2^20 ns (about 1.05 ms), a horizon of about 1.07 s: an event
// due inside it is linked into its bucket in O(1), and a bucket is sorted
// once when the clock reaches it and then popped from a cursor. Events
// due beyond the horizon (deadman, ramp and end-of-file timers) wait in
// an inline indexed 4-ary heap and move into the wheel as the horizon
// advances. The scheduling hot path is allocation-free in steady state:
// events live in a slab recycled through a free list, buckets are lists
// threaded through that slab, and Timer handles are generation-stamped
// values, so a fire-and-forget After costs no heap allocation once the
// engine is warm.
package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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

// The wheel's shape: the queue at rated load holds ~1 400 events, and
// nine in ten are due within 0.92 s, so a horizon of 1 024 buckets of
// 2^20 ns keeps all but the far timers out of the heap.
const (
	tickShift  = 20 // a bucket spans 2^20 ns
	wheelSize  = 1 << 10
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // words of the occupancy bitmap
)

// tick is the bucket-sized interval an instant falls in.
func tick(t Time) int64 { return int64(t) >> tickShift }

// event is one slab record: the callback, its sort key, and the
// bookkeeping that lets a Timer find it again safely. Records are
// recycled through a free list; gen increments on every release, so a
// stale Timer handle can never cancel a later event that happens to reuse
// the same slot.
type event struct {
	fn         func()
	at         Time
	seq        uint64
	gen        uint32
	heapIdx    int32 // index into Engine.heap; -1 when not there
	prev, next int32 // bucket list links; next also chains the free list
}

// node is a sort key by value: the full (time, seq) key plus the slab
// slot of its record. The open bucket and the overflow heap hold nodes,
// so their comparisons never touch the slab.
type node struct {
	at   Time
	seq  uint64
	slot int32
}

// before reports whether a sorts strictly before b in the engine's total
// order. seq is unique per event, so this is a strict total order and the
// pop sequence is independent of queue layout.
func (a node) before(b node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// compareNodes is before as a three-way comparison, for package slices.
func compareNodes(a, b node) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.seq, b.seq)
}

// noSlot marks an empty list.
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
	if ev.gen != t.gen {
		return false
	}
	// Outside the heap, the tick tells where an event waits: after base
	// in the wheel, at or before it in the open bucket.
	switch {
	case ev.heapIdx >= 0:
		e.heapRemove(int(ev.heapIdx))
	case tick(ev.at) > e.base:
		e.unlink(t.slot)
	default:
		// The open bucket is a sorted array: the node stays, with no
		// record, until the cursor passes it.
		i, _ := slices.BinarySearchFunc(e.cur[e.pos:], node{at: ev.at, seq: ev.seq}, compareNodes)
		e.cur[e.pos+i].slot = noSlot
	}
	e.live--
	e.release(t.slot)
	return true
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64
	live      int     // events scheduled and neither run nor stopped
	pool      []event // slab of event records, addressed by node.slot
	freeHead  int32

	// The open bucket: every queued event due at or before tick base,
	// sorted; cur[pos:] is still to run. base can be ahead of now's
	// tick once Next has looked past now.
	cur  []node
	pos  int
	base int64
	// The wheel: bucket b lists, unordered, the events due at the one
	// tick in base+1 .. base+wheelSize-1 that is b modulo wheelSize, and
	// occ has its bit set while the list is not empty.
	bucket [wheelSize]int32
	occ    [wheelWords]uint64
	// heap is the overflow: the events due at tick base+wheelSize or
	// later.
	heap []node

	rng *rand.Rand
	// running guards against re-entrant Run calls.
	running bool
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed)), freeHead: noSlot}
	for i := range e.bucket {
		e.bucket[i] = noSlot
	}
	return e
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
		e.freeHead = e.pool[s].next
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
	ev.next = e.freeHead
	e.freeHead = slot
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// is always a model bug, and silently clamping would hide it.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	e.live++
	slot := e.alloc()
	ev := &e.pool[slot]
	ev.fn, ev.at, ev.seq, ev.heapIdx = fn, t, e.seq, -1
	n := node{at: t, seq: e.seq, slot: slot}
	switch k := tick(t); {
	case e.live == 1:
		// Alone in the queue, n is the open bucket: a queue that holds
		// one event at a time never searches the wheel.
		e.cur, e.pos, e.base = append(e.cur[:0], n), 0, k
	case k <= e.base:
		e.curInsert(n)
	case k < e.base+wheelSize:
		e.link(slot, k)
	default:
		e.heapPush(n)
	}
	return Timer{eng: e, slot: slot, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.live }

// Processed reports the number of events executed since New. It is the
// denominator for ns/event and allocs/event budgets.
func (e *Engine) Processed() uint64 { return e.processed }

// Step runs the single earliest event. It reports whether an event ran.
func (e *Engine) Step() bool {
	n, ok := e.head()
	if !ok {
		return false
	}
	e.take(n)()
	return true
}

// Next reports the instant of the earliest scheduled event; ok is false
// if none is scheduled.
func (e *Engine) Next() (t Time, ok bool) {
	n, ok := e.head()
	return n.at, ok
}

// Take is Step for a caller that runs the callback itself: it removes
// the earliest event, advances the clock to it, counts it and returns
// its callback. The queue must not be empty. The real-time runtime uses
// the engine as a timer queue and runs what it takes outside its lock.
func (e *Engine) Take() func() {
	n, ok := e.head()
	if !ok {
		panic("sim: Take from an empty queue")
	}
	return e.take(n)
}

// take removes n, the head, and advances the clock to it.
func (e *Engine) take(n node) func() {
	e.pos++
	fn := e.pool[n.slot].fn
	e.release(n.slot)
	e.live--
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
	for {
		n, ok := e.head()
		if !ok || n.at > t {
			break
		}
		e.take(n)()
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
	for {
		n, ok := e.head()
		if !ok || n.at >= t {
			break
		}
		e.take(n)()
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

// --- the timing wheel ---

// head returns the earliest live event, passing over stopped ones and
// opening the next bucket when the open one is spent; ok is false when
// nothing is scheduled.
func (e *Engine) head() (node, bool) {
	for e.pos < len(e.cur) || e.advance() {
		if n := e.cur[e.pos]; n.slot != noSlot {
			return n, true
		}
		e.pos++
	}
	return node{}, false
}

// advance opens the next occupied bucket: the wheel's first after base,
// or with the wheel empty the one the overflow minimum falls in. The
// overflow events the moved horizon now covers are linked into the wheel
// first. It reports false when nothing is queued; an opened bucket is
// never empty.
func (e *Engine) advance() bool {
	e.cur, e.pos = e.cur[:0], 0
	if b, ok := e.nextOccupied(); ok {
		e.base += 1 + (int64(b)-e.base-1)&wheelMask
	} else if len(e.heap) > 0 {
		e.base = tick(e.heap[0].at)
	} else {
		return false
	}
	for len(e.heap) > 0 && tick(e.heap[0].at) < e.base+wheelSize {
		n := e.heap[0]
		e.heapRemove(0)
		e.pool[n.slot].heapIdx = -1
		e.link(n.slot, tick(n.at))
	}
	b := int(e.base & wheelMask)
	for s := e.bucket[b]; s != noSlot; s = e.pool[s].next {
		ev := &e.pool[s]
		e.cur = append(e.cur, node{at: ev.at, seq: ev.seq, slot: s})
	}
	e.bucket[b] = noSlot
	e.occ[b>>6] &^= 1 << (b & 63)
	sortNodes(e.cur, 2*bits.Len(uint(len(e.cur))))
	return true
}

// sortNodes sorts an opened bucket once: median-of-three quicksort down
// to runs of 12, then insertion, all with the comparison inlined (at 14
// cubs a bucket holds ~13 events, and slices.SortFunc spends most of its
// time calling the comparison). Past depth levels of partitioning,
// slices.SortFunc takes over, which bounds the sort at O(k log k).
func sortNodes(a []node, depth int) {
	for len(a) > 12 {
		if depth == 0 {
			slices.SortFunc(a, compareNodes)
			return
		}
		depth--
		// Order a[0] <= a[m] <= a[last]: the pivot is the median, and
		// the ends bound both scans.
		m, last := len(a)/2, len(a)-1
		if a[m].before(a[0]) {
			a[0], a[m] = a[m], a[0]
		}
		if a[last].before(a[0]) {
			a[0], a[last] = a[last], a[0]
		}
		if a[last].before(a[m]) {
			a[m], a[last] = a[last], a[m]
		}
		p, i, j := a[m], 0, last
		for i <= j {
			for a[i].before(p) {
				i++
			}
			for p.before(a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		// Recurse into the shorter side, loop on the longer.
		if j < last-i {
			sortNodes(a[:j+1], depth)
			a = a[i:]
		} else {
			sortNodes(a[i:], depth)
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].before(a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// nextOccupied finds the first non-empty bucket after base's, in tick
// order, through the occupancy bitmap.
func (e *Engine) nextOccupied() (int, bool) {
	from := int((e.base + 1) & wheelMask)
	w := from >> 6
	m := e.occ[w] &^ (1<<(from&63) - 1)
	// The last round revisits the first word whole: its bits below from
	// are the farthest ticks.
	for i := 0; i <= wheelWords; i++ {
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m), true
		}
		w = (w + 1) % wheelWords
		m = e.occ[w]
	}
	return 0, false
}

// curInsert puts n, due at or before tick base, into the open bucket.
// Its seq is the largest queued, so it goes after every node due no
// later than it.
func (e *Engine) curInsert(n node) {
	if e.pos == len(e.cur) { // spent: reuse the array from its start
		e.cur, e.pos = e.cur[:0], 0
	}
	lo, hi := e.pos, len(e.cur)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.cur[m].at <= n.at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	e.cur = append(e.cur, node{})
	copy(e.cur[lo+1:], e.cur[lo:])
	e.cur[lo] = n
}

// link puts a record into the bucket of tick k.
func (e *Engine) link(slot int32, k int64) {
	b := int(k & wheelMask)
	ev := &e.pool[slot]
	ev.prev, ev.next = noSlot, e.bucket[b]
	if ev.next != noSlot {
		e.pool[ev.next].prev = slot
	}
	e.bucket[b] = slot
	e.occ[b>>6] |= 1 << (b & 63)
}

// unlink takes a record out of its wheel bucket.
func (e *Engine) unlink(slot int32) {
	ev := &e.pool[slot]
	b := int(tick(ev.at) & wheelMask)
	if ev.prev != noSlot {
		e.pool[ev.prev].next = ev.next
	} else {
		e.bucket[b] = ev.next
	}
	if ev.next != noSlot {
		e.pool[ev.next].prev = ev.prev
	}
	if e.bucket[b] == noSlot {
		e.occ[b>>6] &^= 1 << (b & 63)
	}
}

// --- the overflow: an inline indexed 4-ary heap ---
//
// A 4-ary heap halves the tree depth of a binary heap, trading slightly
// more comparisons per level for many fewer node moves. The slab's
// heapIdx is patched on every placement so Stop can remove an arbitrary node by
// index.

func (e *Engine) place(i int, n node) {
	e.heap[i] = n
	e.pool[n.slot].heapIdx = int32(i)
}

func (e *Engine) heapPush(n node) {
	e.heap = append(e.heap, node{})
	e.siftUp(len(e.heap)-1, n)
}

// heapRemove deletes the node at heap index i, preserving heap order.
func (e *Engine) heapRemove(i int) {
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap[last] = node{}
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
func (e *Engine) siftUp(i int, n node) {
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
func (e *Engine) siftDown(i int, n node) {
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
