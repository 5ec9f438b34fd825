package core

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// The tests in this file pin the lifecycle of a cub's entry records
// (DESIGN §10): a record returns to the free list once it has left the
// view and nothing can call back into it. Only a disk completion names
// an entry; the timer that starts reads and makes sends belongs to the
// drive's walk and finds entries through its list, so one that comes
// late — or twice, after a Stop that lost its race — finds nothing due.

// stateFor builds a primary viewer state for cub 0's first disk of a
// rig, due at the given instant.
func stateFor(inst msg.InstanceID, slot int32, due sim.Time) *msg.ViewerState {
	return &msg.ViewerState{Viewer: msg.ViewerID(inst), Instance: inst, File: 0,
		Block: 0, Slot: slot, Due: int64(due), OrigDisk: 0, Epoch: 1, Bitrate: 2_000_000}
}

// TestEntryRecordReusedAfterDeschedule: a descheduled entry is recycled
// at once, whether its read had not been started (nothing names the
// record) or is on the platter (the drive suppresses a withdrawn read's
// completion). In the second case another instance takes over the
// record, slot and due time while the withdrawn read still occupies the
// drive; its completion must not mark the new entry ready, free its
// buffer, or feed it to the send path.
func TestEntryRecordReusedAfterDeschedule(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.cubs[0]
	sends := 0
	r.net.RegisterViewer(2, sinkFunc(func(d netsim.BlockDelivery) {
		if d.Instance != 2 {
			t.Errorf("block delivered for instance %d", d.Instance)
		}
		if d.From == 0 { // the state travels on; later cubs send too
			sends++
		}
	}))
	due := r.eng.Now().Add(1200 * time.Millisecond)
	key := entryKey{5, -1, int64(due)}
	w := &c.drives[0].walk
	c.Deliver(1, stateFor(3, 5, due))
	first := c.view.get(key)
	if first == nil || first.pins != 0 || w.head != first || w.armedFor != due.Add(-r.cfg.ReadAhead) {
		t.Fatalf("entry not on the walk: %+v, armed for %v", first, w.armedFor)
	}
	c.Deliver(msg.Controller, &msg.Deschedule{Viewer: 3, Instance: 3, Slot: 5})
	if len(c.freeEntries) != 1 || c.freeEntries[0] != first || w.head != nil || w.read != nil || w.fwd != nil {
		t.Fatalf("unread entry not recycled at once: free %d, walk %+v", len(c.freeEntries), w)
	}

	c.Deliver(1, stateFor(1, 5, due))
	old := c.view.get(key)
	if old != first || old.pins != 0 {
		t.Fatalf("record not reused: %+v", old)
	}
	r.run(210 * time.Millisecond) // the walk reached its read at due-1s; the read is in service
	if old.readID == 0 || old.ready || c.BufferedBytes() != r.cfg.BlockSize {
		t.Fatalf("read not in flight: readID %d ready %v buffered %d", old.readID, old.ready, c.BufferedBytes())
	}
	c.Deliver(msg.Controller, &msg.Deschedule{Viewer: 1, Instance: 1, Slot: 5})
	if c.view.get(key) != nil || c.BufferedBytes() != 0 {
		t.Fatal("deschedule left the entry or its buffer")
	}
	if len(c.freeEntries) != 1 || c.freeEntries[0] != old || old.pins != 0 {
		t.Fatalf("withdrawn entry not recycled: free %d pins %d", len(c.freeEntries), old.pins)
	}

	// Another viewer is inserted into the freed slot: same key, and the
	// same record.
	c.Deliver(1, stateFor(2, 5, due))
	cur := c.view.get(key)
	if cur != old || cur.vs.Instance != 2 || cur.ready || cur.readID != 0 {
		t.Fatalf("record not reused cleanly: %+v", cur)
	}
	// Its read is due now (due-1s has passed) and queues behind the
	// withdrawn one, whose completion comes first.
	r.run(40 * time.Millisecond)
	if cur.ready || cur.readID == 0 || c.BufferedBytes() != r.cfg.BlockSize {
		t.Fatalf("the withdrawn read's completion touched the new entry: ready %v readID %d buffered %d",
			cur.ready, cur.readID, c.BufferedBytes())
	}
	r.run(3 * time.Second)
	st := c.Stats()
	if sends != 1 || st.BlocksSent != 1 || st.ServerMisses != 0 || st.IndexMisses != 0 {
		t.Fatalf("sends %d stats %+v", sends, st)
	}
	if c.BufferedBytes() != 0 || c.view.get(key) != nil {
		t.Fatalf("buffered %d, entry %+v after the send", c.BufferedBytes(), c.view.get(key))
	}
	if ds := c.Disk(0).Stats(); ds.Reads != 2 || ds.CancelledBusy != 1 {
		t.Fatalf("disk stats %+v, want the withdrawn read and the new one", ds)
	}
}

// TestEntryRecordHeldWhileCompletionRuns: an entry dropped from inside
// its own read's completion — the failed read is the health monitor's
// last straw, and the quarantine retires every entry on the drive — is
// recycled when the completion has run, not before. The drive's other
// entry, which nothing is running on, goes first although it is dropped
// second.
func TestEntryRecordHeldWhileCompletionRuns(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.cubs[0]
	now := r.eng.Now()
	a, b := stateFor(1, 5, now.Add(1200*time.Millisecond)), stateFor(2, 6, now.Add(2200*time.Millisecond))
	b.Block = int32(r.cfg.Layout.NumDisks()) // file 0's next block on disk 0
	c.Deliver(1, a)
	c.Deliver(1, b)
	ea, eb := c.view.get(entryKey{5, -1, a.Due}), c.view.get(entryKey{6, -1, b.Due})
	if ea == nil || eb == nil {
		t.Fatal("states not accepted")
	}
	c.Disk(0).SetFaults(disk.Faults{ErrProb: 1})
	h := &c.drives[0].health
	h.state, h.badStreak = DiskSuspected, quarantineAfter-1
	r.run(400 * time.Millisecond) // a's read starts at 200 ms and fails
	if c.QuarantinedDisks() != 1 || c.view.len() != 0 {
		t.Fatalf("%d drives quarantined, %d entries left", c.QuarantinedDisks(), c.view.len())
	}
	if len(c.freeEntries) != 2 || c.freeEntries[0] != eb || c.freeEntries[1] != ea || ea.pins != 0 {
		t.Fatalf("free list %v (a %p, b %p), pins %d: want b, then a once its completion returned",
			c.freeEntries, ea, eb, ea.pins)
	}
	if w := &c.drives[0].walk; w.head != nil || w.tail != nil || w.read != nil || w.fwd != nil {
		t.Fatalf("walk of a retired drive not empty: %+v", w)
	}
	if c.BufferedBytes() != 0 {
		t.Fatalf("%d bytes still buffered", c.BufferedBytes())
	}
}

type sinkFunc func(netsim.BlockDelivery)

func (f sinkFunc) DeliverBlock(d netsim.BlockDelivery) { f(d) }

// lostRaceClock is a clock whose every Stop loses the race: the callback
// is "already on its way", so Stop reports false and the callback still
// runs, once its instant has come and the test says so. Neither runtime
// loses a Stop; the walk is written for a Clock that can.
type lostRaceClock struct {
	now    sim.Time
	queued []lateCall
	armed  int // At and After calls so far
}

type lateCall struct {
	at sim.Time
	fn func()
}

func (k *lostRaceClock) Now() sim.Time { return k.now }
func (k *lostRaceClock) At(t sim.Time, fn func()) clock.Timer {
	k.armed++
	k.queued = append(k.queued, lateCall{t, fn})
	return clock.Timer{}
}
func (k *lostRaceClock) After(d time.Duration, fn func()) clock.Timer { return k.At(k.now.Add(d), fn) }

// runTo moves the clock to t and runs what has come due, in the order
// it was armed, including what those callbacks arm for t or before.
func (k *lostRaceClock) runTo(t sim.Time) {
	k.now = t
	for i := 0; i < len(k.queued); i++ {
		if k.queued[i].at <= t {
			fn := k.queued[i].fn
			k.queued = append(k.queued[:i], k.queued[i+1:]...)
			fn()
			i = -1
		}
	}
}

type nopTransport struct{}

func (nopTransport) Send(from, to msg.NodeID, m msg.Message) {}

type countingData struct{ blocks int }

func (d *countingData) SendBlock(msg.NodeID, netsim.BlockDelivery, time.Duration) { d.blocks++ }

// TestEntryRecordHeldWhileStopLosesRace: no timer holds an entry, so a
// Stop that reports false for a callback still to run holds no record
// back — and the callback, when it runs beside the timer that replaced
// it, starts no read twice, leaks no buffer and leaves one timer armed
// behind it, not two.
func TestEntryRecordHeldWhileStopLosesRace(t *testing.T) {
	cfg := indexTestConfig(t, 4, 1, 2, 2, 100)
	clk := &lostRaceClock{}
	data := &countingData{}
	c := NewCub(0, cfg, clk, nopTransport{}, data, rand.New(rand.NewSource(1)))
	w := &c.drives[0].walk
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	// BuildConfig places files at random: pick file 0's blocks on disk 0.
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())
	state := func(inst msg.InstanceID, slot int32, due sim.Time, stripe int32) *msg.ViewerState {
		vs := stateFor(inst, slot, due)
		vs.Block = onDisk0 + stripe*int32(cfg.Layout.NumDisks())
		return vs
	}

	// The walk's timer is armed for the entry's read, a second before its
	// send. A deschedule stops nothing and recycles the record at once;
	// the next instance takes it over with the timer still set.
	c.Deliver(1, state(1, 3, ms(1500), 0))
	key := entryKey{3, -1, int64(ms(1500))}
	old := c.view.get(key)
	c.Deliver(msg.Controller, &msg.Deschedule{Viewer: 1, Instance: 1, Slot: 3})
	if old == nil || old.live || len(c.freeEntries) != 1 || c.freeEntries[0] != old {
		t.Fatalf("descheduled entry not recycled: %+v free %d", old, len(c.freeEntries))
	}
	c.Deliver(1, state(2, 3, ms(1500), 0))
	if cur := c.view.get(key); cur != old || clk.armed != 2 || w.armedFor != ms(500) {
		t.Fatalf("record reused %v, %d callbacks armed (want the walk's and the deschedule hold), for %v",
			cur == old, clk.armed, w.armedFor)
	}

	// An entry due earlier re-arms the walk: the Stop loses, and the
	// callback set for 500 ms will run beside the one set for 300 ms.
	c.Deliver(1, state(3, 4, ms(1300), 1))
	if clk.armed != 3 || w.armedFor != ms(300) {
		t.Fatalf("%d callbacks armed, for %v: want a second walk timer, for the earlier read", clk.armed, w.armedFor)
	}
	reads := func() int64 { return c.Disk(0).Stats().Reads }
	clk.runTo(ms(300)) // the live callback: the earlier entry's read, re-armed for 500 ms
	if got := reads(); got != 1 || w.armedFor != ms(500) {
		t.Fatalf("%d reads issued, armed for %v", got, w.armedFor)
	}
	// At 500 ms the stale callback runs first. Its instant has come, so
	// it does the work — the other read — and re-arms for the first
	// send; the callback it could not stop finds that instant still
	// ahead and touches nothing.
	clk.runTo(ms(500))
	if got := reads(); got != 2 || w.armedFor != ms(1300) || c.BufferedBytes() != 2*cfg.BlockSize {
		t.Fatalf("%d reads issued, armed for %v, %d bytes buffered: a stale callback read twice",
			got, w.armedFor, c.BufferedBytes())
	}
	clk.runTo(ms(1300))
	clk.runTo(ms(1500))
	st := c.Stats()
	if data.blocks != 2 || st.BlocksSent != 2 || st.ServerMisses != 0 || st.IndexMisses != 0 {
		t.Fatalf("%d blocks on the data path, stats %+v", data.blocks, st)
	}
	clk.runTo(ms(2500)) // both sends' pace has run out
	if c.BufferedBytes() != 0 || c.view.len() != 0 || w.armedFor != never {
		t.Fatalf("buffered %d, %d entries, armed for %v", c.BufferedBytes(), c.view.len(), w.armedFor)
	}
	// Two reads and two sends each took a callback and armed the next
	// (the last found nothing to arm), one insertion re-armed, and the
	// callback that could not be stopped armed nothing of its own: five
	// walk timers beside the two disk completions and the deschedule
	// hold. A second chain would have armed one more for every instant
	// after it began.
	if want := 5 + 2 + 1; clk.armed != want {
		t.Fatalf("%d callbacks armed, want %d", clk.armed, want)
	}
}

// TestIndexMissCounted: a read for a copy the layout puts on another
// disk fails loudly instead of reading something.
func TestIndexMissCounted(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.cubs[0]
	due := r.eng.Now().Add(1200 * time.Millisecond)
	vs := stateFor(1, 5, due)
	vs.Block = 1 // file 0 starts on disk 0: block 1 is disk 1's
	e := c.newEntry(entryKey{5, -1, int64(due)}, *vs, 0)
	c.scheduleEntry(e)
	r.run(2 * time.Second)
	if st := c.Stats(); st.IndexMisses != 1 || st.BlocksSent != 0 || st.ServerMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if ds := c.Disk(0).Stats(); ds.Reads != 0 {
		t.Fatalf("%d reads for a block that is not on the disk", ds.Reads)
	}
}

// TestRestartWipesRecordPool: the free list is volatile state of the
// incarnation.
func TestRestartWipesRecordPool(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	c := r.cubs[0]
	// A record is pooled from the instant its send is placed until the
	// stream's next state for this cub takes it again.
	for i := 0; i < 100 && len(c.freeEntries) == 0; i++ {
		r.run(50 * time.Millisecond)
	}
	if len(c.freeEntries) == 0 {
		t.Fatal("no record pooled in five seconds of play")
	}
	c.Restart()
	if len(c.freeEntries) != 0 || c.view.len() != 0 {
		t.Fatalf("%d pooled, %d entries after Restart", len(c.freeEntries), c.view.len())
	}
}

// TestMirrorEntriesNotPooled: a failure multiplies the covering cubs'
// entries (one per mirror piece); none of those records may settle in a
// pool, or every failure would leave its peak behind in the heap.
func TestMirrorEntriesNotPooled(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	for v := msg.ViewerID(1); v <= 6; v++ {
		r.play(v, msg.FileID(v%4), 0)
	}
	r.run(10 * time.Second)
	r.net.Fail(3)
	r.run(30 * time.Second)
	if r.totals().PiecesSent == 0 {
		t.Fatal("no mirror piece was served; the test exercises nothing")
	}
	for _, c := range r.cubs {
		for _, e := range c.freeEntries {
			if e.key.part != -1 {
				t.Fatalf("cub %v pooled the record of mirror piece %+v", c.id, e.key)
			}
		}
	}
}

// keeper is a Transport that passes every message on and keeps each
// viewer state it is handed, with a copy taken at the hand-off.
type keeper struct {
	net  Transport
	sent []*msg.ViewerState
	was  []msg.ViewerState
}

func (k *keeper) Send(from, to msg.NodeID, m msg.Message) {
	ms := []msg.Message{m}
	if b, ok := m.(*msg.Batch); ok {
		ms = b.Msgs
	}
	for _, m := range ms {
		if vs, ok := m.(*msg.ViewerState); ok {
			k.sent = append(k.sent, vs)
			k.was = append(k.was, *vs)
		}
	}
	k.net.Send(from, to, m)
}

// TestForwardedStatesNotRewritten: a flush hands its staged viewer
// states to the transport, which may hold them after flushForwards
// returns (a mesh writer encodes them later), so the cub never rewrites
// them until they are returned — and this transport returns nothing:
// every state of one forward tick still reads as sent after the next
// tick has staged and flushed its own.
func TestForwardedStatesNotRewritten(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	for v := msg.ViewerID(1); v <= 40; v++ {
		r.play(v, msg.FileID(int(v)%4), 0)
	}
	r.run(20 * time.Second)
	c := r.cubs[2]
	k := &keeper{net: c.net}
	c.net = k
	// Tick by tick until one has forwarded, then until another has.
	for i := 0; i < 10 && len(k.sent) == 0; i++ {
		r.run(r.cfg.ForwardInterval)
	}
	first := len(k.sent)
	for i := 0; i < 10 && len(k.sent) == first; i++ {
		r.run(r.cfg.ForwardInterval)
	}
	if first < 2 || len(k.sent) == first {
		t.Fatalf("%d states in the first forwarding tick, %d in the next", first, len(k.sent)-first)
	}
	for i := range first {
		if *k.sent[i] != k.was[i] {
			t.Fatalf("state %d of the first tick rewritten after its flush: sent %+v, now %+v", i, k.was[i], *k.sent[i])
		}
	}
}

// viewerStates lists the viewer states a control message carries.
func viewerStates(m msg.Message) []*msg.ViewerState {
	ms := []msg.Message{m}
	if b, ok := m.(*msg.Batch); ok {
		ms = b.Msgs
	}
	var out []*msg.ViewerState
	for _, m := range ms {
		if vs, ok := m.(*msg.ViewerState); ok {
			out = append(out, vs)
		}
	}
	return out
}

// tap is a Transport that passes every message on to the network and
// asks the network which sends come back (Returner), so the cub
// reuses its records as it would without it; see is shown every send.
type tap struct {
	net *netsim.Network
	see func(to msg.NodeID, m msg.Message)
}

func (p *tap) Send(from, to msg.NodeID, m msg.Message) {
	p.see(to, m)
	p.net.Send(from, to, m)
}

func (p *tap) Returns(from, to msg.NodeID) bool { return p.net.Returns(from, to) }

// TestGenerationWaitsForEveryBatch: a flush's state array is reused only
// once every batch of it has come back. Cub 2's link to its second
// successor is slowed by up to four forward intervals, so its batch is
// often still in flight when the next tick stages while the batch to the
// first successor is long back; every state cub 4 receives from cub 2
// must still equal the copy taken when it was sent.
func TestGenerationWaitsForEveryBatch(t *testing.T) {
	const from, late = 2, 4
	var got []msg.ViewerState
	o := defaultRigOptions()
	o.handler = func(c *Cub) netsim.Handler {
		if c.id != late {
			return c
		}
		return netsim.HandlerFunc(func(f msg.NodeID, m msg.Message) {
			if f == from {
				for _, vs := range viewerStates(m) {
					got = append(got, *vs)
				}
			}
			c.Deliver(f, m)
		})
	}
	r := newRig(t, o)
	var sent []msg.ViewerState
	overlaps := 0 // sends to late made while an earlier one was in flight
	c := r.cubs[from]
	c.net = &tap{net: r.net, see: func(to msg.NodeID, m msg.Message) {
		if to != late {
			return
		}
		if len(got) < len(sent) {
			overlaps++
		}
		for _, vs := range viewerStates(m) {
			sent = append(sent, *vs)
		}
	}}
	for v := msg.ViewerID(1); v <= 40; v++ {
		r.play(v, msg.FileID(int(v)%4), 0)
	}
	r.run(10 * time.Second)
	r.net.SetFlakyOneWay(from, late, netsim.FlakyParams{ExtraDelay: 4 * r.cfg.ForwardInterval})
	r.run(30 * time.Second)
	r.net.SetFlakyOneWay(from, late, netsim.FlakyParams{})
	r.run(5 * time.Second)
	if overlaps < 10 {
		t.Fatalf("only %d sends to cub %d overlapped one in flight; the test exercises nothing", overlaps, late)
	}
	// The last flush may still be in flight.
	if len(got) > len(sent) || len(got) < len(sent)-20 {
		t.Fatalf("cub %d received %d states from cub %d, which sent %d", late, len(got), from, len(sent))
	}
	for i := range got {
		if got[i] != sent[i] {
			t.Fatalf("state %d rewritten in flight: sent %+v, received %+v", i, sent[i], got[i])
		}
	}
}

// TestGossipBuffersBounded: what a cub keeps of its gossip between
// flushes — the spare state array it will stage in, the batches pending
// per target and their slices — stays within what its largest flush
// needed while the load grows and shrinks: one array, at most half again
// as long as that flush, and slices at most twice its messages. A second
// array kept beside the spare, or an array append doubled, would exceed
// it.
func TestGossipBuffersBounded(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.cubs[2]
	// The largest flush, as the states and messages sent at one instant
	// (flushes at one instant count as one: the bound is only looser).
	var at sim.Time
	var states, msgs, maxStates, maxMsgs int
	seen := map[*msg.ViewerState]bool{}
	c.net = &tap{net: r.net, see: func(_ msg.NodeID, m msg.Message) {
		if now := r.eng.Now(); now != at {
			at, states, msgs = now, 0, 0
			clear(seen)
		}
		for _, vs := range viewerStates(m) {
			msgs++
			if !seen[vs] {
				seen[vs] = true
				states++
			}
		}
		maxStates, maxMsgs = max(maxStates, states), max(maxMsgs, msgs)
	}}
	checked := 0
	check := func(d time.Duration) {
		for end := r.eng.Now().Add(d); r.eng.Now() < end; {
			r.run(r.cfg.ForwardInterval / 5)
			if len(c.fwdOut) > 0 {
				continue // a flush is in flight
			}
			slots := 0
			for _, b := range c.fwdPending {
				if b != nil {
					slots += cap(b.Msgs)
				}
			}
			if arr := cap(c.fwdStates) + cap(c.fwdSpare); arr > maxStates+maxStates/2 || slots > 2*maxMsgs {
				t.Fatalf("at %v the cub keeps %d states and %d message slots; its largest flush was %d states in %d messages",
					r.eng.Now(), arr, slots, maxStates, maxMsgs)
			}
			checked++
		}
	}
	var insts []msg.InstanceID
	for v := msg.ViewerID(1); v <= 60; v++ {
		insts = append(insts, r.play(v, msg.FileID(int(v)%4), 0))
		if v%20 == 0 {
			check(10 * time.Second)
		}
	}
	for _, inst := range insts[:50] {
		r.ctl.StopPlay(inst)
	}
	check(20 * time.Second)
	if checked < 200 || maxStates < 4 {
		t.Fatalf("%d checks, largest flush %d states: the test exercises nothing", checked, maxStates)
	}
}

// TestTombstoneExpiresIntoItsMap: each add arms one timer, ttl later,
// and each timer forgets one key, once: the key of its own add, from the
// map that add was made against. A reset forgets everything, and the
// timers armed before it forget nothing from the map that replaced it,
// not even a key re-added there; the queue of armed keys is given up
// once the last timer has fired.
func TestTombstoneExpiresIntoItsMap(t *testing.T) {
	eng := sim.New(1)
	ts := newTombstones[int, struct{}](clock.Sim{Eng: eng}, time.Second)
	step := func(d time.Duration) { eng.RunFor(d) }
	pending := eng.Pending()
	ts.add(1, struct{}{})
	step(250 * time.Millisecond)
	ts.add(2, struct{}{})
	if n := eng.Pending() - pending; n != 2 {
		t.Fatalf("%d timers armed for two adds", n)
	}
	step(250 * time.Millisecond)
	old := ts.m
	ts.reset()
	ts.add(1, struct{}{}) // the new map's, expiring at 1.5 s
	if !ts.has(1) || ts.has(2) || len(old) != 2 {
		t.Fatalf("after the reset: has(1) %v has(2) %v, old map %v", ts.has(1), ts.has(2), old)
	}
	step(500 * time.Millisecond) // 1 s: the first add's timer fires, stale
	if !ts.has(1) || ts.stale != 1 {
		t.Fatalf("a timer armed before the reset forgot the re-added key: has(1) %v, %d stale", ts.has(1), ts.stale)
	}
	step(250 * time.Millisecond) // 1.25 s: the second add's, stale too
	if !ts.has(1) || ts.stale != 0 || ts.armed.n != 1 {
		t.Fatalf("has(1) %v, %d stale, %d armed", ts.has(1), ts.stale, ts.armed.n)
	}
	step(250 * time.Millisecond) // 1.5 s: the re-add's own timer
	if ts.has(1) || len(ts.m) != 0 || ts.armed.n != 0 || ts.armed.ring != nil {
		t.Fatalf("at 1.5 s: map %v, %d armed, ring %d long", ts.m, ts.armed.n, len(ts.armed.ring))
	}
	if eng.Pending() != pending {
		t.Fatalf("%d timers still armed", eng.Pending()-pending)
	}
}

// TestPlayRecordRecycledByItsOwnExpiry: a finished play's record stays
// in the controller's map for its minute, then goes back on the free
// list — at its own expiry and no other, also when a Restart replaced
// the map and the takeover's scavenge rebuilt a record for the same
// instance, which the old record's expiry must leave in place. The free
// list is the incarnation's and does not survive a Restart.
func TestPlayRecordRecycledByItsOwnExpiry(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.ctl
	a, x := r.play(1, 0, 0), r.play(3, 2, 0)
	r.run(15 * time.Second)
	recA, recX := c.plays[a], c.plays[x]
	if recA == nil || recA.state != PlayActive {
		t.Fatalf("play not active: %+v", recA)
	}
	c.StopPlay(a)
	r.run(3 * time.Second)
	c.StopPlay(x) // its record is freed three seconds after a's
	r.run(56 * time.Second)
	if c.plays[a] != recA || len(c.freePlays) != 0 {
		t.Fatalf("record left the map or was freed before its minute: %v, free %d", c.plays[a], len(c.freePlays))
	}
	r.run(2 * time.Second)
	if c.plays[a] != nil || len(c.freePlays) != 1 || c.freePlays[0] != recA {
		t.Fatalf("record not recycled at its expiry: %v, free %v", c.plays[a], c.freePlays)
	}
	b := r.play(2, 1, 0)
	if c.plays[b] != recA || recA.viewer != 2 || recA.state != PlayQueued || len(c.freePlays) != 0 {
		t.Fatalf("next play did not take the record cleanly: %+v", recA)
	}

	// b is served by the cubs but the controller takes it for finished;
	// then the controller is restarted and the scavenge rebuilds b from
	// the cubs' views under a new record.
	r.run(15 * time.Second)
	c.NotifyEOF(b)
	if len(c.freePlays) != 1 || c.freePlays[0] != recX {
		t.Fatalf("free list %v, want x's record", c.freePlays)
	}
	c.Restart()
	if len(c.freePlays) != 0 {
		t.Fatal("the free list outlived the Restart")
	}
	r.run(2 * time.Second)
	rebuilt := c.plays[b]
	if rebuilt == nil || rebuilt == recA || rebuilt.state != PlayActive || len(c.freePlays) != 0 {
		t.Fatalf("scavenge did not rebuild the play: %+v (old %p), free %d", rebuilt, recA, len(c.freePlays))
	}
	r.run(time.Minute)
	if c.plays[b] != rebuilt || len(c.freePlays) != 1 || c.freePlays[0] != recA {
		t.Fatalf("old record's expiry touched the rebuilt one: map %p (rebuilt %p), free %v", c.plays[b], rebuilt, c.freePlays)
	}
	if c.finished.n != 0 {
		t.Fatalf("%d finished plays still waiting", c.finished.n)
	}
}

// TestLoneFlushGetsArrayBack: an insertion flushes the one state it
// staged by itself, a lone message to each successor; both sends come
// back, and the array is then the spare the next flush stages in.
func TestLoneFlushGetsArrayBack(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.cubs[0]
	var sent []*msg.ViewerState
	c.net = &tap{net: r.net, see: func(_ msg.NodeID, m msg.Message) {
		if vs, ok := m.(*msg.ViewerState); ok {
			sent = append(sent, vs)
			// Each flush's first send waits alone, its second beside it.
			if len(c.fwdOut) != 2-len(sent)%2 || c.fwdSpare != nil {
				t.Fatalf("send %d: %d sends waited for, spare %d", len(sent), len(c.fwdOut), cap(c.fwdSpare))
			}
		}
	}}
	c.Deliver(msg.Controller, &msg.StartPlay{Viewer: 1, Instance: 1, File: 0, Bitrate: 2_000_000, Primary: true})
	for i := 0; i < 100 && len(sent) == 0; i++ {
		r.run(10 * time.Millisecond)
	}
	if len(sent) != 2 || sent[0] != sent[1] {
		t.Fatalf("insertion sent %d lone states, want the one staged state to each successor", len(sent))
	}
	r.run(10 * time.Millisecond)
	if len(c.fwdOut) != 0 || cap(c.fwdSpare) == 0 || &c.fwdSpare[:1][0] != sent[0] {
		t.Fatalf("array not back: %d out, spare %d", len(c.fwdOut), cap(c.fwdSpare))
	}
	c.Deliver(msg.Controller, &msg.StartPlay{Viewer: 2, Instance: 2, File: 0, Bitrate: 2_000_000, Primary: true})
	for i := 0; i < 100 && len(sent) == 2; i++ {
		r.run(10 * time.Millisecond)
	}
	if len(sent) != 4 || sent[2] != sent[0] {
		t.Fatalf("next flush did not stage in the spare: %d sends", len(sent))
	}
}

// TestStartCycleAllocatesWireRecordsOnly: once warm, a start, its
// insertion, four blocks of play and the end of file allocate only the
// cub's StartAck: what goes on the wire and does not come back to be
// kept. The controller's two StartPlay copies, the queued start, the play
// record, the tombstones, the gossip the insertion sends and the records
// of everything in flight are all reused. A stop in mid-play adds
// nothing: the controller's two Deschedule copies and the ones each cub
// forwards come back too.
func TestStartCycleAllocatesWireRecordsOnly(t *testing.T) {
	o := defaultRigOptions()
	o.fileBlocks = 4
	r := newRig(t, o)
	cycle := func() {
		inst := r.play(1, 0, 0)
		r.run(20 * time.Second)
		r.ctl.NotifyEOF(inst)
	}
	// Stops come a few seconds apart, so each cub's deschedule tombstones
	// never all expire: an emptied tombstone ring is given up.
	stopped := func() {
		inst := r.play(1, 0, 0)
		r.run(2 * time.Second)
		r.ctl.StopPlay(inst)
		r.run(3 * time.Second)
	}
	for range 5 { // the finish hold recycles a play record a minute on
		cycle()
	}
	allocs := testing.AllocsPerRun(10, cycle)
	t.Logf("%.1f allocations per start cycle", allocs)
	if r.got(1) != 4 || r.totals().Inserts != 16 {
		t.Fatalf("%d blocks played, %d inserts: the cycle exercises nothing", r.got(1), r.totals().Inserts)
	}
	if allocs > 1 {
		t.Fatalf("%.1f allocations per start cycle, want the StartAck", allocs)
	}
	deschedRecv := func() (n int64) {
		for _, c := range r.cubs {
			n += c.Stats().DeschedRecv
		}
		return n
	}
	for range 10 { // the tombstone rings grow to the stops' rate
		stopped()
	}
	desched := deschedRecv()
	allocs = testing.AllocsPerRun(10, stopped)
	t.Logf("%.1f allocations per stopped start", allocs)
	if deschedRecv() == desched {
		t.Fatal("no deschedule received: the stop exercises nothing")
	}
	if allocs > 1 {
		t.Fatalf("%.1f allocations per stopped start, want the StartAck", allocs)
	}
}
