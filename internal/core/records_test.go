package core

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// The tests in this file pin the lifecycle of a cub's entry records
// (DESIGN §10): a record returns to the free list only once it has left
// the view and nothing can call back into it, and whatever does call
// back late finds the entry gone and touches nothing.

// stateFor builds a primary viewer state for cub 0's first disk of a
// rig, due at the given instant.
func stateFor(inst msg.InstanceID, slot int32, due sim.Time) *msg.ViewerState {
	return &msg.ViewerState{Viewer: msg.ViewerID(inst), Instance: inst, File: 0,
		Block: 0, Slot: slot, Due: int64(due), OrigDisk: 0, Epoch: 1, Bitrate: 2_000_000}
}

// TestEntryRecordReusedAfterDeschedule deschedules an entry whose read
// is on the platter and lets another instance take over its record,
// slot and due time. The withdrawn read still occupies the drive; its
// completion must not mark the new entry ready, free its buffer, or
// feed it to the send path.
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
	c.Deliver(1, stateFor(1, 5, due))
	key := entryKey{5, -1, int64(due)}
	old := c.view.get(key)
	if old == nil || old.pins != 2 {
		t.Fatalf("entry not armed: %+v", old)
	}
	r.run(210 * time.Millisecond) // read timer fired at due-1s; the read is in service
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
	// Its read timer is due now (due-1s has passed) and the read queues
	// behind the withdrawn one, whose completion comes first.
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
	if ds := c.DiskByIndex(0).Stats(); ds.Reads != 2 || ds.CancelledBusy != 1 {
		t.Fatalf("disk stats %+v, want the withdrawn read and the new one", ds)
	}
}

type sinkFunc func(netsim.BlockDelivery)

func (f sinkFunc) DeliverBlock(d netsim.BlockDelivery) { f(d) }

// lostRaceClock is a clock whose every Stop loses the race the real-time
// runtime allows: the callback is "already queued on the executor", so
// Stop reports false and the callback still runs — when the test says.
type lostRaceClock struct {
	now    sim.Time
	queued []func()
	fired  clock.Timer
}

func newLostRaceClock() *lostRaceClock {
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	return &lostRaceClock{fired: clock.Real(tm)}
}

func (k *lostRaceClock) Now() sim.Time { return k.now }
func (k *lostRaceClock) At(t sim.Time, fn func()) clock.Timer {
	k.queued = append(k.queued, fn)
	return k.fired
}
func (k *lostRaceClock) After(d time.Duration, fn func()) clock.Timer { return k.At(k.now.Add(d), fn) }

func (k *lostRaceClock) runQueued() {
	q := k.queued
	k.queued = nil
	for _, fn := range q {
		fn()
	}
}

type nopTransport struct{}

func (nopTransport) Send(from, to msg.NodeID, m msg.Message) {}

type countingData struct{ blocks int }

func (d *countingData) SendBlock(msg.NodeID, netsim.BlockDelivery, time.Duration) { d.blocks++ }

// TestEntryRecordHeldWhileStopLosesRace: when Stop reports false for a
// timer that has not run, the record stays out of the free list until
// that callback has come and gone, and the callback — which finds the
// same key occupied by another instance's entry — touches nothing.
func TestEntryRecordHeldWhileStopLosesRace(t *testing.T) {
	cfg := indexTestConfig(t, 4, 1, 2, 2, 100)
	clk := newLostRaceClock()
	data := &countingData{}
	c := NewCub(0, cfg, clk, nopTransport{}, data, rand.New(rand.NewSource(1)))
	due := clk.now.Add(1500 * time.Millisecond)
	key := entryKey{3, -1, int64(due)}
	// BuildConfig places files at random: pick file 0's block on disk 0.
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())
	state := func(inst msg.InstanceID) *msg.ViewerState {
		vs := stateFor(inst, 3, due)
		vs.Block = onDisk0
		return vs
	}

	c.Deliver(1, state(1))
	old := c.view.get(key)
	c.Deliver(msg.Controller, &msg.Deschedule{Viewer: 1, Instance: 1, Slot: 3})
	if old == nil || old.live || old.pins != 2 || len(c.freeEntries) != 0 {
		t.Fatalf("entry with two callbacks still queued was recycled: %+v free %d", old, len(c.freeEntries))
	}
	c.Deliver(1, state(2))
	cur := c.view.get(key)
	if cur == nil || cur == old {
		t.Fatal("the new instance took over a record with callbacks outstanding")
	}

	// Everything queued so far runs: the old entry's two stale timers
	// first, then the new entry's read timer (its read goes to the
	// drive) and send timer (too early: the read cannot have completed,
	// so the send is a miss — what matters is that it is the only one).
	clk.runQueued()
	if old.pins != 0 || len(c.freeEntries) == 0 || c.freeEntries[0] != old {
		t.Fatalf("stale callbacks ran but the record was not recycled: pins %d free %d", old.pins, len(c.freeEntries))
	}
	st := c.Stats()
	if ds := c.DiskByIndex(0).Stats(); ds.Reads != 1 {
		t.Fatalf("%d reads started: a stale read timer issued one for the new entry", ds.Reads)
	}
	if st.ServerMisses != 1 || data.blocks != 0 || st.IndexMisses != 0 {
		t.Fatalf("stale send timer serviced the new entry: %+v, %d blocks", st, data.blocks)
	}
	if c.BufferedBytes() != 0 || c.view.len() != 0 {
		t.Fatalf("buffered %d, %d entries", c.BufferedBytes(), c.view.len())
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
	if ds := c.DiskByIndex(0).Stats(); ds.Reads != 0 {
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
