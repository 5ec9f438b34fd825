package core

import (
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

func TestSteadyStateDelivery(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	r.run(30 * time.Second)
	if got := r.got(1); got < 26 || got > 30 {
		t.Fatalf("viewer received %d blocks in 30s, want ~28", got)
	}
	tot := r.totals()
	if tot.ServerMisses != 0 || tot.Conflicts != 0 || tot.IndexMisses != 0 {
		t.Fatalf("anomalies: %+v", tot)
	}
	if tot.Inserts != 1 {
		t.Fatalf("%d inserts for one play", tot.Inserts)
	}
}

func TestBlocksFlowInOrderFromConsecutiveCubs(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	var served []msg.NodeID
	r.subscribe(trace.KindSet(trace.Serve), func(e trace.Event) { served = append(served, e.Node) })
	r.play(1, 0, 0)
	r.run(20 * time.Second)
	if len(served) < 15 {
		t.Fatalf("only %d serves", len(served))
	}
	// Striping: consecutive blocks come from consecutive cubs (§2.2).
	for i := 1; i < len(served); i++ {
		want := msg.NodeID((int(served[i-1]) + 1) % r.cfg.Layout.Cubs)
		if served[i] != want {
			t.Fatalf("serve %d from %v after %v, want %v", i, served[i], served[i-1], want)
		}
	}
}

// TestViewBounded verifies §4's scalability invariant: a cub's view is
// bounded by the lead window, independent of file length or run time.
func TestViewBounded(t *testing.T) {
	o := defaultRigOptions()
	r := newRig(t, o)
	for v := msg.ViewerID(1); v <= 10; v++ {
		r.play(v, msg.FileID(int(v)%o.files), 0)
	}
	perStream := int(r.cfg.MaxVStateLead/r.cfg.Sched.BlockPlay) + 3
	bound := 10 * perStream
	for i := 0; i < 30; i++ {
		r.run(2 * time.Second)
		for _, c := range r.cubs {
			if v := c.ViewSize(); v > bound {
				t.Fatalf("cub %v view %d exceeds bound %d", c.ID(), v, bound)
			}
		}
	}
}

func TestDuplicateViewerStatesIgnored(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	r.run(15 * time.Second)
	tot := r.totals()
	// Double forwarding means roughly half of all received states are
	// idempotent duplicates — and none of them conflict.
	if tot.StatesDup == 0 {
		t.Fatal("no duplicates despite double forwarding")
	}
	if tot.Conflicts != 0 {
		t.Fatalf("conflicts: %d", tot.Conflicts)
	}
	ratio := float64(tot.StatesDup) / float64(tot.StatesRecv)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("duplicate ratio %.2f, want ~0.5", ratio)
	}
}

func TestStopPlayDeschedules(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	inst := r.play(1, 0, 0)
	r.run(10 * time.Second)
	before := r.got(1)
	r.ctl.StopPlay(inst)
	r.run(15 * time.Second)
	after := r.got(1)
	// A couple of already-queued sends may still arrive, then silence.
	if after-before > 3 {
		t.Fatalf("%d blocks after stop", after-before)
	}
	// All views drain.
	r.run(10 * time.Second)
	for _, c := range r.cubs {
		if c.ViewSize() != 0 {
			t.Fatalf("cub %v still holds %d entries after stop", c.ID(), c.ViewSize())
		}
	}
	if r.ctl.Active() != 0 {
		t.Fatalf("controller still counts %d active", r.ctl.Active())
	}
}

func TestStopQueuedPlayCancels(t *testing.T) {
	o := defaultRigOptions()
	o.mutate = func(c *Config) { c.AdmitLimit = 0 }
	r := newRig(t, o)
	inst := r.play(1, 0, 0)
	// Stop immediately. The cancel may race the cub's insertion; either
	// way the stream must die quickly and leave nothing behind.
	r.ctl.StopPlay(inst)
	r.run(30 * time.Second)
	if got := r.got(1); got > 5 {
		t.Fatalf("cancelled play delivered %d blocks", got)
	}
	for _, c := range r.cubs {
		if c.ViewSize() != 0 {
			t.Fatalf("cub %v still holds %d entries", c.ID(), c.ViewSize())
		}
		if c.QueueLen() != 0 {
			t.Fatalf("cub %v still queues %d starts", c.ID(), c.QueueLen())
		}
	}
}

func TestEOFLeavesScheduleCleanly(t *testing.T) {
	o := defaultRigOptions()
	o.fileBlocks = 10
	r := newRig(t, o)
	r.play(1, 0, 0)
	r.run(25 * time.Second)
	if got := r.got(1); got != 10 {
		t.Fatalf("viewer got %d of 10 blocks", got)
	}
	for _, c := range r.cubs {
		if c.ViewSize() != 0 {
			t.Fatalf("cub %v holds %d entries after EOF", c.ID(), c.ViewSize())
		}
	}
}

func TestSlotReuseAfterStop(t *testing.T) {
	// A descheduled slot must be reusable by a later viewer without
	// conflicts (§4.1.2/§4.1.3 interaction).
	o := defaultRigOptions()
	r := newRig(t, o)
	conflicts := 0
	insertedSlots := map[int32]msg.InstanceID{}
	r.subscribe(trace.KindSet(trace.Insert), func(e trace.Event) {
		if _, busy := insertedSlots[e.Slot]; busy {
			conflicts++
		}
		insertedSlots[e.Slot] = e.Instance
	})
	inst := r.play(1, 0, 0)
	r.run(5 * time.Second)
	r.ctl.StopPlay(inst)
	r.run(5 * time.Second)
	delete(insertedSlots, 0) // allow reuse in the oracle: stream 1 is gone
	for k := range insertedSlots {
		delete(insertedSlots, k)
	}
	r.play(2, 1, 0)
	r.run(20 * time.Second)
	if conflicts != 0 {
		t.Fatalf("%d conflicts", conflicts)
	}
	if got := r.got(2); got < 15 {
		t.Fatalf("second viewer got %d blocks", got)
	}
	if tot := r.totals(); tot.Conflicts != 0 {
		t.Fatalf("state conflicts: %d", tot.Conflicts)
	}
}

func TestLateViewerStateDiscardedNotForwarded(t *testing.T) {
	// §4.1.2: a state older than the deschedule hold is discarded, so a
	// viewer cannot be spontaneously rescheduled.
	r := newRig(t, defaultRigOptions())
	r.run(30 * time.Second) // settle
	cub := r.cubs[3]
	stale := &msg.ViewerState{
		Viewer: 9, Instance: 99, File: 0, Block: 5, Slot: 7, PlaySeq: 5,
		Due:      int64(r.eng.Now()) - int64(r.cfg.DescheduleHold) - int64(time.Second),
		OrigDisk: 3,
		Epoch:    r.cubs[2].Epoch(), // current epoch: late, not epoch-stale
	}
	cub.Deliver(msg.NodeID(2), stale)
	if cub.Stats().StatesLate != 1 {
		t.Fatalf("late state not counted: %+v", cub.Stats())
	}
	r.run(5 * time.Second)
	// Nothing may have propagated: no other cub saw any state.
	for _, c := range r.cubs {
		if c.ViewSize() != 0 {
			t.Fatalf("late state resurrected an entry on cub %v", c.ID())
		}
	}
}

func TestDescheduleIsIdempotentAndHarmless(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	cub := r.cubs[0]
	d := &msg.Deschedule{Viewer: 5, Instance: 55, Slot: 3, Created: int64(r.eng.Now())}
	cub.Deliver(msg.Controller, d)
	cub.Deliver(msg.Controller, d)
	st := cub.Stats()
	if st.DeschedRecv != 2 || st.DeschedDup != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Descheduling an empty slot changes nothing and a fresh play works.
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	if r.got(1) < 7 {
		t.Fatalf("play after stray deschedule got %d blocks", r.got(1))
	}
}

func TestDescheduleRace(t *testing.T) {
	// The paper's Figure 7 scenario: a deschedule and a new insertion
	// into the freed slot chase each other around the ring. The new
	// viewer must survive; the old one must die.
	o := defaultRigOptions()
	r := newRig(t, o)
	inst1 := r.play(1, 0, 0)
	r.run(7 * time.Second)
	// Stop viewer 1 and immediately start viewer 2 on the same file, so
	// it is likely to reuse the freed slot.
	r.ctl.StopPlay(inst1)
	r.play(2, 0, 0)
	r.run(30 * time.Second)
	if tot := r.totals(); tot.Conflicts != 0 {
		t.Fatalf("conflicts: %d", tot.Conflicts)
	}
	got := r.got(2)
	if got < 25 {
		t.Fatalf("new viewer got only %d blocks", got)
	}
}
