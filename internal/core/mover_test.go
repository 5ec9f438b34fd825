package core

import (
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

// moveAck is one MoveCommit or MoveNack a cub sent: the move sequence
// and, for a nack, its reason.
type moveAck struct {
	node   msg.NodeID
	kind   trace.Kind
	seq    int32
	reason uint8
}

// moverRig is a 4-cub rig with two drives per cub and no stream playing,
// recording every move acknowledgement the cubs send.
func moverRig(t *testing.T) (*rig, *[]moveAck) {
	o := defaultRigOptions()
	o.cubs, o.disksPerCub = 4, 2
	r := newRig(t, o)
	acks := new([]moveAck)
	r.subscribe(trace.KindSet(trace.MoveCommit, trace.MoveNack), func(e trace.Event) {
		a := moveAck{node: e.Node, kind: e.Kind, seq: e.Slot}
		if e.Kind == trace.MoveNack {
			a.reason = uint8(e.Block)
		}
		*acks = append(*acks, a)
	})
	return r, acks
}

// moveOrder orders the primary copy on drive 0 of the receiving cub to
// drive 0 of cub 1.
func moveOrder(seq int32) *msg.MoveOrder {
	return &msg.MoveOrder{Fence: 1, Seq: seq, Part: -1, SrcIdx: 0, DstCub: 1, DstIdx: 0, Ctl: 1}
}

func TestMoverDropsDuplicateOrder(t *testing.T) {
	r, _ := moverRig(t)
	c := r.cubs[0]
	for seq := int32(1); seq <= 3; seq++ {
		c.dispatch(moveOrder(seq))
	}
	if n := c.MoverPending(); n != 2 {
		t.Fatalf("%d jobs queued behind the copy in service, want 2", n)
	}
	c.dispatch(moveOrder(2)) // still queued
	c.dispatch(moveOrder(1)) // in service
	if n := c.MoverPending(); n != 2 {
		t.Fatalf("duplicates queued: %d jobs pending, want 2", n)
	}
	r.run(10 * time.Second)
	if out, in := c.Stats().MovesOut, r.cubs[1].Stats().MovesIn; out != 3 || in != 3 {
		t.Fatalf("%d copies shipped, %d landed; want 3 and 3", out, in)
	}
}

func TestMoverCommittedDataResendsCommit(t *testing.T) {
	r, acks := moverRig(t)
	c := r.cubs[1]
	md := &msg.MoveData{Fence: 1, Seq: 5, Part: -1, DstIdx: 1, From: 0, Epoch: 1}
	c.dispatch(md)
	r.run(time.Second)
	reads := c.Disk(1).Stats().Reads
	if st := c.Stats(); st.MovesIn != 1 || reads != 1 || len(*acks) != 1 {
		t.Fatalf("%d landed, %d drive operations, acks %v; want one of each", st.MovesIn, reads, *acks)
	}
	c.dispatch(md)
	r.run(time.Second)
	if st := c.Stats(); st.MovesIn != 1 || c.Disk(1).Stats().Reads != reads || c.MoverPending() != 0 {
		t.Fatalf("a committed move landed again: %d landed, %d pending", st.MovesIn, c.MoverPending())
	}
	want := moveAck{node: 1, kind: trace.MoveCommit, seq: 5}
	if len(*acks) != 2 || (*acks)[1] != want {
		t.Fatalf("acks %v, want the commit sent twice", *acks)
	}
}

// Retiring a source drive nacks its queued orders, and every later one,
// with the reason matching how the drive left; the copy already in
// service completes as a read error.
func TestMoverRetiredSourceNacks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		retire func(*Cub)
		reason uint8
	}{
		{"failed", func(c *Cub) { c.FailDisk(0) }, msg.NackDiskFailed},
		{"quarantined", func(c *Cub) { c.transition(&c.drives[0], DiskQuarantined) }, msg.NackDiskQuarantined},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, acks := moverRig(t)
			c := r.cubs[0]
			for seq := int32(1); seq <= 3; seq++ {
				c.dispatch(moveOrder(seq))
			}
			tc.retire(c)
			c.dispatch(moveOrder(4))
			r.run(time.Second)
			want := []moveAck{
				{0, trace.MoveNack, 2, tc.reason},
				{0, trace.MoveNack, 3, tc.reason},
				{0, trace.MoveNack, 4, tc.reason},
				{0, trace.MoveNack, 1, msg.NackReadError},
			}
			if len(*acks) != len(want) {
				t.Fatalf("acks %v, want %v", *acks, want)
			}
			for i := range want {
				if (*acks)[i] != want[i] {
					t.Fatalf("acks %v, want %v", *acks, want)
				}
			}
			if c.MoverPending() != 0 || c.Stats().MovesOut != 0 {
				t.Fatalf("%d pending, %d shipped from a retired drive", c.MoverPending(), c.Stats().MovesOut)
			}
		})
	}
}

// A drive index arrives from the network: one naming no local drive is
// ignored, without a panic, a nack or a queued job.
func TestMoverIgnoresOutOfRangeDrive(t *testing.T) {
	r, acks := moverRig(t)
	c := r.cubs[2]
	for _, idx := range []int8{-1, int8(r.cfg.Layout.DisksPerCub), 127} {
		o := moveOrder(10)
		o.SrcIdx = idx
		c.dispatch(o)
		c.dispatch(&msg.MoveData{Fence: 1, Seq: 11, Part: -1, DstIdx: idx, From: 0, Epoch: 1})
		if c.MoverPending() != 0 {
			t.Fatalf("drive index %d: %d jobs queued", idx, c.MoverPending())
		}
	}
	r.run(time.Second)
	if st := c.Stats(); st.MovesNacked != 0 || st.MovesIn != 0 || st.MovesOut != 0 || len(*acks) != 0 {
		t.Fatalf("out-of-range drive indexes acted on: %+v, acks %v", st, *acks)
	}
}

// A restart wipes the mover's queues but not the copy on the platter,
// which still holds the drive: its completion and pacing gap hand the
// drive on to the new incarnation's queue rather than run a second
// chain of copies beside it. Rule 2 — one copy per drive — holds across
// the restart.
func TestMoverOneCopyPerDriveAcrossRestart(t *testing.T) {
	r, _ := moverRig(t)
	c := r.cubs[0]
	for seq := int32(1); seq <= 3; seq++ {
		c.dispatch(moveOrder(seq))
	}
	r.run(time.Millisecond)
	c.Restart()
	for seq := int32(4); seq <= 9; seq++ {
		c.dispatch(moveOrder(seq))
	}
	most := 0
	for i := 0; i < 5000; i++ {
		r.run(time.Millisecond)
		most = max(most, c.Disk(0).QueueLen())
	}
	if most != 1 {
		t.Fatalf("the drive held %d mover reads at once", most)
	}
	if out := c.Stats().MovesOut; out != 7 {
		t.Fatalf("%d copies shipped, want the one in service at the restart and the six after", out)
	}
}
