package core

import (
	"errors"
	"testing"
	"time"

	"tiger/internal/msg"
)

// TestLoadCounters pins the counters Figures 8 and 9 model CPU load from
// (cmd/tigerbench): one per control message delivered, a gossip batch
// counting once; one per disk read of every kind; one per start or stop
// request and per message reaching the controller, counted while it is
// down too.
func TestLoadCounters(t *testing.T) {
	t.Run("batch and scheduled read", func(t *testing.T) {
		r := newRig(t, defaultRigOptions())
		c := r.cubs[2]
		vs := msg.ViewerState{Viewer: 7, Instance: 77, File: 0, Block: 2, Slot: 3, Due: int64(8 * time.Second), OrigDisk: 2, Epoch: 1}
		c.Deliver(1, &msg.Batch{Msgs: []msg.Message{&vs, &vs, &vs}})
		if s := c.Stats(); s.MsgsRecv != 1 || s.StatesRecv != 3 || s.StatesDup != 2 {
			t.Fatalf("a batch of three states: %d messages, %d states, %d duplicates; want 1, 3, 2",
				s.MsgsRecv, s.StatesRecv, s.StatesDup)
		}
		r.run(8 * time.Second)
		if s := c.Stats(); s.DiskReads != 1 || s.BlocksSent != 1 {
			t.Fatalf("%d reads for %d blocks sent, want 1 and 1", s.DiskReads, s.BlocksSent)
		}
	})

	t.Run("quarantine probe", func(t *testing.T) {
		r := newRig(t, defaultRigOptions())
		misses(r.cubs[0], quarantineAfter)
		r.run(probeInterval)
		if s := r.cubs[0].Stats(); s.DiskProbes != 1 || s.DiskReads != 1 {
			t.Fatalf("%d probes, %d reads; want 1 and 1", s.DiskProbes, s.DiskReads)
		}
	})

	t.Run("restripe copy", func(t *testing.T) {
		r, _ := moverRig(t)
		r.cubs[0].dispatch(moveOrder(1))
		if n := r.cubs[0].Stats().DiskReads; n != 1 {
			t.Fatalf("%d reads for one copy, want 1", n)
		}
	})

	t.Run("controller down", func(t *testing.T) {
		r := newRig(t, defaultRigOptions())
		r.ctl.Crash()
		if _, err := r.ctl.StartPlay(1, 0, 0, 2_000_000); !errors.Is(err, ErrControllerDown) {
			t.Fatalf("StartPlay to a crashed controller: %v", err)
		}
		r.ctl.StopPlay(1)
		r.ctl.Deliver(3, &msg.StartAck{Instance: 1, Slot: 4})
		if s := r.ctl.Stats(); s.Requests != 2 || s.MsgsRecv != 1 || s.Starts != 0 {
			t.Fatalf("%d requests, %d messages, %d starts; want 2, 1, 0", s.Requests, s.MsgsRecv, s.Starts)
		}
	})
}
