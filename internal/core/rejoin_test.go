package core

import (
	"testing"
	"time"

	"tiger/internal/msg"
)

// TestRestartReintegration is the deterministic version of the crash–
// restart story: a cub crashes mid-stream, the ring covers for it, and
// after a cold restart the rejoin handshake rebuilds its view and hands
// the mirror load back.
func TestRestartReintegration(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	r.run(20 * time.Second)

	const victim = 3
	r.net.Crash(msg.NodeID(victim))
	r.run(10 * time.Second) // deadman fires; successors build mirror chains
	if ml := r.mirrorLoadFor(victim); ml == 0 {
		t.Fatal("no mirror load built up while the victim was down")
	}
	sentAtCrash := r.cubs[victim].Stats().BlocksSent
	gotAtCrash := r.got(1)

	r.net.Revive(msg.NodeID(victim))
	r.cubs[victim].Restart()
	r.run(15 * time.Second)

	st := r.cubs[victim].Stats()
	if st.Rejoins != 1 {
		t.Fatalf("rejoins %d, want 1", st.Rejoins)
	}
	if e := r.cubs[victim].Epoch(); e != 2 {
		t.Fatalf("epoch %d after one restart, want 2", e)
	}
	if st.ViewTransferred == 0 {
		t.Error("no viewer states transferred by the rejoin handshake")
	}
	tot := r.totals()
	if tot.MirrorsRetired == 0 {
		t.Error("no mirror entries handed back")
	}
	if ml := r.mirrorLoadFor(victim); ml != 0 {
		t.Errorf("mirror load did not drain: %d entries", ml)
	}
	if st.BlocksSent <= sentAtCrash {
		t.Error("victim never served a block after restart")
	}
	// One-second blocks: full rate is 15 blocks over the 15 s window.
	if r.got(1)-gotAtCrash < 12 {
		t.Errorf("stream stalled across the restart: %d new blocks in 15s",
			r.got(1)-gotAtCrash)
	}
	if tot.Conflicts != 0 {
		t.Errorf("state conflicts through restart: %d", tot.Conflicts)
	}

	// The recovery clock stopped when the last neighbour answered — well
	// inside the deadman-timeout fallback.
	h := r.cubs[victim].RecoveryTimes()
	if h.Count() != 1 {
		t.Fatalf("%d recovery samples, want 1", h.Count())
	}
	if h.Max() >= r.cfg.DeadmanTimeout.Seconds() {
		t.Errorf("recovery took %v s, fallback timer must not be the closer", h.Max())
	}
}

// TestEpochFencing exercises the fence directly: once a peer's epoch
// high-water mark rises, anything stamped with an older epoch — a
// heartbeat, a viewer state, a rejoin reply for a previous incarnation —
// is discarded without side effects.
func TestEpochFencing(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.run(5 * time.Second) // settle; real heartbeats carry epoch 1
	cub := r.cubs[0]
	base := cub.Stats().StaleEpochDrops

	// A heartbeat with a higher epoch raises the mark for peer 2.
	cub.Deliver(msg.NodeID(2), &msg.Heartbeat{From: 2, Epoch: 5, Now: int64(r.eng.Now())})
	if d := cub.Stats().StaleEpochDrops - base; d != 0 {
		t.Fatalf("fresh heartbeat dropped: %d", d)
	}
	// An older-epoch heartbeat from the same peer is fenced.
	cub.Deliver(msg.NodeID(2), &msg.Heartbeat{From: 2, Epoch: 4, Now: int64(r.eng.Now())})
	if d := cub.Stats().StaleEpochDrops - base; d != 1 {
		t.Fatalf("stale heartbeat not fenced: %d drops", d)
	}

	// A stale-epoch viewer state is discarded before any processing: not
	// received, not applied, not forwarded.
	vs := msg.ViewerState{
		Viewer: 7, Instance: 77, File: 0, Block: 0, Slot: 3,
		Due:      int64(r.eng.Now()) + int64(2*time.Second),
		OrigDisk: 0, Epoch: 4,
	}
	recvBefore := cub.Stats().StatesRecv
	cub.Deliver(msg.NodeID(2), &vs)
	st := cub.Stats()
	if st.StaleEpochDrops-base != 2 {
		t.Fatalf("stale viewer state not fenced: %d drops", st.StaleEpochDrops-base)
	}
	if st.StatesRecv != recvBefore || cub.ViewSize() != 0 {
		t.Fatal("stale viewer state was processed")
	}

	// The same state at the current mark is accepted normally.
	vs.Epoch = 5
	cub.Deliver(msg.NodeID(2), &vs)
	if cub.ViewSize() != 1 {
		t.Fatal("current-epoch viewer state not accepted")
	}

	// A rejoin reply addressed to a previous incarnation is ignored.
	cub.Deliver(msg.NodeID(1), &msg.RejoinReply{From: 1, ForEpoch: cub.Epoch() + 1})
	if d := cub.Stats().StaleEpochDrops - base; d != 3 {
		t.Fatalf("mismatched rejoin reply not dropped: %d drops", d)
	}
}

// TestRestartWipesVolatileState verifies Restart is a genuine cold
// start: the view empties, queues clear, and liveness beliefs reset,
// while cumulative counters survive (they belong to the test harness,
// not the incarnation).
func TestRestartWipesVolatileState(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	r.run(12 * time.Second)
	cub := r.cubs[2]
	if cub.ViewSize() == 0 {
		t.Fatal("no view to wipe")
	}
	sent := cub.Stats().BlocksSent
	cub.Restart()
	if cub.ViewSize() != 0 || cub.QueueLen() != 0 {
		t.Fatalf("restart left state: view=%d queue=%d", cub.ViewSize(), cub.QueueLen())
	}
	if cub.Stats().BlocksSent != sent {
		t.Fatal("restart clobbered cumulative counters")
	}
	if cub.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", cub.Epoch())
	}
	// The ring refills the view and the stream survives.
	before := r.got(1)
	r.run(15 * time.Second)
	if r.got(1)-before < 10 {
		t.Fatalf("stream did not survive an in-place restart: %d blocks", r.got(1)-before)
	}
	if tot := r.totals(); tot.Conflicts != 0 {
		t.Fatalf("conflicts after restart: %d", tot.Conflicts)
	}
}
