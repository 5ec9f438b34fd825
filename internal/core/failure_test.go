package core

import (
	"testing"
	"time"

	"tiger/internal/msg"
)

// missesFor counts playseqs with fewer pieces than a full block needs.
func (r *rig) completeBlocks(v msg.ViewerID, needPieces int) (full, partial int) {
	for _, pieces := range r.deliveries[v] {
		if pieces >= needPieces || pieces == 1 {
			full++
		} else {
			partial++
		}
	}
	return
}

func TestDeadmanDetection(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.run(2 * time.Second)
	r.net.Fail(3)
	r.run(r.cfg.DeadmanTimeout + 2*r.cfg.HeartbeatInterval + time.Second)
	for _, c := range r.cubs {
		if c.ID() == 3 {
			continue
		}
		for _, m := range c.monitored {
			if m == msg.NodeID(3) && !c.believedDead[3] {
				t.Fatalf("cub %v monitors cub3 but has not declared it dead", c.ID())
			}
		}
	}
	if r.cubs[4].Stats().DeadDeclared == 0 {
		t.Fatal("successor never declared the failure")
	}
}

func TestMirrorTakeoverOngoingStream(t *testing.T) {
	// Kill a cub mid-stream: blocks whose primary lived there must keep
	// arriving as declustered pieces from the covering cubs (§4.1.1).
	o := defaultRigOptions()
	o.cubs, o.decluster = 8, 2
	r := newRig(t, o)
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	r.net.Fail(3)
	r.run(40 * time.Second)

	tot := r.totals()
	if tot.MirrorsMade == 0 || tot.PiecesSent == 0 {
		t.Fatalf("no mirror activity after cub failure: %+v", tot)
	}
	// The stream passes the failed cub every 8 blocks; in 40 s that is
	// ~5 mirror-served blocks. Allow detection-latency losses of a few
	// blocks right after the failure.
	got := r.got(1)
	if got < 42 {
		t.Fatalf("viewer got %d of ~48 expected blocks", got)
	}
	full, partial := r.completeBlocks(1, o.decluster)
	if partial > 0 {
		t.Fatalf("%d partially delivered blocks (of %d)", partial, full+partial)
	}
}

func TestFailureLossWindowMatchesDetectionLatency(t *testing.T) {
	// §5: after a power cut, lost blocks span a bounded window (the
	// paper measured ~8 s at 50% load). Losses must stop once the
	// deadman fires and mirrors take over.
	o := defaultRigOptions()
	r := newRig(t, o)
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	r.net.Fail(3)
	r.run(60 * time.Second)
	// Which playseqs are missing entirely?
	var missing []int32
	for k := int32(0); k < 65; k++ {
		if _, ok := r.deliveries[1][k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return // detection beat the stream's next visit: no loss at all
	}
	span := missing[len(missing)-1] - missing[0]
	if span > 12 {
		t.Fatalf("loss window spans %d blocks (%v), want bounded by detection+lead", span, missing)
	}
	if len(missing) > 4 {
		t.Fatalf("%d blocks lost to one failure: %v", len(missing), missing)
	}
}

func TestGapBridgingTwoConsecutiveFailures(t *testing.T) {
	// §2.3: "If two or more consecutive cubs are failed, the preceding
	// living cub will send scheduling information to the succeeding
	// living cub, bridging the gap." Streams continue, missing only the
	// blocks that cannot be reconstructed.
	o := defaultRigOptions()
	o.cubs, o.decluster = 10, 2
	r := newRig(t, o)
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	r.net.Fail(3)
	r.net.Fail(4)
	r.run(50 * time.Second)

	got := r.got(1)
	// 60 blocks expected; the stream passes the dead pair every 10
	// blocks. Blocks on cub3 lose piece 0 (on cub4): unreconstructable.
	// Blocks on cub4 have pieces on cubs 5,6: fine. So ~5 blocks lost
	// to the gap plus a few to detection latency.
	if got < 45 {
		t.Fatalf("viewer got %d of ~60 blocks with a two-cub gap", got)
	}
	if tot := r.totals(); tot.PiecesLost == 0 {
		t.Fatal("expected lost pieces for blocks mirrored onto the dead pair")
	}
	// Forwarding must have bridged: cubs past the gap keep serving.
	if r.cubs[5].Stats().BlocksSent == 0 {
		t.Fatal("cub past the gap never served")
	}
}

func TestRedundantStartPromotion(t *testing.T) {
	// §4.1.3: the start request goes to the target cub and its successor;
	// if the target dies before inserting, the successor inserts.
	o := defaultRigOptions()
	r := newRig(t, o)
	// File 2 starts on disk 6 (cub 6): kill cub 6 before the request.
	f := r.cfg.Files[2]
	d0 := r.cfg.Layout.PrimaryDisk(f, 0)
	target := int(r.cfg.Layout.CubOfDisk(d0))
	r.net.Fail(msg.NodeID(target))
	r.run(r.cfg.DeadmanTimeout + 2*time.Second)

	r.play(1, 2, 0)
	r.run(20 * time.Second)
	got := r.got(1)
	if got < 12 {
		t.Fatalf("stream starting on a dead cub's disk got %d blocks", got)
	}
	succ := r.cubs[(target+1)%o.cubs]
	if succ.Stats().RedundantRuns == 0 {
		t.Fatal("successor never promoted the redundant start")
	}
	if succ.Stats().Inserts == 0 {
		t.Fatal("successor never inserted by proxy")
	}
}

func TestRejoinedCubResumesService(t *testing.T) {
	o := defaultRigOptions()
	r := newRig(t, o)
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	r.net.Fail(3)
	r.run(20 * time.Second)
	r.net.Revive(3)
	r.run(30 * time.Second)
	// After revival the cub rebuilds its view from gossip and serves
	// primaries again.
	base := r.cubs[3].Stats().BlocksSent
	r.run(20 * time.Second)
	if r.cubs[3].Stats().BlocksSent == base {
		t.Fatal("revived cub never served again")
	}
	for _, c := range r.cubs {
		if c.believedDead[3] {
			t.Fatalf("cub %v still believes cub3 dead after revival", c.ID())
		}
	}
}

func TestSingleDiskFailure(t *testing.T) {
	// A lone disk failure (not a whole cub): its own cub converts the
	// schedule entries into mirror viewer states.
	o := defaultRigOptions()
	o.cubs, o.disksPerCub, o.decluster = 6, 2, 2
	r := newRig(t, o)
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	// Fail one disk of cub 2.
	r.cubs[2].FailDisk(1)
	r.run(40 * time.Second)
	got := r.got(1)
	if got < 45 {
		t.Fatalf("viewer got %d of ~48 blocks after disk failure", got)
	}
	if r.totals().MirrorsMade == 0 {
		t.Fatal("no mirror states for the failed disk")
	}
	// The owning cub keeps serving from its healthy disk.
	if r.cubs[2].Stats().BlocksSent == 0 {
		t.Fatal("cub with one failed disk stopped serving entirely")
	}
}

func TestSingleForwardingLosesMoreOnFailure(t *testing.T) {
	// Ablation A1: with single forwarding, schedule information queued
	// only at the failed cub is lost, so more blocks go missing than
	// with double forwarding (§4.1.1's design rationale).
	losses := func(single bool) int {
		o := defaultRigOptions()
		o.cubs, o.decluster = 8, 2
		o.mutate = func(c *Config) { c.SingleForward = single }
		r := newRig(t, o)
		for v := msg.ViewerID(1); v <= 4; v++ {
			r.play(v, msg.FileID(int(v-1)%o.files), 0)
		}
		r.run(10 * time.Second)
		r.net.Fail(3)
		r.run(40 * time.Second)
		lost := 0
		for v := msg.ViewerID(1); v <= 4; v++ {
			expect := int(r.eng.Now().Seconds()) - 3 // minus startup slack
			if got := r.got(v); got < expect {
				lost += expect - got
			}
		}
		return lost
	}
	double := losses(false)
	single := losses(true)
	t.Logf("blocks lost after failure: double=%d single=%d", double, single)
	if single <= double {
		t.Fatalf("single forwarding should lose more: single=%d double=%d", single, double)
	}
}

func TestMonitoredSetSizeBounded(t *testing.T) {
	// The deadman protocol is neighbour-based: monitored sets must not
	// grow with system size.
	for _, cubs := range []int{6, 12, 24} {
		o := defaultRigOptions()
		o.cubs = cubs
		r := newRig(t, o)
		want := 2 * (o.decluster + 1)
		for _, c := range r.cubs {
			if len(c.monitored) > want {
				t.Fatalf("%d cubs: monitored set %d exceeds %d", cubs, len(c.monitored), want)
			}
		}
	}
}
