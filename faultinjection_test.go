package tiger

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/msg"
)

// TestLossyControlPlane drops a fraction of control messages between
// cubs and verifies the protocol's redundancy (double forwarding,
// redundant start copies, idempotent dedup) keeps streams flowing. The
// real system runs control over TCP, so this is strictly harsher than
// the paper's environment.
func TestLossyControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection run")
	}
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	c.Net.DropControl = func(from, to msg.NodeID, m msg.Message) bool {
		// Drop 2% of cub-to-cub gossip; leave client/controller paths
		// and heartbeats intact so liveness is not the variable here.
		if from == msg.Controller || to == msg.Controller {
			return false
		}
		if _, isHB := m.(*msg.Heartbeat); isHB {
			return false
		}
		return rng.Float64() < 0.02
	}
	if err := c.RampTo(200); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Minute)
	ok, lost, _ := c.ViewerTotals()
	st := c.TotalCubStats()
	t.Logf("ok=%d lost=%d dup=%d late=%d conflicts=%d", ok, lost, st.StatesDup, st.StatesLate, st.Conflicts)
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts under message loss: %d", v)
	}
	// A single dropped state is healed by the redundant copy; losing
	// both copies of the same hop costs at most that hop's block.
	if lost > (ok+lost)/200 {
		t.Errorf("loss rate too high under 2%% control drop: %d of %d", lost, ok+lost)
	}
	if st.Conflicts != 0 {
		t.Errorf("state conflicts: %d", st.Conflicts)
	}
}

// TestRandomOperationsInvariants drives a random mix of plays, stops,
// cub failures and revivals, checking the protocol invariants the whole
// way. This is the repository's monkey test.
func TestRandomOperationsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("monkey test")
	}
	o := DefaultOptions()
	o.Cubs = 10
	o.DisksPerCub = 2
	o.Decluster = 2
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	failed := -1
	crashed := false
	var streams []*Stream
	for step := 0; step < 300; step++ {
		switch r := rng.Float64(); {
		case r < 0.45: // start
			if c.liveStreams() < c.Capacity()*8/10 {
				s, err := c.PlayRandom()
				if err == nil {
					streams = append(streams, s)
				}
			}
		case r < 0.65 && len(streams) > 0: // stop a random stream
			i := rng.Intn(len(streams))
			streams[i].Stop()
			streams = append(streams[:i], streams[i+1:]...)
		case r < 0.70 && failed < 0: // take a cub down: blip or crash
			failed = rng.Intn(o.Cubs)
			crashed = rng.Float64() < 0.5
			if crashed {
				c.CrashCub(failed)
			} else {
				c.FailCub(failed)
			}
		case r < 0.75 && failed >= 0: // bring it back the matching way
			if crashed {
				c.RestartCub(failed)
			} else {
				c.ReviveCub(failed)
			}
			failed = -1
		}
		c.RunFor(time.Duration(500+rng.Intn(1500)) * time.Millisecond)

		if v := c.InvariantViolations(); v != 0 {
			t.Fatalf("step %d: slot conflicts: %d", step, v)
		}
		if cs := c.TotalCubStats(); cs.Conflicts != 0 || cs.IndexMisses != 0 {
			t.Fatalf("step %d: anomalies %+v", step, cs)
		}
		// Bounded views at all times.
		for _, cub := range c.Cubs {
			if cub.ViewSize() > 2500 {
				t.Fatalf("step %d: cub view exploded to %d", step, cub.ViewSize())
			}
		}
	}
	// Drain: stop everything, revive everyone, views must empty.
	if failed >= 0 {
		if crashed {
			c.RestartCub(failed)
		} else {
			c.ReviveCub(failed)
		}
	}
	c.StopAll()
	c.RunFor(30 * time.Second)
	for i, cub := range c.Cubs {
		if v := cub.ViewSize(); v != 0 {
			t.Errorf("cub %d still holds %d entries after drain", i, v)
		}
		if q := cub.QueueLen(); q != 0 {
			t.Errorf("cub %d still queues %d starts after drain", i, q)
		}
	}
	ok, lost, _ := c.ViewerTotals()
	t.Logf("monkey test: %d ok, %d lost, %d deadman transitions",
		ok, lost, c.TotalCubStats().DeadDeclared)
}

// TestCrashRestartReintegration is the headline robustness scenario: a
// cub crashes mid-gossip under heavy load, restarts with empty memory,
// and must reintegrate — rebuild its view through the rejoin handshake,
// take its mirror load back, and fence out every pre-crash message the
// transport replays at it.
func TestCrashRestartReintegration(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection run")
	}
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(120); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	// Record the victim's outbound gossip for a while. The simulated
	// network is FIFO per pair, so a crashed sender's stale frames can
	// never naturally arrive after its restart announcements — but over
	// real TCP a reconnecting peer can replay buffered pre-crash frames
	// late. Model that by re-injecting the recording after the restart.
	const victim = 5
	type recMsg struct {
		to msg.NodeID
		m  msg.Message
	}
	var recorded []recMsg
	c.Net.DropControl = func(from, to msg.NodeID, m msg.Message) bool {
		if from == msg.NodeID(victim) && to >= 0 {
			switch m.(type) {
			case *msg.ViewerState, *msg.Heartbeat:
				recorded = append(recorded, recMsg{to, m})
			}
		}
		return false
	}
	c.RunFor(2 * time.Second)
	c.Net.DropControl = nil
	if len(recorded) == 0 {
		t.Fatal("no gossip recorded before the crash")
	}

	c.CrashCub(victim)
	c.RunFor(10 * time.Second) // deadman fires; mirrors take over
	mirrorLoad := c.MirrorLoadFor(victim)
	if mirrorLoad == 0 {
		t.Fatal("no mirror load built up while the victim was down")
	}
	sentAtCrash := c.Cubs[victim].Stats().BlocksSent

	c.RestartCub(victim)
	// Give the restart announcements a second to raise the peers' epoch
	// marks, then replay the old incarnation's gossip at them.
	c.RunFor(time.Second)
	for _, r := range recorded {
		c.Cubs[r.to].Deliver(msg.NodeID(victim), r.m)
	}
	c.RunFor(15 * time.Second)

	vst := c.Cubs[victim].Stats()
	cs := c.TotalCubStats()
	rejoin := c.Cubs[victim].RecoveryTimes()
	rejoinTime := time.Duration(rejoin.Max() * float64(time.Second))
	t.Logf("mirrorLoadAtRestart=%d rejoin=%v transferred=%d retired=%d residual=%d staleDrops=%d replayed=%d conflicts=%d",
		mirrorLoad, rejoinTime, vst.ViewTransferred, cs.MirrorsRetired, c.MirrorLoadFor(victim),
		cs.StaleEpochDrops, len(recorded), c.InvariantViolations())
	if vst.Rejoins != 1 {
		t.Errorf("victim recorded %d rejoins, want 1", vst.Rejoins)
	}
	if n := rejoin.Count(); n != 1 || rejoinTime <= 0 || rejoinTime > c.Cfg.DeadmanTimeout {
		t.Errorf("victim's rejoin handshake: %d samples, longest %v; want one in (0, %v]",
			n, rejoinTime, c.Cfg.DeadmanTimeout)
	}
	if e := c.Cubs[victim].Epoch(); e != 2 {
		t.Errorf("victim epoch %d after one restart, want 2", e)
	}
	if vst.ViewTransferred == 0 {
		t.Error("no viewer states transferred by the rejoin handshake")
	}
	if cs.MirrorsRetired == 0 {
		t.Error("no mirror entries handed back after reintegration")
	}
	if cs.StaleEpochDrops == 0 {
		t.Error("replayed pre-crash gossip was not fenced")
	}
	if ml := c.MirrorLoadFor(victim); ml != 0 {
		t.Errorf("mirror load did not drain: %d entries still cover the victim", ml)
	}
	if vst.BlocksSent <= sentAtCrash {
		t.Errorf("victim never served again: %d blocks before and after", sentAtCrash)
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts through crash and reintegration: %d", v)
	}
	if cs.Conflicts != 0 {
		t.Errorf("state conflicts: %d", cs.Conflicts)
	}
}

// TestStaggeredDoubleRestart crashes two adjacent cubs — the harshest
// case, since each is the other's mirror neighbour — restarts them
// staggered, and requires both to reintegrate cleanly. Losses are
// expected (adjacent double failure exceeds the decluster redundancy);
// corrupted schedules are not.
func TestStaggeredDoubleRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection run")
	}
	o := DefaultOptions()
	o.Cubs = 10
	o.DisksPerCub = 2
	o.Decluster = 2
	o.ClientDropProb = 0
	o.RestartStalled = 8 // clients re-request streams the double failure killed
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(60); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)

	c.CrashCub(3)
	c.RunFor(5 * time.Second)
	c.CrashCub(4)
	c.RunFor(10 * time.Second)

	c.RestartCub(3)
	c.RunFor(5 * time.Second)
	c.RestartCub(4)
	c.RunFor(30 * time.Second)

	for _, i := range []int{3, 4} {
		st := c.Cubs[i].Stats()
		if st.Rejoins != 1 {
			t.Errorf("cub %d recorded %d rejoins, want 1", i, st.Rejoins)
		}
		if ml := c.MirrorLoadFor(i); ml != 0 {
			t.Errorf("mirror load for cub %d did not drain: %d", i, ml)
		}
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts through double restart: %d", v)
	}
	if cs := c.TotalCubStats(); cs.Conflicts != 0 {
		t.Errorf("state conflicts: %d", cs.Conflicts)
	}
	// Service must have recovered: fresh deliveries keep arriving.
	okBefore, _, _ := c.ViewerTotals()
	c.RunFor(15 * time.Second)
	okAfter, _, _ := c.ViewerTotals()
	if okAfter-okBefore < 200 {
		t.Errorf("service did not recover: %d blocks in 15s", okAfter-okBefore)
	}
}

// TestPartitionHealing probes behaviour outside the paper's fail-stop
// model: a clean partition between two halves of the ring for a while,
// then healing. Both sides declare boundary cubs dead and generate
// mirror chains for peers that are actually alive — viewers may receive
// blocks twice (primary plus pieces), which is wasteful but harmless.
// After healing, heartbeats revive the peers and the system converges
// with no slot conflicts.
func TestPartitionHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection run")
	}
	o := DefaultOptions()
	o.ClientDropProb = 0
	o.RestartStalled = 8 // real clients re-request after a dead stream
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(100); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	sideA := func(n msg.NodeID) bool { return n >= 0 && int(n) < o.Cubs/2 }
	partitioned := true
	c.Net.DropControl = func(from, to msg.NodeID, m msg.Message) bool {
		if !partitioned || from == msg.Controller || to == msg.Controller {
			return false
		}
		return sideA(from) != sideA(to)
	}
	c.RunFor(20 * time.Second)
	partitioned = false
	c.RunFor(40 * time.Second)

	ok, lost, _ := c.ViewerTotals()
	cs := c.TotalCubStats()
	t.Logf("ok=%d lost=%d mirrorsMade=%d deadDeclared=%d conflicts=%d",
		ok, lost, cs.MirrorsMade, cs.DeadDeclared, cs.Conflicts)
	if cs.DeadDeclared == 0 {
		t.Error("partition never detected")
	}
	// Split brain violates the fail-stop assumption the protocol is
	// built on (§2.3): each side may proxy-insert into slots the other
	// side still owns. Conflicts are therefore possible DURING the
	// partition — what matters is that they are few (bounded by the
	// start rate across the boundary) and stop once the ring heals.
	atHeal := c.InvariantViolations()
	if atHeal > 25 {
		t.Errorf("unbounded split-brain conflicts: %d", atHeal)
	}
	// A ring-wide partition is outside the fail-stop model: streams whose
	// gossip crossed the boundary die and their clients re-request. The
	// losses must stay bounded by the partition window plus re-request
	// churn, not run away.
	if lost > ok {
		t.Errorf("runaway loss across partition: %d of %d", lost, ok+lost)
	}
	// After healing and client re-requests, service is clean again.
	c.RunFor(60 * time.Second) // allow stalled clients to restart
	base := c.Loss.Total()
	baseOK, _, _ := c.ViewerTotals()
	c.RunFor(30 * time.Second)
	newOK, _, _ := c.ViewerTotals()
	if grew := c.Loss.Total() - base; grew > 5 {
		t.Errorf("losses continued after healing: %d new", grew)
	}
	if newOK-baseOK < 2000 {
		t.Errorf("service did not resume: %d blocks in 30s", newOK-baseOK)
	}
	if c.InvariantViolations() > atHeal {
		t.Errorf("conflicts kept occurring after healing: %d -> %d", atHeal, c.InvariantViolations())
	}
}
