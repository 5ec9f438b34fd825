package tiger

import (
	"reflect"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/msg"
)

// SlowDisk and HealDisk set the gray-fault state of cub's idx-th local
// drive the way a chaos disk-slow or disk-heal step does.
func (s chaosSystem) SlowDisk(cub, idx int, factor float64) {
	dk := s.Disk(cub, idx)
	f := dk.Faults()
	f.SlowFactor = factor
	dk.SetFaults(f)
}

func (s chaosSystem) HealDisk(cub, idx int) { s.Disk(cub, idx).SetFaults(disk.Faults{}) }

// Small, fast shape for the interplay tests: 6 cubs x 2 disks,
// decluster 2, short files so the old generation drains by EOF in
// seconds of virtual time.
func elasticTestOptions() Options {
	o := DefaultOptions()
	o.Cubs = 6
	o.DisksPerCub = 2
	o.Decluster = 2
	o.NumFiles = 6
	o.FileBlocks = 60
	o.ClientDropProb = 0
	o.AdmitLimit = 1.0
	o.RampSpacing = 20 * time.Millisecond
	return o
}

// waitPhase drives the cluster until the restripe reports phase, up to
// max virtual time. Returns whether the phase was reached.
func waitPhase(c *Cluster, phase core.RestripePhase, max time.Duration) bool {
	deadline := c.Now().Add(max)
	for c.RestripePhase() != phase {
		if c.Now() >= deadline {
			return false
		}
		c.RunFor(500 * time.Millisecond)
	}
	return true
}

// isolateCub cuts the cub off from every peer and the controller;
// healCub undoes it.
func isolateCub(c *Cluster, victim int) {
	a := msg.NodeID(victim)
	for i := range c.Cubs {
		if i != victim {
			c.Net.Cut(a, msg.NodeID(i))
		}
	}
	c.Net.Cut(a, msg.Controller)
}

func healCub(c *Cluster, victim int) {
	a := msg.NodeID(victim)
	for i := range c.Cubs {
		if i != victim {
			c.Net.Heal(a, msg.NodeID(i))
		}
	}
	c.Net.Heal(a, msg.Controller)
}

// assertElasticClean verifies the zero columns after a restripe run:
// no blocks lost from the harness baseline, no double services, no
// oracle violations, restripe done, capacity at the new shape.
func assertElasticClean(t *testing.T, c *Cluster, h *ChaosHarness, lost0 int64, wantCubs int) {
	t.Helper()
	if p := c.RestripePhase(); p != core.RestripeDone {
		t.Fatalf("restripe stuck in phase %q", p)
	}
	in := c.RestripeInfo()
	if in.Coord.Committed != in.Moves {
		t.Fatalf("committed %d of %d moves", in.Coord.Committed, in.Moves)
	}
	if got := c.Cfg.Layout.Cubs; got != wantCubs {
		t.Fatalf("layout has %d cubs, want %d", got, wantCubs)
	}
	_, lost, _ := c.ViewerTotals()
	if lost != lost0 {
		t.Fatalf("lost %d blocks during restripe", lost-lost0)
	}
	if d := h.DoubleServes(); d != 0 {
		t.Fatalf("%d double services", d)
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Fatalf("%d slot conflicts", v)
	}
}

// TestElasticInterplayCrashRejoin grows the array while a brand-new cub
// — the destination most moves race toward — crashes mid-copy and
// restarts. The coordinator must re-send its unacked moves after the
// rejoin, the cutover must still be gated on every commit, and no
// stream may lose a block.
func TestElasticInterplayCrashRejoin(t *testing.T) {
	o := elasticTestOptions()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	h := NewChaosHarness(c)
	defer h.Close()
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	_, lost0, _ := c.ViewerTotals()

	if err := c.StartRestripe(o.Cubs + 2); err != nil {
		t.Fatal(err)
	}
	newest := o.Cubs + 1
	c.RunFor(3 * time.Second)
	if p := c.RestripePhase(); p != core.RestripeCopy {
		t.Fatalf("expected copy phase, got %q", p)
	}
	c.CrashCub(newest)
	c.RunFor(5 * time.Second)
	c.RestartCub(newest)

	if !waitPhase(c, core.RestripeDone, 6*time.Minute) {
		t.Fatalf("restripe never finished (phase %q, %+v)", c.RestripePhase(), c.RestripeInfo().Coord)
	}
	c.RunFor(10 * time.Second)
	assertElasticClean(t, c, h, lost0, o.Cubs+2)
	if got := len(c.Cubs); got != o.Cubs+2 {
		t.Fatalf("cluster has %d cubs, want %d", got, o.Cubs+2)
	}
}

// TestRestripeKeepsFailureDomains grows a 14-cub array racked four to a
// domain to 16 cubs: the new shape keeps the racks, so a domain crash
// after the restripe still takes down its four members.
func TestRestripeKeepsFailureDomains(t *testing.T) {
	o := DefaultOptions()
	o.DomainSize = 4
	o.NumFiles, o.FileBlocks = 4, 60
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartRestripe(16); err != nil {
		t.Fatal(err)
	}
	if !waitPhase(c, core.RestripeDone, 6*time.Minute) {
		t.Fatalf("restripe never finished (phase %q)", c.RestripePhase())
	}
	members, err := c.CrashDomain(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(members, want) {
		t.Fatalf("domain 1 after the restripe crashed cubs %v, want %v", members, want)
	}
}

// TestElasticInterplayPartitionLinger shrinks the array and partitions
// the retiring cub during its linger window — the exact attack the
// linger exists for: the drained cub's peers declare it dead, it keeps
// heartbeating into a void, and on heal the refutation path must
// converge without resurrecting any old-generation state.
func TestElasticInterplayPartitionLinger(t *testing.T) {
	o := elasticTestOptions()
	o.RestripeLinger = 40 * time.Second
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	h := NewChaosHarness(c)
	defer h.Close()
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	_, lost0, _ := c.ViewerTotals()

	if err := c.StartRestripe(o.Cubs - 2); err != nil {
		t.Fatal(err)
	}
	if !waitPhase(c, core.RestripeLinger, 6*time.Minute) {
		t.Fatalf("never reached linger (phase %q)", c.RestripePhase())
	}
	retiring := o.Cubs - 1
	if n := c.Cubs[retiring].GenEntries(c.rs.oldGen); n != 0 {
		t.Fatalf("retiring cub still holds %d old-generation entries in linger", n)
	}
	isolateCub(c, retiring)
	c.RunFor(10 * time.Second)
	healCub(c, retiring)

	if !waitPhase(c, core.RestripeDone, 2*time.Minute) {
		t.Fatalf("restripe never finished (phase %q)", c.RestripePhase())
	}
	// Let refutation and mirror retirement settle, then demand full
	// convergence: nobody believes anybody dead.
	c.RunFor(30 * time.Second)
	assertElasticClean(t, c, h, lost0, o.Cubs-2)
	for i, cub := range c.Cubs {
		if n := cub.BelievedDead(); n != 0 {
			t.Fatalf("cub %d still believes %d peers dead", i, n)
		}
	}
}

// TestElasticInterplayQuarantine degrades a source drive mid-copy hard
// enough that the health monitor quarantines it. Move orders against
// the quarantined drive are nacked, and the coordinator must re-route
// them to another holder of a redundant copy — the restripe completes
// with zero loss anyway.
func TestElasticInterplayQuarantine(t *testing.T) {
	o := elasticTestOptions()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	h := NewChaosHarness(c)
	defer h.Close()
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	_, lost0, _ := c.ViewerTotals()

	if err := c.StartRestripe(o.Cubs + 2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	sys := chaosSystem{c}
	sys.SlowDisk(1, 0, 2.0)

	// Wait for the monitor to quarantine and the coordinator to start
	// re-routing (bounded: the copy phase itself is the ceiling).
	deadline := c.Now().Add(4 * time.Minute)
	for c.Controller.RestripeStats().Rerouted == 0 && c.Now() < deadline {
		if c.RestripePhase() != core.RestripeCopy {
			break
		}
		c.RunFor(time.Second)
	}
	rerouted := c.Controller.RestripeStats().Rerouted
	sys.HealDisk(1, 0)

	if !waitPhase(c, core.RestripeDone, 6*time.Minute) {
		t.Fatalf("restripe never finished (phase %q, %+v)", c.RestripePhase(), c.RestripeInfo().Coord)
	}
	c.RunFor(20 * time.Second)
	if rerouted == 0 {
		t.Fatalf("quarantined source drive produced no re-routed moves (nacks %d)", c.TotalCubStats().MovesNacked)
	}
	assertElasticClean(t, c, h, lost0, o.Cubs+2)
}
