package tiger

import (
	"testing"
	"time"

	"tiger/internal/chaos"
	"tiger/internal/core"
	"tiger/internal/msg"
)

// grayOptions is the gray-failure test shape: big enough that one
// fail-slow disk saturates and streams genuinely lose blocks, small
// enough to sweep quickly.
func grayOptions() Options {
	o := DefaultOptions()
	o.Cubs = 6
	o.DisksPerCub = 2
	o.Decluster = 2
	o.NumFiles = 8
	o.FileBlocks = 600
	o.ClientDropProb = 0
	return o
}

// grayVictim returns the disk tigerbench's grayfail sweep degrades:
// first disk of the last cub.
func grayVictim(c *Cluster) int {
	return c.Cfg.Layout.DisksOfCub(msg.NodeID(len(c.Cubs) - 1))[0]
}

// Quarantine must compose with the PR 1 restart path: a cub that
// crashes and rejoins while holding a quarantined drive must come back
// with the quarantine intact — the rejoin handshake must not resurrect
// the sick drive or double-retire it.
func TestQuarantineSurvivesRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	c, err := New(grayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(40); err != nil {
		t.Fatal(err)
	}
	c.RunFor(15 * time.Second)
	h := NewChaosHarness(c)
	defer h.Close()

	victim := grayVictim(c)
	victimCub := int(c.Cfg.Layout.CubOfDisk(victim))
	c.FailDiskSlow(victim, 20)
	c.RunFor(15 * time.Second)
	if st := c.DiskHealth(victim); st != core.DiskQuarantined {
		t.Fatalf("disk %d %s, want quarantined", victim, st)
	}

	cs0 := c.TotalCubStats()
	c.CrashCub(victimCub)
	c.RunFor(5 * time.Second)
	c.RestartCub(victimCub)
	c.RunFor(30 * time.Second)

	cs1 := c.TotalCubStats()
	if n := cs1.Rejoins - cs0.Rejoins; n != 1 {
		t.Fatalf("%d rejoins across restart", n)
	}
	// The fault is still live, so probes keep failing: the quarantine
	// must hold across the crash–rejoin cycle.
	if st := c.DiskHealth(victim); st != core.DiskQuarantined {
		t.Fatalf("disk %d %s after rejoin, want still quarantined", victim, st)
	}
	if cc := c.Cubs[victimCub]; cc.FailedDisks() != 1 || cc.QuarantinedDisks() != 1 {
		t.Fatalf("failed=%d quarantined=%d after rejoin", cc.FailedDisks(), cc.QuarantinedDisks())
	}
	if h.DoubleServes() != 0 {
		t.Fatalf("%d double serves across rejoin", h.DoubleServes())
	}
	if cs1.Conflicts != cs0.Conflicts {
		t.Fatalf("state conflicts rose %d → %d", cs0.Conflicts, cs1.Conflicts)
	}
}

// Quarantine must compose with the PR 4 split-brain refutation: when
// the cub holding a quarantined drive is partitioned, its peers declare
// it dead and cover everything it owns; on heal, refutation must hand
// primaries back without double-retiring the already-quarantined drive
// or double-serving any block.
func TestQuarantinedDiskOnPartitionedCub(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	c, err := New(grayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(40); err != nil {
		t.Fatal(err)
	}
	c.RunFor(15 * time.Second)

	victim := grayVictim(c)
	victimCub := int(c.Cfg.Layout.CubOfDisk(victim))
	c.FailDiskSlow(victim, 20)
	c.RunFor(15 * time.Second)
	if st := c.DiskHealth(victim); st != core.DiskQuarantined {
		t.Fatalf("disk %d %s, want quarantined", victim, st)
	}

	sc := chaos.Scenario{
		Name:     "quarantine-partition",
		Seed:     7,
		Duration: 60 * time.Second,
		Steps: chaos.Concat(
			chaos.At(2*time.Second, chaos.IsolateCub(victimCub)),
			chaos.At(10*time.Second, chaos.RejoinCub(victimCub)),
		),
	}
	res, err := c.RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Ok() {
		t.Fatalf("invariant violations: %v", res.Report.Violations)
	}
	if st := c.DiskHealth(victim); st != core.DiskQuarantined {
		t.Fatalf("disk %d %s after partition cycle, want still quarantined", victim, st)
	}
	if res.DeathsRefuted == 0 {
		t.Fatal("no refutation: partition never took effect")
	}
}

// Short-mode smoke: the chaos engine's gray steps drive a slow-then-
// healed disk end to end under the full invariant set. Settle is
// explicit because un-quarantine alone takes ProbeInterval×ProbeGood
// after the heal, then the residual mirror load must drain.
func TestGrayFailChaosSmoke(t *testing.T) {
	o := grayOptions()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(24); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	sc := chaos.Scenario{
		Name:     "grayfail-smoke",
		Seed:     5,
		Duration: 75 * time.Second,
		Settle:   40 * time.Second,
		Steps: chaos.Concat(
			chaos.At(2*time.Second, chaos.DiskSlow(1, 0, 8)),
			chaos.At(12*time.Second, chaos.DiskHeal(1, 0)),
		),
	}
	res, err := c.RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Ok() {
		t.Fatalf("invariant violations: %v", res.Report.Violations)
	}
	if !res.Report.QuietAtEnd {
		t.Fatal("gray fault left outstanding")
	}
}
