package tiger

import (
	"testing"
	"time"
)

// TestSlotOracleIgnoresDeadCub is the regression for the oracle's false
// conflicts after a crash. A crashed machine's timers keep running in
// the simulator until RestartCub wipes it, so it goes on "inserting" the
// starts it had queued. Nothing it does reaches anyone, but an oracle
// that hears the hook overwrites the slot's real occupant and then flags
// that slot once per cycle for the rest of the run.
func TestSlotOracleIgnoresDeadCub(t *testing.T) {
	seeds := []int64{2, 3, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		// Three runs the restart race of
		// TestSlotOracleHearsRestartConflict leaves alone (EXPERIMENTS.md,
		// PR 24 scan: at this offset seeds 1 and 4 meet it).
		c := churnCrashRestart(t, seed, 270*time.Second)
		if n := c.TotalCubStats().Conflicts; n != 0 {
			t.Fatalf("seed %d: the cubs counted %d conflicting states: this run meets the restart race now, pin a clean one", seed, n)
		}
		if v := c.InvariantViolations(); v != 0 {
			t.Errorf("seed %d: oracle flagged %d slot conflicts around a crash and restart", seed, v)
		}
	}
}

// TestSlotOracleHearsRestartConflict pins the other side: ignoring the
// dead cub must not deafen the oracle to live ones. A crash 90 s after
// the ramp at seed 3 (and at seed 4; 270 s at seeds 1 and 4 too) meets a
// genuine and still unfixed race (ROADMAP item 2): seconds after the
// restart the covering successor and the restarted cub insert different
// viewers into one slot at the same instant, the cubs count Conflicts,
// and half as many blocks again are lost. The oracle has to report it.
// Which runs meet the race moves with every change to same-instant
// event order; the witness is re-pinned from a scan when it does.
func TestSlotOracleHearsRestartConflict(t *testing.T) {
	c := churnCrashRestart(t, 3, 90*time.Second)
	conflicts := c.TotalCubStats().Conflicts
	if conflicts == 0 {
		t.Skip("the restart double insertion no longer shows at this seed: pin another witness, or delete this test along with the ROADMAP note")
	}
	if v := c.InvariantViolations(); v == 0 {
		t.Errorf("the cubs counted %d conflicting states and the oracle flagged no slot", conflicts)
	}
}

// churnCrashRestart runs 90 % load of one-minute files replayed at EOF
// (every EOF is a stop and a start), crashes cub 5 the given time after
// the ramp, restarts it two minutes later and runs five minutes more.
func churnCrashRestart(t *testing.T, seed int64, crashAfter time.Duration) *Cluster {
	t.Helper()
	o := DefaultOptions()
	o.Seed = seed
	o.FileBlocks = 60
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity() * 9 / 10); err != nil {
		t.Fatal(err)
	}
	c.RunFor(crashAfter)
	c.CrashCub(5)
	c.RunFor(120 * time.Second)
	c.RestartCub(5)
	c.RunFor(300 * time.Second)
	return c
}
