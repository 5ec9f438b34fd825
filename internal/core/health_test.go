package core

import (
	"strconv"
	"testing"
	"time"

	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/obs"
)

// healthRig builds a rig and starts n viewers spread over the files, so
// every disk — including the victim — sees steady read traffic.
func healthRig(t *testing.T, mutate func(*Config), n int) *rig {
	o := defaultRigOptions()
	o.mutate = mutate
	r := newRig(t, o)
	for v := 0; v < n; v++ {
		r.play(msg.ViewerID(v+1), msg.FileID(v%o.files), 0)
		r.run(700 * time.Millisecond)
	}
	r.run(5 * time.Second)
	return r
}

func (r *rig) victimDisk() *disk.Disk { return r.cubs[0].Disk(0) }

// A drive serving every read far too slowly must walk the full state
// machine — suspected, hedged, quarantined through the fail-stop retire
// path — while its streams keep flowing off the declustered mirrors.
func TestFailSlowDiskQuarantined(t *testing.T) {
	r := healthRig(t, nil, 6)
	cub := r.cubs[0]
	if st := cub.DiskHealth(0); st != DiskHealthy {
		t.Fatalf("disk 0 %s before any fault", st)
	}

	r.victimDisk().SetFaults(disk.Faults{SlowFactor: 20})
	r.run(30 * time.Second)

	if st := cub.DiskHealth(0); st != DiskQuarantined {
		t.Fatalf("disk 0 %s after 30s at 20x, want quarantined", st)
	}
	s := cub.Stats()
	if s.DiskSuspects < 1 || s.DiskQuarantines != 1 {
		t.Fatalf("suspects=%d quarantines=%d", s.DiskSuspects, s.DiskQuarantines)
	}
	if s.HedgesIssued == 0 {
		t.Fatal("no hedges issued while suspected")
	}
	if cub.FailedDisks() != 1 || cub.QuarantinedDisks() != 1 {
		t.Fatalf("failed=%d quarantined=%d, want 1/1", cub.FailedDisks(), cub.QuarantinedDisks())
	}
	if ml := r.mirrorLoadFor(0); ml == 0 {
		t.Fatal("no mirror load covering the quarantined drive")
	}

	// Streams must keep flowing off the mirrors after the retire.
	before := r.got(1)
	r.run(10 * time.Second)
	if after := r.got(1); after <= before {
		t.Fatalf("viewer stalled after quarantine: %d then %d blocks", before, after)
	}
	if tot := r.totals(); tot.Conflicts != 0 {
		t.Fatalf("%d state conflicts", tot.Conflicts)
	}
}

// A wedged drive completes nothing, so deadline misses are the only
// signal; they alone must drive the machine to quarantine.
func TestStuckDiskQuarantinedByMisses(t *testing.T) {
	r := healthRig(t, nil, 6)
	r.victimDisk().SetFaults(disk.Faults{Stuck: true})
	r.run(40 * time.Second)
	cub := r.cubs[0]
	if st := cub.DiskHealth(0); st != DiskQuarantined {
		t.Fatalf("stuck disk 0 %s after 40s, want quarantined", st)
	}
	if s := cub.Stats(); s.DiskQuarantines != 1 {
		t.Fatalf("quarantines=%d", s.DiskQuarantines)
	}
}

// Once the fault clears, probeGood consecutive in-budget probes, one
// every probeInterval, must return the drive to service at an
// unchanged epoch.
func TestProbesUnquarantineHealedDisk(t *testing.T) {
	r := healthRig(t, nil, 6)
	cub := r.cubs[0]
	epoch := cub.Epoch()

	r.victimDisk().SetFaults(disk.Faults{SlowFactor: 20})
	r.run(30 * time.Second)
	if st := cub.DiskHealth(0); st != DiskQuarantined {
		t.Fatalf("disk 0 %s, want quarantined", st)
	}

	r.victimDisk().SetFaults(disk.Faults{})
	r.run(probeGood*probeInterval + 5*time.Second)
	if st := cub.DiskHealth(0); st != DiskHealthy {
		t.Fatalf("disk 0 %s after heal + probes, want healthy", st)
	}
	s := cub.Stats()
	if s.DiskUnquarantines != 1 {
		t.Fatalf("unquarantines=%d", s.DiskUnquarantines)
	}
	if cub.FailedDisks() != 0 || cub.QuarantinedDisks() != 0 {
		t.Fatalf("failed=%d quarantined=%d after un-quarantine", cub.FailedDisks(), cub.QuarantinedDisks())
	}
	if cub.Epoch() != epoch {
		t.Fatalf("epoch moved %d → %d across quarantine cycle", epoch, cub.Epoch())
	}
}

// A brief latency wobble must not quarantine: the drive is suspected at
// most, then recovers once clean reads rebuild the slack estimate.
func TestTransientWobbleRecoversWithoutQuarantine(t *testing.T) {
	r := healthRig(t, nil, 6)
	cub := r.cubs[0]
	r.victimDisk().SetFaults(disk.Faults{SlowFactor: 6})
	r.run(3 * time.Second)
	r.victimDisk().SetFaults(disk.Faults{})
	r.run(40 * time.Second)
	if st := cub.DiskHealth(0); st != DiskHealthy {
		t.Fatalf("disk 0 %s after wobble cleared, want healthy", st)
	}
	if s := cub.Stats(); s.DiskQuarantines != 0 {
		t.Fatalf("wobble caused %d quarantines", s.DiskQuarantines)
	}
}

// edgeCounts are the monitor's per-edge counters: healthy→suspected,
// suspected→healthy, suspected→quarantined, quarantined→healthy.
type edgeCounts [4]int64

func edgesOf(c *Cub) edgeCounts {
	s := c.Stats()
	return edgeCounts{s.DiskSuspects, s.DiskRecoveries, s.DiskQuarantines, s.DiskUnquarantines}
}

// checkDrive asserts drive 0 of c reads as state want everywhere: the
// monitor, the out-of-service counts, the health gauge and the edge
// counters.
func checkDrive(t *testing.T, c *Cub, want DiskHealthState, edges edgeCounts) {
	t.Helper()
	if st := c.DiskHealth(0); st != want {
		t.Fatalf("drive 0 %s, want %s", st, want)
	}
	failed, quarantined := 0, 0
	if want >= DiskQuarantined {
		failed = 1
	}
	if want == DiskQuarantined {
		quarantined = 1
	}
	if c.FailedDisks() != failed || c.QuarantinedDisks() != quarantined {
		t.Fatalf("%s: FailedDisks %d, QuarantinedDisks %d, want %d, %d",
			want, c.FailedDisks(), c.QuarantinedDisks(), failed, quarantined)
	}
	key := `tiger_disk_health_state{cub="` + strconv.Itoa(int(c.id)) + `",disk="` + strconv.Itoa(c.drives[0].native) + `"}`
	gauge := -1.0
	c.Snapshot().Collect(func(d *obs.Desc, labels string, v float64) {
		if d.Name+"{"+labels+"}" == key {
			gauge = v
		}
	})
	if gauge != float64(want) {
		t.Fatalf("%s = %v, want %d (%s)", key, gauge, want, want)
	}
	if got := edgesOf(c); got != edges {
		t.Fatalf("%s: edge counters %v, want %v", want, got, edges)
	}
}

// misses feeds drive 0 of c n deadline misses: the stuck-drive signal.
func misses(c *Cub, n int) {
	for i := 0; i < n; i++ {
		c.noteDeadlineMiss(&c.drives[0])
	}
}

// cleanRead feeds drive 0 of c one read that completed now, ten
// worst-case service times ahead of its deadline.
func cleanRead(c *Cub) {
	now := c.clk.Now()
	due := now.Add(10 * c.cfg.DiskParams.WorstServiceTime(c.cfg.BlockSize, disk.Outer))
	c.noteRead(&c.drives[0], now, due, now, c.cfg.BlockSize, disk.Outer, true)
}

// TestDriveStateTransitions walks every edge of the per-drive state
// machine (health.go) through the monitor's own entry points, FailDisk
// and Restart, and checks that each state reads the same on every
// surface.
func TestDriveStateTransitions(t *testing.T) {
	// Each state's way in from a fresh drive, with the edge counters it
	// leaves behind.
	enter := []struct {
		state DiskHealthState
		in    func(*Cub)
		edges edgeCounts
	}{
		{DiskHealthy, func(*Cub) {}, edgeCounts{}},
		{DiskSuspected, func(c *Cub) { misses(c, suspectAfter) }, edgeCounts{1, 0, 0, 0}},
		{DiskQuarantined, func(c *Cub) { misses(c, quarantineAfter) }, edgeCounts{1, 0, 1, 0}},
		{DiskFailed, func(c *Cub) { c.FailDisk(0) }, edgeCounts{}},
	}

	t.Run("monitor", func(t *testing.T) {
		r := newRig(t, defaultRigOptions())
		c := r.cubs[0]
		checkDrive(t, c, DiskHealthy, edgeCounts{})
		misses(c, suspectAfter-1)
		checkDrive(t, c, DiskHealthy, edgeCounts{})
		misses(c, 1)
		checkDrive(t, c, DiskSuspected, edgeCounts{1, 0, 0, 0})
		cleanRead(c)
		checkDrive(t, c, DiskHealthy, edgeCounts{1, 1, 0, 0})
		misses(c, quarantineAfter-1)
		checkDrive(t, c, DiskSuspected, edgeCounts{2, 1, 0, 0})
		misses(c, 1)
		checkDrive(t, c, DiskQuarantined, edgeCounts{2, 1, 1, 0})
		// Out of service, the drive takes no samples: only probes judge it.
		misses(c, quarantineAfter)
		cleanRead(c)
		checkDrive(t, c, DiskQuarantined, edgeCounts{2, 1, 1, 0})
		r.run(probeGood*probeInterval + time.Second)
		checkDrive(t, c, DiskHealthy, edgeCounts{2, 1, 1, 1})
		if h := &c.drives[0].health; h.seeded || h.badStreak != 0 || h.probeGood != 0 {
			t.Fatalf("estimators not reset on leaving quarantine: %+v", *h)
		}
		if p := c.Stats().DiskProbes; p != probeGood {
			t.Fatalf("%d probes, want %d", p, probeGood)
		}
		r.run(3 * probeInterval)
		if p := c.Stats().DiskProbes; p != probeGood {
			t.Fatalf("probing went on after the quarantine cleared: %d probes", p)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		o := defaultRigOptions()
		o.mutate = func(cfg *Config) { cfg.Health.Disable = true }
		c := newRig(t, o).cubs[0]
		misses(c, quarantineAfter)
		checkDrive(t, c, DiskHealthy, edgeCounts{})
		c.FailDisk(0)
		checkDrive(t, c, DiskFailed, edgeCounts{})
	})

	for _, from := range enter {
		t.Run(from.state.String()+"_to_failed", func(t *testing.T) {
			r := newRig(t, defaultRigOptions())
			c := r.cubs[0]
			from.in(c)
			checkDrive(t, c, from.state, from.edges)
			if from.state == DiskQuarantined {
				// Catch a probe read in flight, one short of clearing the
				// quarantine.
				r.run(probeInterval)
				if c.Stats().DiskProbes != 1 || c.Disk(0).QueueLen() != 1 {
					t.Fatalf("%d probes, %d reads queued: want one probe in flight",
						c.Stats().DiskProbes, c.Disk(0).QueueLen())
				}
				c.drives[0].health.probeGood = probeGood - 1
			}
			probes := c.Stats().DiskProbes
			c.FailDisk(0)
			checkDrive(t, c, DiskFailed, from.edges)
			// The probe that was out completes, and no other is issued.
			r.run(probeGood*probeInterval + time.Second)
			checkDrive(t, c, DiskFailed, from.edges)
			if p := c.Stats().DiskProbes; p != probes {
				t.Fatalf("a failed drive was probed: %d probes, had %d", p, probes)
			}
		})
	}

	for _, from := range enter {
		t.Run("restart_"+from.state.String(), func(t *testing.T) {
			r := newRig(t, defaultRigOptions())
			c := r.cubs[0]
			from.in(c)
			c.Restart()
			want := DiskHealthy
			if from.state == DiskFailed {
				want = DiskFailed
			}
			checkDrive(t, c, want, from.edges)
			probes := c.Stats().DiskProbes
			r.run(probeGood*probeInterval + time.Second)
			checkDrive(t, c, want, from.edges)
			if p := c.Stats().DiskProbes; p != probes {
				t.Fatalf("probing went on across the restart: %d probes, had %d", p, probes)
			}
		})
	}
}
