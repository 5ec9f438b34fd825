package core

import (
	"testing"
	"time"

	"tiger/internal/disk"
	"tiger/internal/msg"
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
