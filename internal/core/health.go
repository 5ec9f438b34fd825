package core

import (
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file implements the per-disk gray-failure monitor (DESIGN §12).
// Tiger's fail-stop machinery — the deadman detector, mirror takeover,
// restart rejoin — cannot see a drive that still answers, only slowly or
// unreliably; yet such a drive silently drops every stream it serves,
// because loss in Tiger is driven entirely by *late* reads. The monitor
// watches every local read completion and keeps one state per drive,
// which is also the only record of whether the drive is in service:
//
//	healthy ──(slack EWMA < suspectSlack, or suspectAfter consecutive
//	           bad events)──▶ suspected
//	suspected ──(clean streak and slack EWMA > healthySlack)──▶ healthy
//	suspected ──(slack EWMA < 0, or quarantineAfter consecutive bad
//	           events)──▶ quarantined
//	quarantined ──(probeGood consecutive in-budget probe reads)──▶ healthy
//	any state ──(FailDisk)──▶ failed
//	any state but failed ──(Restart)──▶ healthy
//
// Quarantined and failed drives are out of service. Every edge but
// Restart's goes through transition, which bumps the edge's counter and
// runs the new state's entry action; Restart is a reboot, not a verdict,
// and resets the monitor without counting.
//
// A *bad event* is a read that completed late or failed, or a scheduled
// send that fired with its read still outstanding — the deadline-miss
// path matters because a stuck drive produces no completions at all, so
// misses are its only signal.
//
// While a drive is suspected, reads whose predicted completion would
// miss the block deadline are hedged: the declustered mirror chain is
// launched in parallel with the local read, first copy wins at service
// time and the loser is cancelled. The capacity plan already reserves
// one secondary piece budget per stream slot on every disk
// (disk.PlanCapacity), which is exactly what makes the extra mirror load
// safe at the paper's 10.75 streams/disk operating point.
//
// Quarantine reuses the fail-stop retire path (retireDisk): the drive is
// declared dead, its entries convert to mirror chains, and incoming
// states route straight to mirrors. Unlike FailDisk it is not
// permanent: the drive is probed every probeInterval with one
// block-sized read, and probeGood consecutive probes inside the budget
// clear the quarantine at an unchanged epoch — no restart, no rejoin
// handshake, the cub never stopped being alive.

// The monitor's constants.
const (
	// slackAlpha is the EWMA weight of the newest completion sample, for
	// both the normalized-slack and the issue-to-completion latency
	// estimators.
	slackAlpha = 0.2

	// suspectSlack and healthySlack are normalized-slack EWMA thresholds
	// in units of the zoned worst-case service time: below suspectSlack a
	// healthy disk becomes suspected; back above healthySlack (with a
	// clean streak) a suspected disk recovers. A healthy fully loaded
	// disk sits far above both (slack ≈ ReadAhead / worst-case service),
	// so the hysteresis band only engages on genuine degradation.
	suspectSlack = 3.0
	healthySlack = 6.0

	// suspectAfter and quarantineAfter are the consecutive bad-event
	// streaks (late completion, failed read, or deadline miss) that force
	// healthy → suspected and suspected → quarantined regardless of the
	// EWMA — the only signal path a stuck drive ever produces.
	suspectAfter    = 3
	quarantineAfter = 8

	// probeInterval is the cadence of single-block probe reads against a
	// quarantined drive; probeGood consecutive probes completing within
	// probeBudget un-quarantine it, at an unchanged epoch.
	probeInterval = 5 * time.Second
	probeGood     = 3
)

// DiskHealthState is the monitor's verdict on one drive. The states from
// DiskQuarantined on are out of service.
type DiskHealthState int32

const (
	DiskHealthy     DiskHealthState = iota
	DiskSuspected                   // reads are hedged
	DiskQuarantined                 // retired and probed
	DiskFailed                      // retired by FailDisk, never probed
)

var diskStateNames = [...]string{"healthy", "suspected", "quarantined", "failed"}

func (s DiskHealthState) String() string { return diskStateNames[s] }

// diskHealth is the monitor state for one local drive.
type diskHealth struct {
	state DiskHealthState

	// slackEwma tracks (due − completion) of recent reads, normalized by
	// the zoned worst-case service time; lat tracks raw issue-to-
	// completion latency for the hedge predictor. seeded is false until
	// the first sample (and again after a quarantine, so stale pre-fault
	// estimates cannot linger).
	slackEwma float64
	lat       time.Duration
	seeded    bool

	badStreak  int
	probeGood  int
	probeTimer clock.Timer
}

// out reports whether the drive is out of service: quarantined or failed.
func (dr *drive) out() bool { return dr.health.state >= DiskQuarantined }

// DiskHealth reports the monitor's state for the cub's idx-th drive.
func (c *Cub) DiskHealth(idx int) DiskHealthState { return c.drives[idx].health.state }

// noteRead feeds one local read completion to the monitor. issued/due/
// done are the read's issue time, service deadline, and completion time;
// ok is false for a (transiently) failed read. A disabled monitor takes
// no samples, so its drives never leave healthy but by FailDisk; an
// out-of-service drive is judged by its probes alone.
func (c *Cub) noteRead(dr *drive, issued, due, done sim.Time, size int64, zone disk.Zone, ok bool) {
	if c.cfg.Health.Disable || dr.out() {
		return
	}
	h := &dr.health
	lat := done.Sub(issued)
	worst := c.cfg.DiskParams.WorstServiceTime(size, zone)
	slack := float64(due.Sub(done)) / float64(worst)
	if !h.seeded {
		h.lat = lat
		h.slackEwma = slack
		h.seeded = true
	} else {
		h.lat = time.Duration(float64(h.lat)*(1-slackAlpha) + float64(lat)*slackAlpha)
		h.slackEwma = h.slackEwma*(1-slackAlpha) + slack*slackAlpha
	}
	if !ok || done > due {
		h.badStreak++
	} else {
		h.badStreak = 0
	}
	c.evalHealth(dr)
}

// noteDeadlineMiss records a send that fired with its read outstanding
// on drive dr. For a stuck drive these misses are the only signal the
// monitor ever receives, so they must advance the state machine alone.
func (c *Cub) noteDeadlineMiss(dr *drive) {
	if c.cfg.Health.Disable || dr.out() {
		return
	}
	dr.health.badStreak++
	c.evalHealth(dr)
}

// evalHealth holds the monitor's guards: after the estimators moved, it
// picks the edge they call for, if any.
func (c *Cub) evalHealth(dr *drive) {
	h := &dr.health
	switch h.state {
	case DiskHealthy:
		if h.badStreak >= suspectAfter || (h.seeded && h.slackEwma < suspectSlack) {
			c.transition(dr, DiskSuspected)
		}
	case DiskSuspected:
		switch {
		case h.badStreak >= quarantineAfter || (h.seeded && h.slackEwma < 0):
			c.transition(dr, DiskQuarantined)
		case h.badStreak == 0 && h.seeded && h.slackEwma > healthySlack:
			c.transition(dr, DiskHealthy)
		}
	}
}

// transition moves drive dr to state to: the edge's counter, then the
// state's entry action. It is the one place a drive changes state but
// for Restart's reset.
func (c *Cub) transition(dr *drive, to DiskHealthState) {
	h := &dr.health
	from := h.state
	h.state = to
	switch to {
	case DiskHealthy:
		if from == DiskQuarantined {
			c.stats.DiskUnquarantines++
		} else {
			c.stats.DiskRecoveries++
		}
		// Out of quarantine, the drive is back in service at an
		// unchanged epoch: the cub never died, so there is nothing to
		// fence — new viewer states simply start landing on it again,
		// and the residual mirror load drains as its entries fall due.
		// Its estimators were reset on the way in.
		h.probeTimer.Stop()
		h.probeGood = 0
	case DiskSuspected:
		c.stats.DiskSuspects++
		// The backlog that triggered suspicion is exactly the set of
		// reads that will miss: hedge every outstanding not-yet-due
		// primary on the drive now rather than re-judging each.
		c.hedgeOutstanding(dr)
	case DiskQuarantined:
		c.stats.DiskQuarantines++
		// Judged by its probes alone from here: the estimators restart
		// from nothing when the drive returns.
		*h = diskHealth{state: to}
		if c.sink.Wants(trace.Quarantine) {
			// Slot carries the native disk number.
			c.sink.Emit(trace.Event{At: c.clk.Now(), Node: c.id, Kind: trace.Quarantine, Slot: int32(dr.native)})
		}
		c.retireDisk(dr) // only a suspected drive is quarantined
		c.armProbe(dr)
	case DiskFailed:
		// A permanent failure overrides any quarantine: no more probes.
		h.probeTimer.Stop()
		if from < DiskQuarantined {
			c.retireDisk(dr)
		}
	}
}

// hedgeOutstanding launches mirror chains for every unhedged, not-ready,
// future-due primary entry on drive dr.
func (c *Cub) hedgeOutstanding(dr *drive) {
	now := int64(c.clk.Now())
	keys := c.view.sortedKeys(func(e *entry) bool {
		return e.key.part == -1 && e.disk == dr.native && !e.ready && !e.hedged && e.vs.Due > now
	})
	for _, k := range keys {
		c.hedgeEntry(c.view.get(k))
	}
	if len(keys) > 0 {
		c.flushForwards()
	}
}

// shouldHedge is the per-read hedge decision (§12's rule): on a
// suspected drive, hedge when the predicted completion — now, plus the
// latency EWMA, plus one worst-case service time for the read itself —
// would miss the due time, or when the drive is mid-streak (its
// estimators cannot be trusted while every read is failing).
func (c *Cub) shouldHedge(dr *drive, size int64, zone disk.Zone, due sim.Time) bool {
	h := &dr.health
	if h.state != DiskSuspected {
		return false
	}
	if h.badStreak > 0 {
		return true
	}
	if !h.seeded {
		return false
	}
	predicted := c.clk.Now().Add(h.lat).Add(c.cfg.DiskParams.WorstServiceTime(size, zone))
	return predicted > due
}

// hedgeEntry launches the declustered mirror chain for a primary entry
// whose local read is in doubt. The local read keeps running: service()
// sends whichever copy is ready and cancels the loser. The primary block
// and its mirror pieces carry distinct (mirror, part) identities, so the
// double-service oracle sees the hedge as the redundancy it is, and the
// verification client assembles whichever copies arrive.
func (c *Cub) hedgeEntry(e *entry) {
	if e.hedged || e.vs.Mirror || e.vs.Due <= int64(c.clk.Now()) {
		return
	}
	e.hedged = true
	c.stats.HedgesIssued++
	c.step(trace.Hedge, &e.vs, int32(e.disk))
	// The mirror route resolves under the entry's generation, which
	// numbers the drive differently from the native key e.disk carries.
	if cfg := c.cfgOf(e.vs.Slot); cfg != nil {
		c.createMirrors(e.vs, c.genLocalDisk(cfg.Layout, e.disk))
	}
}

func (c *Cub) armProbe(dr *drive) {
	dr.health.probeTimer = c.clk.After(probeInterval, func() { c.probeDisk(dr) })
}

// probeBudget is the pass/fail bound for one probe read: 1.5× the
// worst-case service time of a full primary block. Generous enough that
// queueing the probe behind a residual read cannot fail a recovered
// drive, tight enough that a still-degraded one cannot pass.
func probeBudget(p disk.Params, blockSize int64) time.Duration {
	return time.Duration(1.5 * float64(p.WorstServiceTime(blockSize, disk.Outer)))
}

// probeDisk issues one block-sized read against a quarantined drive and
// re-arms the next probe; every way out of quarantine stops the timer.
// The probe bypasses the block buffer pool — it carries no payload
// anywhere — and a wedged drive simply never answers, which resets
// nothing: the quarantine holds until real completions return.
func (c *Cub) probeDisk(dr *drive) {
	h := &dr.health
	start := c.clk.Now()
	budget := probeBudget(c.cfg.DiskParams, c.cfg.BlockSize)
	c.cpu.ChargeDiskOp()
	c.stats.DiskProbes++
	dr.dk.Read(c.cfg.BlockSize, disk.Outer, start.Add(budget), func(done sim.Time, ok bool) {
		if h.state != DiskQuarantined {
			return // failed or restarted while the probe was out
		}
		if ok && done.Sub(start) <= budget {
			h.probeGood++
			if h.probeGood >= probeGood {
				c.transition(dr, DiskHealthy)
			}
		} else {
			h.probeGood = 0
		}
	})
	c.armProbe(dr)
}
