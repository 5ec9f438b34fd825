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
// watches every local read completion and runs a three-state machine per
// drive:
//
//	healthy ──(slack EWMA < suspectSlack, or suspectAfter consecutive
//	           bad events)──▶ suspected
//	suspected ──(clean streak and slack EWMA > healthySlack)──▶ healthy
//	suspected ──(slack EWMA < 0, or quarantineAfter consecutive bad
//	           events)──▶ quarantined
//	quarantined ──(probeGood consecutive in-budget probe reads)──▶ healthy
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

// DiskHealthState is the monitor's verdict on one drive.
type DiskHealthState int32

const (
	DiskHealthy DiskHealthState = iota
	DiskSuspected
	DiskQuarantined
)

func (s DiskHealthState) String() string {
	switch s {
	case DiskHealthy:
		return "healthy"
	case DiskSuspected:
		return "suspected"
	default:
		return "quarantined"
	}
}

// diskHealth is the monitor state for one local drive.
type diskHealth struct {
	state DiskHealthState

	// slackEwma tracks (due − completion) of recent reads, normalized by
	// the zoned worst-case service time; lat tracks raw issue-to-
	// completion latency for the hedge predictor. seeded is false until
	// the first sample (and again after an un-quarantine, so stale
	// pre-fault estimates cannot linger).
	slackEwma float64
	lat       time.Duration
	seeded    bool

	badStreak  int
	probeGood  int
	probeTimer clock.Timer
}

// DiskHealth reports the monitor's state for the cub's idx-th drive.
func (c *Cub) DiskHealth(idx int) DiskHealthState { return c.drives[idx].health.state }

// noteRead feeds one local read completion to the monitor. issued/due/
// done are the read's issue time, service deadline, and completion time;
// ok is false for a (transiently) failed read.
func (c *Cub) noteRead(dr *drive, issued, due, done sim.Time, size int64, zone disk.Zone, ok bool) {
	if c.cfg.Health.Disable {
		return
	}
	h := &dr.health
	if h.state == DiskQuarantined {
		return // quarantined drives are judged by their probes alone
	}
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
	if c.cfg.Health.Disable || dr.health.state == DiskQuarantined {
		return
	}
	dr.health.badStreak++
	c.evalHealth(dr)
}

// evalHealth applies the state machine after the estimators moved.
func (c *Cub) evalHealth(dr *drive) {
	h := &dr.health
	switch h.state {
	case DiskHealthy:
		if h.badStreak >= suspectAfter || (h.seeded && h.slackEwma < suspectSlack) {
			c.suspectDisk(dr)
		}
	case DiskSuspected:
		switch {
		case h.badStreak >= quarantineAfter || (h.seeded && h.slackEwma < 0):
			c.quarantineDisk(dr)
		case h.badStreak == 0 && h.seeded && h.slackEwma > healthySlack:
			h.state = DiskHealthy
			c.stats.DiskRecoveries++
		}
	}
}

func (c *Cub) suspectDisk(dr *drive) {
	dr.health.state = DiskSuspected
	c.stats.DiskSuspects++
	// The backlog that triggered suspicion is exactly the set of reads
	// that will miss: hedge every outstanding not-yet-due primary on the
	// drive immediately rather than waiting for each to be re-judged.
	c.hedgeOutstanding(dr)
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
	if c.cfg.Health.Disable {
		return false
	}
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

// quarantineDisk retires a drive through the same conversion the
// fail-stop path uses, and starts the un-quarantine probe loop.
func (c *Cub) quarantineDisk(dr *drive) {
	h := &dr.health
	h.state = DiskQuarantined
	h.badStreak = 0
	h.probeGood = 0
	h.seeded = false
	c.stats.DiskQuarantines++
	if c.sink.Wants(trace.Quarantine) {
		// Slot carries the native disk number.
		c.sink.Emit(trace.Event{At: c.clk.Now(), Node: c.id, Kind: trace.Quarantine, Slot: int32(dr.native)})
	}
	dr.quarantined = true
	c.retireDisk(dr)
	c.armProbe(dr)
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
// re-arms the next probe. The probe bypasses the block buffer pool — it
// carries no payload anywhere — and a wedged drive simply never answers,
// which resets nothing: the quarantine holds until real completions
// return.
func (c *Cub) probeDisk(dr *drive) {
	if !dr.quarantined {
		return
	}
	h := &dr.health
	start := c.clk.Now()
	budget := probeBudget(c.cfg.DiskParams, c.cfg.BlockSize)
	c.cpu.ChargeDiskOp()
	c.stats.DiskProbes++
	dr.dk.Read(c.cfg.BlockSize, disk.Outer, start.Add(budget), func(done sim.Time, ok bool) {
		if !dr.quarantined {
			return
		}
		if ok && done.Sub(start) <= budget {
			h.probeGood++
			if h.probeGood >= probeGood {
				c.unquarantineDisk(dr)
			}
		} else {
			h.probeGood = 0
		}
	})
	c.armProbe(dr)
}

// unquarantineDisk returns a probed-healthy drive to service at an
// unchanged epoch: the cub never died, so there is nothing to fence —
// new viewer states simply start landing on the drive again, and the
// residual mirror load drains as its entries fall due.
func (c *Cub) unquarantineDisk(dr *drive) {
	dr.quarantined, dr.failed = false, false
	h := &dr.health
	h.probeTimer.Stop()
	h.state = DiskHealthy
	h.badStreak = 0
	h.probeGood = 0
	h.seeded = false
	c.stats.DiskUnquarantines++
}
