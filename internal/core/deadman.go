package core

import (
	"tiger/internal/msg"
	"tiger/internal/recycle"
)

// This file implements the deadman failure detector (§2.3) and what a
// cub does on a death: take over the failed peer's schedule load with
// mirror viewer states and adopt its redundant start requests.

// --- deadman protocol (§2.3) ---

func (c *Cub) heartbeatTick() {
	now := c.clk.Now()
	hb := c.hb.next(msg.Heartbeat{From: c.id, Epoch: c.Epoch(), Now: int64(now)}, len(c.monitored))
	for _, n := range c.monitored {
		c.net.Send(c.id, n, hb)
	}
	// Check for silent neighbours.
	for _, n := range c.monitored {
		if c.believedDead[n] {
			continue
		}
		if now.Sub(c.lastSeen[n]) > c.cfg.DeadmanTimeout {
			c.markDead(n)
		}
	}
	c.ctlDeadmanCheck(now)
	c.clk.After(c.cfg.HeartbeatInterval, c.onHeartbeat)
}

// heartbeat is a node's heartbeat record, sent to every receiver of a
// tick. A later tick reuses it only once every send of it has come back
// (netsim.Reclaimer); a send that never comes back leaves out above zero,
// and the next tick makes another.
type heartbeat struct {
	rec *msg.Heartbeat
	out int // sends of rec not yet back
}

// next returns the record, holding hb, for a tick that sends it sends times.
func (h *heartbeat) next(hb msg.Heartbeat, sends int) *msg.Heartbeat {
	if h.rec == nil || h.out > 0 {
		h.rec = new(msg.Heartbeat)
	}
	*h.rec, h.out = hb, sends
	return h.rec
}

// back counts m back if it is a send of the record, and reports whether
// it was.
func (h *heartbeat) back(m msg.Message) bool {
	if hb, ok := m.(*msg.Heartbeat); !ok || hb != h.rec {
		return false
	}
	if h.out--; h.out == 0 && !recycle.Reuse(h.rec) {
		h.rec = nil
	}
	return true
}

func (c *Cub) markDead(z msg.NodeID) {
	c.believedDead[z] = true
	c.stats.DeadDeclared++
	c.updateUnservable()
	// We may be the decision maker for z's schedule load on some
	// installed generations' rings but not others (the rings differ
	// during a restripe); compute the verdict per generation.
	decider := make(map[int32]bool, len(c.planes))
	any := false
	for g, cfg := range c.planes {
		if int(z) < cfg.Layout.Cubs && c.firstLivingSuccessorOfIn(cfg.Layout, z) {
			decider[g] = true
			any = true
		}
	}
	if !any {
		return
	}
	// We are the decision maker for z's schedule load (§4.1.1): create
	// mirror viewer states for every not-yet-due service on z's disks
	// that our view knows about, and adopt z's queued starts we hold
	// redundant copies of.
	now := c.clk.Now()
	for _, k := range c.view.sortedKeys(func(e *entry) bool { return e.key.part == -1 }) {
		e := c.view.get(k)
		cfg := c.cfgOf(k.slot)
		if cfg == nil || !decider[GenOf(k.slot)] {
			continue
		}
		// Walk back through the services that precede ours in the
		// stream while they land on disks of cubs we believe dead.
		for j := 1; j < cfg.Layout.Cubs; j++ {
			pvs := hop(cfg, e.vs, -j)
			pd := int(pvs.OrigDisk) // generation-local
			pc := cfg.Layout.CubOfDisk(pd)
			if !c.believedDead[pc] || !c.firstLivingSuccessorOfIn(cfg.Layout, pc) {
				break
			}
			if pvs.Block < 0 || pvs.Due <= int64(now) {
				break
			}
			c.createMirrors(pvs, pd)
		}
	}
	// Promote redundant start requests targeting z's disks, in instance
	// order for determinism.
	kept := c.redundantStart[:0]
	for _, req := range c.redundantStart {
		g := GenOf(req.dkey)
		if cfg := c.planes[g]; cfg == nil || !decider[g] || cfg.Layout.CubOfDisk(int(RawSlot(req.dkey))) != z {
			kept = append(kept, req)
			continue
		}
		c.enqueueStart(req)
		c.stats.RedundantRuns++
	}
	c.redundantStart = trimStarts(kept)
	c.flushForwards()
}

// markAlive clears the death belief for a peer without touching mirror
// state. It is the right call when the peer's recovery path will perform
// the handback itself — a restarted incarnation runs the rejoin
// handshake (rejoin.go), which rebuilds its view and retires our
// mirrors via RejoinConfirm.
func (c *Cub) markAlive(z msg.NodeID) {
	delete(c.believedDead, z)
	c.updateUnservable()
}

// proofOfLife handles a direct message from z at epoch e when z is on
// our believedDead list; prior is our epoch high-water mark for z before
// this message. Two cases:
//
//   - e bumped past prior: z genuinely restarted. Clearing the belief is
//     enough; its rejoin handshake transfers the view and takes the
//     mirror load back.
//   - e unchanged (or z was never epoch-known): z never died — the
//     deadman timeout fired across a partition or asymmetric link loss.
//     The death is refuted: we retire the mirror load we built for z and
//     hand the rebuilt primaries straight back, no rejoin handshake
//     required (z still holds its own view; the handback is absorbed as
//     idempotent duplicates).
func (c *Cub) proofOfLife(z msg.NodeID, e, prior int32) {
	c.lastSeen[z] = c.clk.Now()
	if !c.believedDead[z] {
		return
	}
	if prior != 0 && e > prior {
		c.markAlive(z)
		return
	}
	c.refuteDeath(z)
}

// refuteDeath implements the split-brain healing rule: a false death
// declaration is withdrawn and the mirror viewer states covering z's
// disks are retired through the same path RejoinConfirm uses. For each
// retired chain the primary state it derives from is rebuilt and
// forwarded to z — if z somehow lost it the stream survives, and
// otherwise z's dedup counters absorb the duplicate (§4.1.2's
// idempotence argument, applied to the heal).
func (c *Cub) refuteDeath(z msg.NodeID) {
	c.markAlive(z)
	c.stats.DeathsRefuted++
	now := int64(c.clk.Now())
	keys := c.view.sortedKeys(func(e *entry) bool {
		return e.key.part >= 0 && c.layoutOf(e.key.slot).CubOfDisk(int(e.vs.OrigDisk)) == z
	})
	handed := make(map[visit]bool)
	for _, k := range keys {
		pvs := c.primaryOf(c.view.get(k).vs)
		pk := visit{pvs.Slot, pvs.Due}
		if pvs.Due > now && !handed[pk] {
			handed[pk] = true
			c.enqueueForward(z, c.stage(pvs))
		}
		c.dropEntryRelease(k)
		c.stats.MirrorsRetired++
	}
	if len(keys) > 0 {
		c.flushForwards()
	}
}

// primaryOf rebuilds the primary service a mirror piece substitutes for:
// piece p is due p mirror paces after the primary send it replaces.
func (c *Cub) primaryOf(piece msg.ViewerState) msg.ViewerState {
	piece.Due -= int64(piece.Part) * int64(c.cfg.MirrorPace())
	piece.Mirror, piece.Part = false, 0
	return piece
}
