package core

import "tiger/internal/msg"

// This file implements the crash–restart–reintegration protocol. The
// paper's deadman machinery (§2.3) covers the outbound half of a failure
// — detecting the death and shifting the dead cub's schedule load onto
// its mirrors — but is silent on the return path. A restarted cub comes
// back with an empty view; until it relearns the viewer states landing in
// its window, its disks sit idle while the covering cubs keep paying the
// mirror-service overhead, and any of its pre-crash messages still in
// flight could corrupt the ring's "coherent hallucination".
//
// Reintegration therefore has three parts:
//
//  1. Epoch fencing. Every cub carries a liveness epoch, bumped on each
//     cold restart and stamped into its heartbeats and forwarded viewer
//     states. Receivers keep a per-peer high-water mark and discard
//     anything older (the peerLive fence, fence.go), so pre-crash traffic
//     replayed by transport reconnects is inert.
//
//  2. View transfer. The restarted cub sends RejoinRequest to every
//     monitored ring neighbour. Each neighbour answers with the primary
//     viewer states it can reconstruct for the requester's disks: the
//     re-derived next hops of entries it had already forwarded into the
//     dead window, and primaries rebuilt from the mirror pieces it has
//     been covering.
//
//  3. Mirror handback. For each transferred state the restarted cub
//     actually installs (or already has), it returns a RejoinConfirm;
//     the covering cub retires the matching mirror-piece entries so the
//     system returns to normal-mode service cost.

// RecoveryBounds are the histogram buckets for restart-to-reintegration
// times. Real recoveries complete within a couple of round trips; the
// tail buckets exist to make pathological cases visible.
var RecoveryBounds = []float64{0.01, 0.1, 0.5, 1, 5, 30}

// Restart performs a cold restart in place: it wipes all volatile state
// (the view, queues, liveness beliefs), bumps the liveness epoch, and
// starts the rejoin handshake with the ring neighbours. The periodic
// heartbeat and forwarding loops keep running — on a real machine they
// belong to the freshly booted process; in the simulator and the rt
// runtime the cub object is reused, so Restart must leave them armed.
func (c *Cub) Restart() {
	// Drop every schedule entry, which empties the drives' walks, and
	// release any read buffers a dead incarnation would not have kept.
	for _, k := range c.view.sortedKeys(nil) {
		c.dropEntryRelease(k)
	}
	c.freeEntries.Wipe() // record pools are volatile state too
	c.freeDescs.Wipe()
	c.desch.reset()
	c.queue = make(map[int32][]startReq)
	c.queueLen = 0
	c.redundantStart = nil
	c.cancelledStart.reset()
	c.enqueuedStart.reset()
	c.believedDead = make(map[msg.NodeID]bool)
	c.peers = make(marks[msg.NodeID, struct{}])
	clear(c.scanFns)
	c.fwdPending = make(map[msg.NodeID]*msg.Batch)
	c.fwdStates, c.fwdOut, c.fwdSpare = nil, nil, nil
	c.hb = heartbeat{}
	// The mover's copy queues are volatile too: queued restripe copies
	// die with the incarnation, and the coordinator's resend timer
	// re-orders them. A copy the drive is serving (or pacing after) is
	// not forgotten: its completion starts the drive's next copy, so the
	// new incarnation's copies wait behind it, one per drive (mover.go).
	// Installed generations survive — they are configuration, not view.
	clear(c.mover.queued)
	clear(c.mover.done)
	for i := range c.drives {
		dr := &c.drives[i]
		dr.moves = nil
		dr.lastBusy, dr.lastSample, dr.sampled = 0, 0, false
		// Health verdicts die with the incarnation too. During a machine
		// crash every in-flight read dies, so the old incarnation's
		// monitor quarantines every local drive; were that kept, the new
		// incarnation would route even its own accepted primaries to
		// mirror chains until the probes cleared it many seconds later,
		// and meanwhile its empty view could not veto re-admission
		// inserts into slots whose states flow around it (double
		// service). A reboot clears soft state, and a genuinely sick
		// drive is re-detected within a few reads. A permanent FailDisk
		// is no verdict and survives.
		if dr.health.state != DiskFailed {
			dr.health.probeTimer.Stop()
			dr.health = diskHealth{}
		}
	}
	now := c.clk.Now()
	for _, n := range c.monitored {
		c.lastSeen[n] = now
	}

	// New incarnation: everything stamped with the old epoch is now
	// provably stale.
	ep := c.rejoin.token + 1
	c.stats.Rejoins++

	// Announce the new incarnation immediately — neighbours clear their
	// believedDead entry and stop generating new mirror load for us —
	// and ask each of them for the states landing in our window. A
	// neighbour that is itself dead never answers; the closeout ends the
	// handshake after a deadman timeout so the recovery clock still stops.
	hb := &msg.Heartbeat{From: c.id, Epoch: int32(ep), Now: int64(now)}
	c.rejoin.begin(c.clk, ep, c.monitored, func(n msg.NodeID) {
		c.net.Send(c.id, n, hb)
		c.net.Send(c.id, n, &msg.RejoinRequest{From: c.id, Epoch: int32(ep)})
	}, c.cfg.DeadmanTimeout, c.finishRejoin)
}

func (c *Cub) finishRejoin() {
	c.rejoin.close()
	c.recovery.Observe(c.clk.Now().Sub(c.rejoin.began).Seconds())
}

// onRejoinRequest answers a restarted neighbour with every primary
// viewer state we can reconstruct for its disks.
func (c *Cub) onRejoinRequest(req msg.RejoinRequest) {
	if req.From == c.id {
		return
	}
	// The request is the first proof of life of the new incarnation; its
	// fence has raised the epoch mark.
	c.lastSeen[req.From] = c.clk.Now()
	if c.believedDead[req.From] {
		c.markAlive(req.From)
	}
	c.stats.RejoinsServed++

	now := int64(c.clk.Now())
	horizon := now + int64(c.cfg.MaxVStateLead+c.cfg.Sched.BlockPlay)
	reply := &msg.RejoinReply{From: c.id, ForEpoch: req.Epoch}
	sent := make(map[visit]bool)
	add := func(vs msg.ViewerState) {
		if k := (visit{vs.Slot, vs.Due}); vs.Due > now && !sent[k] {
			sent[k] = true
			vs.Epoch = c.Epoch()
			reply.States = append(reply.States, vs)
		}
	}

	for _, k := range c.view.sortedKeys(nil) {
		e := c.view.get(k)
		cfg := c.cfgOf(k.slot)
		if cfg == nil {
			continue
		}
		if k.part >= 0 {
			// A mirror piece covering one of the requester's disks:
			// rebuild the primary state it derives from.
			if cfg.Layout.CubOfDisk(int(e.vs.OrigDisk)) != req.From {
				continue
			}
			add(c.primaryOf(e.vs))
			continue
		}
		// A primary entry we already forwarded: while the requester was
		// down its next hops landing on the requester's disks went
		// nowhere. Re-derive them, exactly as forwardEntryNow would.
		if !e.forwarded {
			continue // the forward loop will reach the requester normally
		}
		for j := 1; ; j++ {
			nvs := hop(cfg, e.vs, j)
			if nvs.Due > horizon {
				break
			}
			if cfg.Layout.CubOfDisk(int(nvs.OrigDisk)) == req.From && c.fileHasBlock(nvs.File, nvs.Block) {
				add(nvs)
			}
		}
	}
	// Always reply, even with nothing to transfer: the requester's
	// handshake completes when every neighbour has been heard from.
	c.net.Send(c.id, req.From, reply)
}

// onRejoinReply installs the transferred states that belong to us and
// confirms ownership back to the sender so it can retire its mirrors.
// Its fence has dropped answers to a previous incarnation's request; an
// answer to this one is installed even after the handshake closed out.
func (c *Cub) onRejoinReply(rep *msg.RejoinReply) {
	c.lastSeen[rep.From] = c.clk.Now()
	now := int64(c.clk.Now())
	var owned []msg.ViewerState
	for _, vs := range rep.States {
		cfg := c.cfgOf(vs.Slot)
		if cfg == nil {
			continue
		}
		d := int(vs.OrigDisk)
		if cfg.Layout.CubOfDisk(d) != c.id || !c.fileHasBlock(vs.File, vs.Block) {
			continue
		}
		if c.desch.has(descKey{vs.Slot, vs.Instance}) {
			continue
		}
		key := entryKey{vs.Slot, -1, vs.Due}
		if old := c.view.get(key); old != nil {
			// Another neighbour transferred it first (or gossip beat the
			// reply here). Confirm anyway so every covering cub retires.
			if old.vs.Instance == vs.Instance {
				owned = append(owned, vs)
			}
			continue
		}
		if vs.Due <= now || c.driveOfDisk(cfg.Layout, d).out() {
			// Too late to serve, or on one of our dead drives: leave the
			// mirrors covering it.
			continue
		}
		c.acceptPrimary(vs, d)
		if e := c.view.get(key); e != nil && e.vs.Instance == vs.Instance {
			c.stats.ViewTransferred++
			owned = append(owned, vs)
		}
	}
	// Transferred entries re-enter the normal gossip flow: forwardTick
	// will forward their next hops downstream, and flushForwards covers
	// any mirror chains acceptPrimary started.
	c.flushForwards()
	if len(owned) > 0 {
		c.net.Send(c.id, rep.From, &msg.RejoinConfirm{From: c.id, Epoch: c.Epoch(), States: owned})
	}
	if c.rejoin.heard(rep.From) {
		c.finishRejoin()
	}
}

// onRejoinConfirm retires the mirror entries covering services the
// restarted primary has confirmed it owns again (mirror-load handback).
func (c *Cub) onRejoinConfirm(cf *msg.RejoinConfirm) {
	pace := int64(c.cfg.MirrorPace())
	for _, vs := range cf.States {
		lay := c.layoutOf(vs.Slot)
		if lay.CubOfDisk(int(vs.OrigDisk)) != cf.From {
			continue
		}
		for p := 0; p < lay.Decluster; p++ {
			key := entryKey{vs.Slot, int8(p), vs.Due + int64(p)*pace}
			e := c.view.get(key)
			if e == nil || e.vs.Instance != vs.Instance || e.vs.OrigDisk != vs.OrigDisk {
				continue
			}
			c.dropEntryRelease(key)
			c.stats.MirrorsRetired++
		}
	}
}
