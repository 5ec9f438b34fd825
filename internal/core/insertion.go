package core

import (
	"cmp"
	"slices"
	"time"

	"tiger/internal/msg"
	"tiger/internal/schedule"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file implements slot insertion (§4.1.3): queued start requests,
// the per-disk ownership scan, and the insertion itself, which is safe
// without global coordination because a cub may insert only into an
// empty slot it currently owns. Queues and scans are keyed by
// (generation, generation-local disk) — during an elastic restripe two
// schedules coexist, and a disk owns slots on both rings.

// --- start-play handling (§4.1.3) ---

func (c *Cub) onStartPlay(sp msg.StartPlay) {
	ap := c.planes[c.activeGen]
	if ap == nil || !c.participatesIn(ap) {
		return // not a participant of the admitting generation
	}
	f, ok := ap.Files[sp.File]
	if !ok || !c.fileHasBlock(sp.File, sp.StartBlock) {
		return // unknown content; the controller validated, so ignore
	}
	d := ap.Layout.PrimaryDisk(f, int(sp.StartBlock))
	req := startReq{sp: sp, dkey: genDiskKey(c.activeGen, d), enqueued: c.clk.Now()}
	if !sp.Primary {
		if c.cancelledStart.has(sp.Instance) {
			return
		}
		// If the primary target is already known dead and we are its
		// acting successor, take the request immediately; otherwise hold
		// the redundant copy in case it dies before inserting (§4.1.3).
		tc := ap.Layout.CubOfDisk(d)
		if c.believedDead[tc] && c.firstLivingSuccessorOfIn(ap.Layout, tc) {
			c.enqueueStart(req)
			c.stats.RedundantRuns++
			return
		}
		c.holdRedundant(req)
		return
	}
	c.enqueueStart(req)
}

func (c *Cub) enqueueStart(req startReq) {
	// Idempotence guard: a duplicated StartPlay (an at-least-once
	// transport retrying across a blip, or a redundant copy racing its
	// promotion) must not enqueue the same instance twice — two inserts
	// of one instance into two slots would be a real double-schedule.
	inst := req.sp.Instance
	if c.enqueuedStart.has(inst) {
		c.stats.StartsDup++
		return
	}
	c.enqueuedStart.add(inst, struct{}{})
	c.queue[req.dkey] = append(c.queue[req.dkey], req)
	c.queueLen++
	c.ensureScan(req.dkey)
}

func (c *Cub) onStartAck(a msg.StartAck) {
	c.dropRedundant(a.Instance)
	c.cancelledStart.add(a.Instance, struct{}{})
}

// holdRedundant keeps a neighbour's start until its insertion is
// acknowledged; a second copy of one replaces it.
func (c *Cub) holdRedundant(req startReq) {
	i, found := slices.BinarySearchFunc(c.redundantStart, req.sp.Instance, byInstance)
	if found {
		c.redundantStart[i] = req
		return
	}
	c.redundantStart = slices.Insert(c.redundantStart, i, req)
}

// dropRedundant forgets the held copy of inst's start, if any.
func (c *Cub) dropRedundant(inst msg.InstanceID) {
	if i, found := slices.BinarySearchFunc(c.redundantStart, inst, byInstance); found {
		c.redundantStart = trimStarts(slices.Delete(c.redundantStart, i, i+1))
	}
}

func byInstance(r startReq, inst msg.InstanceID) int { return cmp.Compare(r.sp.Instance, inst) }

// trimStarts gives up the array of an emptied start list longer than
// four starts, which a burst of starts grew; a shorter one is kept for
// the next.
func trimStarts(q []startReq) []startReq {
	if len(q) == 0 && cap(q) > 4 {
		return nil
	}
	return q
}

// ensureScan starts the ownership scan loop for a (generation, disk)
// with queued starts. The loop wakes at each ownership-window opening
// on that generation's ring — the only moments this cub may insert into
// a slot (§4.1.3) — and stops when the queue drains.
func (c *Cub) ensureScan(k int32) {
	if c.scanning[k] {
		return
	}
	c.scanning[k] = true
	c.scanTick(k)
}

func (c *Cub) scanTick(k int32) {
	if len(c.queue[k]) == 0 {
		c.scanning[k] = false
		return
	}
	cfg := c.planes[GenOf(k)]
	if cfg == nil {
		// The generation was dropped with starts still queued (it drained
		// under protest); they can never insert.
		c.queueLen -= len(c.queue[k])
		delete(c.queue, k)
		c.scanning[k] = false
		return
	}
	gd := int(RawSlot(k))
	now := c.clk.Now()
	slot, due, ok := cfg.Sched.SlotUnderOwnership(gd, now)
	if ok {
		c.tryInsert(k, genBase(GenOf(k))|slot, due)
	}
	// Wake at the next window opening, through the key's callback, made
	// once.
	fn := c.scanFns[k]
	if fn == nil {
		fn = func() { c.scanTick(k) }
		c.scanFns[k] = fn
	}
	c.clk.At(nextWindowOpen(cfg.Sched, gd, now), fn)
}

// nextWindowOpen returns the next time disk d's pointer enters a new
// slot's ownership window under schedule p.
func nextWindowOpen(p schedule.Params, d int, now sim.Time) sim.Time {
	off := int64(p.PointerOffset(d, now))
	target := (off + int64(p.SchedLead)) % int64(p.CycleLen())
	bs := int64(p.BlockService)
	into := target % bs
	wait := bs - into
	return now.Add(time.Duration(wait) + time.Nanosecond)
}

// tryInsert inserts the head queued viewer into slot if our view shows
// it free. "A cub may insert into a slot if and only if it owns that
// slot and the slot is empty" (§4.1.3). slot carries the generation in
// its high bits; k is the queue being drained.
func (c *Cub) tryInsert(k, slot int32, due sim.Time) {
	if c.view.occupied(slot) {
		return
	}
	// Pop the head, and any cancelled starts before it, moving the rest
	// down so the queue keeps its backing array (trimStarts).
	q := c.queue[k]
	i := 0
	for i < len(q) && c.cancelledStart.has(q[i].sp.Instance) {
		i++
	}
	var req startReq
	found := i < len(q)
	if found {
		req = q[i]
		i++
	}
	c.queueLen -= i
	c.queue[k] = trimStarts(slices.Delete(q, 0, i))
	if !found {
		return
	}
	cfg := c.planes[GenOf(k)]
	gd := int(RawSlot(k))

	vs := msg.ViewerState{
		Viewer:   req.sp.Viewer,
		Instance: req.sp.Instance,
		Addr:     req.sp.Addr,
		File:     req.sp.File,
		Block:    req.sp.StartBlock,
		Slot:     slot,
		PlaySeq:  0,
		Due:      int64(due),
		Bitrate:  req.sp.Bitrate,
		OrigDisk: int32(gd),
		Trace:    req.sp.Trace,
	}
	c.stats.Inserts++
	c.startWait.Observe(c.clk.Now().Sub(req.enqueued).Seconds())
	c.step(trace.Insert, &vs, int32(gd))

	if cfg.Layout.CubOfDisk(gd) != c.id || c.driveOfDisk(cfg.Layout, gd).out() {
		// Proxy insertion for a dead predecessor's disk, or our own dead
		// drive: the first block is served from its mirrors.
		c.createMirrors(vs, gd)
	} else {
		c.acceptPrimary(vs, gd)
		if e := c.view.get(entryKey{slot, -1, vs.Due}); e != nil {
			e.forwarded = true // forwarded inline below; avoid a duplicate
		}
	}
	// Tell the next owner of the slot about the assignment right away:
	// there is at least blockPlay−ownDur for this to arrive (§4.1.3).
	c.forwardEntryNow(vs)
	c.flushForwards()

	ack := &msg.StartAck{Viewer: vs.Viewer, Instance: vs.Instance, Slot: slot, By: c.id}
	c.net.Send(c.id, msg.Controller, ack)
	if s1, ok := c.nthLivingSuccessorIn(cfg.Layout, 1); ok {
		c.net.Send(c.id, s1, ack)
	}
	if len(c.queue[k]) > 0 {
		c.ensureScan(k)
	}
}
