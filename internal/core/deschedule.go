package core

import (
	"slices"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

// This file implements deschedule handling (§4.1.2): idempotent removal
// records that chase viewer states around the ring and are held after
// the slot passes so late states cannot resurrect a stopped viewer.

// --- deschedule handling (§4.1.2) ---

func (c *Cub) onDeschedule(d msg.Deschedule) {
	c.stats.DeschedRecv++
	if d.Slot < 0 {
		// The viewer was never inserted: the controller is cancelling a
		// queued start request. Scrub it from our queues and redundant
		// copies and leave a tombstone so a late promotion cannot
		// resurrect it.
		c.cancelledStart.add(d.Instance, struct{}{})
		c.dropRedundant(d.Instance)
		for disk, q := range c.queue {
			for i, req := range q {
				if req.sp.Instance == d.Instance {
					c.queue[disk] = trimStarts(slices.Delete(q, i, i+1))
					c.queueLen--
					break
				}
			}
		}
		return
	}
	key := descKey{d.Slot, d.Instance}
	if c.desch.has(key) {
		c.stats.DeschedDup++
		return
	}
	now := c.clk.Now()
	c.desch.add(key, struct{}{})

	// Remove any matching entries: primary and mirror pieces alike. The
	// semantics are exactly "if this instance is in this slot, remove
	// it", so a stale request is harmless.
	var buf [8]entryKey // a slot's chain is a handful of entries
	doomed := c.view.slotKeys(buf[:], d.Slot, func(e *entry) bool {
		return e.vs.Instance == d.Instance
	})
	for _, k := range doomed {
		if e := c.view.get(k); e != nil {
			c.step(trace.Deschedule, &e.vs, int32(e.disk))
		}
		c.dropEntryRelease(k)
	}

	// Forward immediately — deschedules must outrun viewer states — to
	// the first and second living successors on the slot's generation's
	// ring, unless we are already more than MaxVStateLead in front of the
	// slot, at which point the request has caught every state it could.
	cfg := c.cfgOf(d.Slot)
	if cfg == nil {
		return // generation dropped; nothing downstream to chase
	}
	if c.schedTimeOfSlot(d.Slot).Sub(now) <= c.cfg.MaxVStateLead+c.cfg.Sched.BlockPlay {
		s1, ok1 := c.nthLivingSuccessorIn(cfg.Layout, 1)
		s2, ok2 := c.nthLivingSuccessorIn(cfg.Layout, 2)
		if ok1 {
			sendCopy(c.net, &c.freeDescs, c.id, s1, d)
		}
		if ok2 && s2 != s1 {
			sendCopy(c.net, &c.freeDescs, c.id, s2, d)
		}
	}
}
