package core

import (
	"fmt"

	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/sim"
)

// This file implements striping generations, the mechanism behind
// ownership-safe schedule widening and narrowing (DESIGN §13). An
// elastic restripe changes the cub count, which renumbers every disk and
// resizes the slot ring — but streams admitted under the old shape must
// keep playing while streams admitted under the new shape ramp up. Each
// cub therefore carries one *plane* per installed generation: the
// generation's Config (layout, schedule geometry, file placement), whose
// lookup is the content index of this cub's drives under that
// generation's numbering. Which plane governs a message is encoded in
// the slot number itself: the top bits of ViewerState.Slot carry the
// generation, the low bits the raw slot. Slot ownership, ring
// forwarding, mirror declustering, and deschedule chasing all resolve
// against the plane of the entry they touch, so the two schedules
// interleave on the same spindles without ever sharing a slot — new
// slots "appear" as the new generation's ring and drain away with the
// old one's.
//
// A cub names its physical drives by cub-local index, which every
// generation shares: its disk gd under a layout is drive gd/Cubs. An
// entry records its drive's *native* number — its disk number under the
// generation the cub was created under — for traces and dumps.

// genShift is where the generation field starts inside a slot number.
// 24 bits of raw slot is ~16M slots, far above any schedule; 7 bits of
// generation outlast any realistic reconfiguration history.
const genShift = 24

const rawSlotMask = int32(1)<<genShift - 1

// GenOf returns the striping generation encoded in a slot number.
// Negative slots (the "never inserted" sentinel) have no generation.
func GenOf(slot int32) int32 {
	if slot < 0 {
		return -1
	}
	return slot >> genShift
}

// RawSlot strips the generation bits off a slot number, yielding the
// slot index meaningful to that generation's schedule.
func RawSlot(slot int32) int32 {
	if slot < 0 {
		return slot
	}
	return slot & rawSlotMask
}

func genBase(g int32) int32 { return g << genShift }

// genDiskKey packs (generation, generation-local disk) into one int32,
// used to key the start-insertion queues.
func genDiskKey(g int32, gd int) int32 { return genBase(g) | int32(gd) }

// participatesIn reports whether this cub is on cfg's ring: a retiring
// cub holds a generation's plane only to fence.
func (c *Cub) participatesIn(cfg *Config) bool {
	return int(c.id) < cfg.Layout.Cubs
}

// genLocalDisk converts one of this cub's native disk numbers into the
// given generation's numbering.
func (c *Cub) genLocalDisk(lay layout.Config, nd int) int {
	return (nd/c.nativeCubs)*lay.Cubs + int(c.id)
}

// cfgOf returns the Config governing a slot, or nil when the slot's
// generation is not installed — uninstalled generations fence exactly
// like stale epochs: their traffic must not touch the view.
func (c *Cub) cfgOf(slot int32) *Config { return c.planes[GenOf(slot)] }

// ActiveGen returns the generation new insertions go to.
func (c *Cub) ActiveGen() int32 { return c.activeGen }

// InstallGen makes a generation's configuration known to the cub.
// Idempotent; must be called on every cub before any slot of that
// generation can circulate.
func (c *Cub) InstallGen(gen int32, cfg *Config) {
	if _, ok := c.planes[gen]; ok {
		return
	}
	c.planes[gen] = cfg
	c.refreshMonitored()
}

// SetActiveGen flips which generation admits new insertions. The flip
// is atomic within the cub's executor; the cluster performs it on every
// node in a single quiesced instant (the cutover).
func (c *Cub) SetActiveGen(gen int32) {
	if _, ok := c.planes[gen]; !ok {
		panic(fmt.Sprintf("cub %v: SetActiveGen(%d) before InstallGen", c.id, gen))
	}
	c.activeGen = gen
}

// DropGen forgets a fully drained generation. Late traffic carrying its
// slots is refused from then on (cfgOf returns nil), which is what makes
// narrowing safe: a retired slot cannot be resurrected.
func (c *Cub) DropGen(gen int32) {
	if gen == c.activeGen {
		panic(fmt.Sprintf("cub %v: cannot drop active generation %d", c.id, gen))
	}
	if _, ok := c.planes[gen]; !ok {
		return
	}
	delete(c.planes, gen)
	// Scrub any stale queued starts for the dropped generation.
	for k, q := range c.queue {
		if GenOf(k) == gen {
			c.queueLen -= len(q)
			delete(c.queue, k)
		}
	}
	c.refreshMonitored()
}

// GenEntries counts view entries belonging to one generation — the
// drain monitor polls this toward zero.
func (c *Cub) GenEntries(gen int32) int {
	n := 0
	c.view.each(func(e *entry) {
		if GenOf(e.key.slot) == gen {
			n++
		}
	})
	return n
}

// GenQueued counts queued start requests targeting one generation.
func (c *Cub) GenQueued(gen int32) int {
	n := 0
	for k, q := range c.queue {
		if GenOf(k) == gen {
			n += len(q)
		}
	}
	return n
}

// Rebase re-homes a cub created under a non-zero generation: NewCub
// installed its birth configuration as generation 0, so a cub joining
// at generation g relabels that plane. Must be called before Start and
// before any InstallGen.
func (c *Cub) Rebase(gen int32) {
	if gen == 0 || len(c.planes) != 1 || c.planes[0] == nil {
		return
	}
	c.planes[gen] = c.planes[0]
	delete(c.planes, 0)
	c.activeGen = gen
}

// refreshMonitored recomputes the deadman-monitored neighbour set as
// the union of this cub's ring neighbourhoods over every installed
// generation it participates in. Newly monitored peers start with a
// fresh lastSeen so installation cannot instantly declare them dead; a
// retiring cub ends with an empty set and harmlessly idle heartbeats.
func (c *Cub) refreshMonitored() {
	seen := map[msg.NodeID]bool{c.id: true}
	var mon []msg.NodeID
	for _, g := range keysInOrder(c.planes) {
		cfg := c.planes[g]
		if !c.participatesIn(cfg) {
			continue
		}
		lay := cfg.Layout
		k := lay.Decluster + 1
		if k < 2 {
			k = 2
		}
		if k > lay.Cubs-1 {
			k = lay.Cubs - 1
		}
		for i := 1; i <= k; i++ {
			for _, n := range []msg.NodeID{ringAddIn(lay, c.id, i), ringAddIn(lay, c.id, -i)} {
				if !seen[n] {
					seen[n] = true
					mon = append(mon, n)
				}
			}
		}
	}
	if c.started {
		now := c.clk.Now()
		prev := make(map[msg.NodeID]bool, len(c.monitored))
		for _, n := range c.monitored {
			prev[n] = true
		}
		for _, n := range mon {
			if !prev[n] {
				c.lastSeen[n] = now
			}
		}
	}
	c.monitored = mon
}

// layoutOf returns the layout governing a slot, falling back to the
// native layout for slots of dropped generations (callers that only
// need a count bound, not routing).
func (c *Cub) layoutOf(slot int32) layout.Config {
	if cfg := c.cfgOf(slot); cfg != nil {
		return cfg.Layout
	}
	return c.cfg.Layout
}

// schedTimeOfSlot returns the earliest upcoming service time of slot on
// any of this cub's disks under the slot's generation, or now when the
// generation is unknown or this cub does not participate in it.
func (c *Cub) schedTimeOfSlot(slot int32) sim.Time {
	now := c.clk.Now()
	cfg := c.cfgOf(slot)
	if cfg == nil || !c.participatesIn(cfg) {
		return now
	}
	raw := RawSlot(slot)
	var best sim.Time
	first := true
	for i := range c.drives {
		gd := c.genLocalDisk(cfg.Layout, c.drives[i].native)
		t := cfg.Sched.ServiceTime(gd, raw, now)
		if first || t < best {
			best = t
			first = false
		}
	}
	if first {
		return now
	}
	return best
}
