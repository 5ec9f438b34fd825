package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"tiger/internal/msg"
	"tiger/internal/sim"
)

// ViewEntry is one record of a cub's view of the schedule, for
// introspection and debugging (the paper's Figure 7 shows exactly this:
// per-cub views of the same schedule region, transiently different yet
// coherent).
type ViewEntry struct {
	Slot     int32
	Viewer   msg.ViewerID
	Instance msg.InstanceID
	Block    int32
	Due      sim.Time
	Disk     int
	Mirror   bool
	Part     int8
	Ready    bool
}

// ViewWindow returns the cub's current view, ordered by due time — the
// slice of the hallucinated global schedule this cub can see.
func (c *Cub) ViewWindow() []ViewEntry {
	out := make([]ViewEntry, 0, c.view.len())
	c.view.each(func(e *entry) {
		out = append(out, ViewEntry{
			Slot:     e.key.slot,
			Viewer:   e.vs.Viewer,
			Instance: e.vs.Instance,
			Block:    e.vs.Block,
			Due:      sim.Time(e.vs.Due),
			Disk:     e.disk,
			Mirror:   e.vs.Mirror,
			Part:     maxI8(e.vs.Part, 0),
			Ready:    e.ready,
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Due != out[j].Due {
			return out[i].Due < out[j].Due
		}
		return out[i].Part < out[j].Part
	})
	return out
}

// SlotView reports what this cub currently believes about a slot:
// "free", or the occupying instance. Held deschedules are reported too,
// mirroring Figure 7's annotations.
func (c *Cub) SlotView(slot int32) string {
	var parts []string
	c.view.each(func(e *entry) {
		if e.key.slot != slot {
			return
		}
		tag := ""
		if e.vs.Mirror {
			tag = fmt.Sprintf(" mirror#%d", e.vs.Part)
		}
		parts = append(parts, fmt.Sprintf("viewer %d (inst %d, block %d%s)",
			e.vs.Viewer, e.vs.Instance, e.vs.Block, tag))
	})
	for k := range c.desch.m {
		if k.slot == slot {
			parts = append(parts, fmt.Sprintf("deschedule held (inst %d)", k.instance))
		}
	}
	if len(parts) == 0 {
		return "free"
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// DumpView renders the cub's view window as text, one line per entry —
// the textual analogue of Figure 7.
func (c *Cub) DumpView() string {
	var b strings.Builder
	now := c.clk.Now()
	fmt.Fprintf(&b, "cub %v view at %v (%d entries, %d held deschedules):\n",
		c.id, now, c.view.len(), len(c.desch.m))
	if hl := c.diskHealthLine(); hl != "" {
		fmt.Fprintf(&b, "  disk health: %s\n", hl)
	}
	if ml := c.moverLine(); ml != "" {
		fmt.Fprintf(&b, "  restripe mover: %s\n", ml)
	}
	for _, e := range c.ViewWindow() {
		kind := "primary"
		if e.Mirror {
			kind = fmt.Sprintf("mirror#%d", e.Part)
		}
		ready := ""
		if e.Ready {
			ready = " [read done]"
		}
		fmt.Fprintf(&b, "  slot %4d  due +%-8v disk %2d  %-9s viewer %d block %d%s\n",
			e.Slot, e.Due.Sub(now).Round(time.Millisecond), e.Disk, kind,
			e.Viewer, e.Block, ready)
	}
	return b.String()
}

// moverLine summarizes live-restripe move activity for DumpView and the
// /debug/vars surface: copy jobs queued and in service on this cub's
// drives, plus lifetime totals. Empty when the mover is idle and has
// never moved anything.
func (c *Cub) moverLine() string {
	pend, inf := c.MoverPending(), c.MoverInflight()
	st := c.stats
	if pend == 0 && inf == 0 && st.MovesOut == 0 && st.MovesIn == 0 {
		return ""
	}
	return fmt.Sprintf("%d queued, %d in flight; %d blocks out (%.1f MB), %d in (%.1f MB), %d nacked",
		pend, inf, st.MovesOut, float64(st.MoveBytesOut)/1e6,
		st.MovesIn, float64(st.MoveBytesIn)/1e6, st.MovesNacked)
}

// diskHealthLine summarizes the local drives that are not plain healthy
// — suspected, quarantined, or permanently failed — for DumpView and the
// /debug/vars surface. Empty when every drive is fine.
func (c *Cub) diskHealthLine() string {
	var parts []string
	for i := range c.drives {
		if dr := &c.drives[i]; dr.health.state != DiskHealthy {
			parts = append(parts, fmt.Sprintf("disk %d %s", dr.native, dr.health.state))
		}
	}
	return strings.Join(parts, ", ")
}

// HeldDeschedules returns the slots with live deschedule records.
func (c *Cub) HeldDeschedules() []int32 {
	out := make([]int32, 0, len(c.desch.m))
	for k := range c.desch.m {
		out = append(out, k.slot)
	}
	slices.Sort(out)
	return out
}
