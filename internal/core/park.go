package core

import (
	"tiger/internal/msg"
	"tiger/internal/trace"
)

// This file is the cub side of the degradation-governor protocol
// (governor.go holds the controller side): applying CubDown advisories,
// scrubbing parked streams out of the schedule, and maintaining the
// mirror-exhaustion gauge derived from the deadman's death beliefs.

// onCubDown applies a controller advisory that the listed cubs died at
// once. The advisory exists to beat the deadman window: a correlated
// crash kills several cubs between two heartbeats, and waiting
// DeadmanTimeout to notice each one separately costs exactly the
// deadlines the governor is trying to protect. Only deaths of cubs this
// cub monitors are applied — those are the only ones its takeover
// decisions depend on, and they are the only ones whose recovery
// (heartbeat, rejoin, gossip proof of life) reaches this cub to clear
// the belief again. Its fence has dropped advisories from an earlier
// degradation episode.
func (c *Cub) onCubDown(m *msg.CubDown) {
	c.stats.DownAdvisories++
	for _, z := range m.Down {
		if z == c.id || c.believedDead[z] || !c.isMonitored(z) {
			continue
		}
		c.markDead(z)
	}
}

func (c *Cub) isMonitored(z msg.NodeID) bool {
	for _, n := range c.monitored {
		if n == z {
			return true
		}
	}
	return false
}

// onPark removes a governor-parked stream from this cub's schedule. The
// scrub itself is a deschedule — the same idempotent removal, the same
// chase to successors — plus a parked-instance tombstone so states
// still gossiping around the ring die on arrival (onViewerState) even
// after the deschedule record ages out. The ack always goes back: the
// controller dedups by instance.
func (c *Cub) onPark(p msg.Park) {
	if !c.parkedInst.has(p.Instance) {
		c.parkedInst.add(p.Instance, struct{}{})
		// Retain the re-admission ticket until the matching Resume: the
		// tickets held across the ring are what a controller takeover
		// scavenges to rebuild the parked set (scavenge.go). Retention is
		// much longer than the tombstone — it must survive a controller
		// outage — with a backstop for streams never resumed.
		c.parkedTickets.add(p.Instance, msg.ScavengedPark{
			Viewer:      p.Viewer,
			Instance:    p.Instance,
			File:        p.File,
			ResumeBlock: p.ResumeBlock,
			Bitrate:     p.Bitrate,
			Fence:       p.Fence,
		})
		c.stats.StreamsParked++
		c.onDeschedule(msg.Deschedule{
			Viewer:   p.Viewer,
			Instance: p.Instance,
			Slot:     p.Slot,
			Created:  int64(c.clk.Now()),
		})
		if c.sink.Wants(trace.Park) {
			c.sink.Emit(trace.Event{
				At: c.clk.Now(), Node: c.id, Kind: trace.Park,
				Slot: p.Slot, Instance: p.Instance, Viewer: p.Viewer,
			})
		}
	}
	c.net.Send(c.id, msg.Controller, &msg.ParkAck{Instance: p.Instance, Fence: p.Fence, By: c.id})
}

// onResume clears the parked-instance tombstone when the governor
// re-admits the stream under a fresh instance. The new instance arrives
// through the ordinary StartPlay path; this is only bookkeeping.
func (c *Cub) onResume(r msg.Resume) {
	delete(c.parkedInst.m, r.OldInstance)
	delete(c.parkedTickets.m, r.OldInstance)
	c.stats.StreamsResumed++
	if c.sink.Wants(trace.Resume) {
		c.sink.Emit(trace.Event{
			At: c.clk.Now(), Node: c.id, Kind: trace.Resume,
			Slot: -1, Instance: r.NewInstance, Viewer: r.Viewer,
		})
	}
}

// updateUnservable recomputes the cub's count of mirror-exhausted disks
// from its current death beliefs — pure layout arithmetic
// (layout.UnservableDisks), no scan over streams or schedule entries.
// Called on every death-belief transition; with at most one believed
// death the count is zero without touching the layout at all.
func (c *Cub) updateUnservable() {
	n := 0
	if len(c.believedDead) > 1 {
		n = len(c.cfg.Layout.UnservableDisks(func(z msg.NodeID) bool { return c.believedDead[z] }))
	}
	if n == c.unservable {
		return
	}
	c.unservable = n
	if c.sink.Wants(trace.Unservable) {
		// Slot carries the new count.
		c.sink.Emit(trace.Event{At: c.clk.Now(), Node: c.id, Kind: trace.Unservable, Slot: int32(n)})
	}
}

// Unservable returns the number of disks this cub currently computes as
// mirror-exhausted: dead disks whose decluster span contains another
// death. Derived from this cub's own death beliefs, so only cubs near
// the failure see a non-zero value.
func (c *Cub) Unservable() int { return c.unservable }
