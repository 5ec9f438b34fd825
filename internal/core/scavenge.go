package core

import (
	"errors"
	"time"

	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/sim"
)

// Controller failover (DESIGN §17). The paper's argument that the
// controller has "almost nothing to do" has a sharp corollary: it also
// has almost nothing to *lose*. The distributed schedule — the viewer
// states circulating the cub ring, the queued starts, the parked-stream
// tickets — IS the system of record, so a dead controller is replaced by
// asking the cubs what they are doing:
//
//  1. Fencing. Every controller-originated order (StartPlay, Park,
//     Resume, MoveOrder) carries the incarnation's epoch. A takeover
//     bumps the epoch and announces it in the ScavengeReq broadcast, so
//     each cub raises its high-water mark and the dead incarnation's
//     in-flight orders die on arrival (the ctlOrder fence, fence.go).
//
//  2. Scavenging. Each cub answers with its inventory: one
//     representative (furthest-progress) viewer state per play instance
//     in its window — including starts still queued for a slot and
//     primaries it is covering from mirror pieces — plus the parked
//     re-admission tickets it retains and its governor-fence high-water
//     mark. The new incarnation folds the replies into a rebuilt plays
//     map, per-generation admission load, parked set and fence.
//
//  3. Dedup. States are folded per instance (a stream appears in
//     several cubs' windows); parked tickets are deduped by instance
//     and dropped when the viewer already has a live play — the dead
//     incarnation resumed it and crashed before every cub saw the
//     Resume — so no stream is double-admitted and every parked stream
//     resumes exactly once.
//
// Cubs never stop serving: the schedule needs no controller to run, so
// every active stream plays through the outage untouched.

// ErrControllerDown is returned to a start request while the controller
// incarnation is crashed (a real deployment's connection refusal).
var ErrControllerDown = errors.New("controller: down")

// ErrScavenging is returned to a start request while a takeover
// scavenge is folding cub inventories; callers should retry after the
// scavenge window (one RTT, bounded by the deadman closeout).
var ErrScavenging = errors.New("controller: takeover scavenge in progress")

// Epoch returns the controller incarnation's epoch. It starts at 1 and
// bumps on every Restart, so any order stamped with an older epoch is
// provably from a dead incarnation.
func (c *Controller) Epoch() int32 { return int32(c.scav.token) }

// Down reports whether the controller incarnation is crashed.
func (c *Controller) Down() bool { return c.down }

// Scavenging reports whether a takeover scavenge is still folding cub
// inventories; admission is refused while it is.
func (c *Controller) Scavenging() bool { return c.scav.open }

// Start begins the controller's periodic heartbeat broadcast, which is
// what lets cubs run a deadman for the controller itself. Idempotent;
// harnesses that never call it get the historical silent controller.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	c.hbTick()
}

// allCubs returns the union of cub IDs across every installed
// generation — during a grow restripe the new generation's extra cubs
// must hear heartbeats and scavenge requests too. Cub IDs are dense per
// generation, so the union is 0..max-1.
func (c *Controller) allCubs() int {
	n := 0
	for _, g := range c.gens {
		n = max(n, g.Layout.Cubs)
	}
	return n
}

func (c *Controller) hbTick() {
	if c.down {
		return
	}
	now := c.clk.Now()
	hb := c.hb.next(msg.Heartbeat{From: msg.Controller, Epoch: c.Epoch(), Now: int64(now)}, c.allCubs())
	// Steady (jitter-free) delivery when the transport offers it: the
	// heartbeat is periodic background traffic, and drawing per-send
	// jitter from the simulation's shared randomness stream would
	// re-roll the alignment of every unrelated experiment just by
	// existing.
	send := c.net.Send
	if s, ok := c.net.(SteadySender); ok {
		send = s.SendSteady
	}
	for i := 0; i < c.allCubs(); i++ {
		send(msg.Controller, msg.NodeID(i), hb)
	}
	c.hbTimer = c.clk.After(c.cfg.HeartbeatInterval, c.onHB)
}

// Reclaim implements netsim.Reclaimer: the heartbeat's, starts' and stops'
// records come back for reuse; every other message is left to the collector.
func (c *Controller) Reclaim(_ msg.NodeID, m msg.Message) {
	switch t := m.(type) {
	case *msg.StartPlay:
		c.freeStarts.Put(t, maxFreeCopies)
	case *msg.Deschedule:
		c.freeDescs.Put(t, maxFreeCopies)
	default:
		c.hb.back(m)
	}
}

// Crash makes the incarnation inert in place: timers stop, deliveries
// drop, and no further orders leave. The object survives because the
// harness holds the pointer (mirroring Cub.Restart's in-place model);
// everything an incarnation would lose is wiped by Restart.
func (c *Controller) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.hbTimer.Stop()
	c.rs.tick.Stop()
	c.scav.close()
}

// Restart brings up a new controller incarnation: bump the epoch, wipe
// every piece of volatile state, and broadcast a ScavengeReq so the
// cubs' inventories rebuild it. Installed generations, the active
// generation and an unfinished restripe run survive — they are
// configuration, not view. nextInstance is also kept: a production
// controller salts the instance space with its epoch so a new
// incarnation can never re-issue a live ID; the in-place restart models
// that by keeping the counter, and the fold still raises it past
// anything a cub reports.
func (c *Controller) Restart() {
	if !c.down {
		c.Crash()
	}
	c.down = false
	c.stats.Takeovers++
	c.plays = make(map[msg.InstanceID]*playRecord)
	c.freePlays.Wipe()
	c.active = 0
	c.genLoad = make(map[int32]int)
	c.rs = restriperState{restripeRun: c.rs.restripeRun}
	c.gov = governorState{}
	c.hb = heartbeat{}

	c.scavParked = make(marks[msg.InstanceID, msg.ScavengedPark])
	cubs := make([]msg.NodeID, c.allCubs())
	for i := range cubs {
		cubs[i] = msg.NodeID(i)
	}
	// A cub that is itself dead never answers; the closeout ends the fold
	// after a deadman timeout so the takeover clock always stops.
	c.scav.begin(c.clk, c.scav.token+1, cubs, func(z msg.NodeID) {
		c.net.Send(msg.Controller, z, &msg.ScavengeReq{Epoch: c.Epoch()})
	}, c.cfg.DeadmanTimeout, c.finishScavenge)
	c.started = true
	c.hbTick()
	if len(c.scav.pending) == 0 {
		c.finishScavenge()
	}
}

// onScavengeReply folds one cub's inventory into the rebuilt state. Its
// fence (Controller.admit) has dropped answers to a previous
// incarnation's request and duplicates.
func (c *Controller) onScavengeReply(r *msg.ScavengeReply) {
	c.stats.ScavengeReplies++
	c.gov.fence.admit(r.GovFence)
	for i := range r.States {
		vs := &r.States[i]
		if vs.Instance > c.nextInstance {
			c.nextInstance = vs.Instance
		}
		// Due == 0 marks a start still queued for a slot; its Slot field
		// carries the gen-tagged primary disk, not a schedule slot.
		queued := vs.Due == 0
		rec := c.plays[vs.Instance]
		if rec == nil {
			gen := GenOf(vs.Slot)
			gcfg := c.gens[gen]
			if gcfg == nil {
				gen = c.activeGen
				gcfg = c.gens[gen]
			}
			rec = &playRecord{
				inst:       vs.Instance,
				viewer:     vs.Viewer,
				file:       vs.File,
				startBlock: vs.Block,
				bitrate:    vs.Bitrate,
				slot:       -1,
				state:      PlayQueued,
				issued:     c.clk.Now(),
				gen:        gen,
			}
			if queued && gcfg != nil {
				rec.primary = gcfg.Layout.CubOfDisk(int(RawSlot(vs.Slot)) % gcfg.Sched.NumDisks)
			}
			c.plays[vs.Instance] = rec
			c.genLoad[gen]++
			c.stats.ScavengedPlays++
		}
		if !queued && rec.state == PlayQueued {
			rec.state = PlayActive
			rec.slot = vs.Slot
			c.active++
			if c.active > c.stats.MaxActive {
				c.stats.MaxActive = c.active
			}
		}
	}
	for i := range r.Parked {
		p := &r.Parked[i]
		if p.Instance > c.nextInstance {
			c.nextInstance = p.Instance
		}
		// Every cub holding a ticket got it from the one Park broadcast
		// for its instance and fence, so which copy of an equal fence is
		// kept does not matter.
		c.scavParked.admit(p.Instance, p.Fence, *p)
	}
	if c.scav.heard(r.From) {
		c.finishScavenge()
	}
}

// finishScavenge installs the folded state and re-opens admission.
func (c *Controller) finishScavenge() {
	c.scav.close()

	// Install recovered park tickets — except those whose viewer already
	// has a live play: the dead incarnation resumed that stream and
	// crashed before every cub saw the Resume, so re-admitting the
	// ticket would double-serve the viewer.
	g := &c.gov
	g.init()
	liveViewer := make(map[msg.ViewerID]bool, len(c.plays))
	for _, rec := range c.plays {
		if rec.state != PlayDone {
			liveViewer[rec.viewer] = true
		}
	}
	for _, inst := range keysInOrder(c.scavParked) {
		p := c.scavParked[inst].v
		if liveViewer[p.Viewer] {
			continue
		}
		t := &ParkTicket{Viewer: p.Viewer, OldInstance: p.Instance, File: p.File,
			ResumeBlock: p.ResumeBlock, Bitrate: p.Bitrate, Fence: p.Fence}
		g.parked[inst] = t
		g.queue = append(g.queue, t)
		g.stats.Parks++
		c.stats.ScavengedParks++
	}
	c.scavParked = nil

	c.takeover.Observe(c.clk.Now().Sub(c.scav.began).Seconds())
	if c.OnScavenged != nil {
		c.OnScavenged()
	}
	if c.rs.plan != nil {
		c.armRestripe() // the dead incarnation's copy was interrupted
	}
	// If capacity is whole and recovered tickets are waiting, drain them;
	// when the replayed down-set re-armed the governor instead, the
	// ordinary NoteCubUp path drains once coverage returns.
	if len(g.unservable) == 0 && len(g.queue) > 0 && !g.draining {
		g.draining = true
		c.clk.After(c.cfg.DeadmanTimeout, c.drainParked)
	}
	c.ensureGovTick()
}

// TakeoverTimes returns the histogram of restart-to-rebuilt durations
// (seconds).
func (c *Controller) TakeoverTimes() *obs.Histogram { return c.takeover }

// --- cub side ---

// parkedTicketTTL bounds how long a cub retains a parked stream's
// re-admission ticket with no Resume arriving. Generous — tickets exist
// precisely to survive a controller outage plus a governor episode —
// but finite, so a stream abandoned forever does not pin the map.
const parkedTicketTTL = 10 * time.Minute

// ctlAlive feeds the cub's deadman for the controller: a heartbeat or a
// scavenge request is its proof of life. The cub keeps serving either
// way — the schedule needs no controller to run — so a controller death
// only flips an observability flag here.
func (c *Cub) ctlAlive() {
	c.ctlLastSeen = c.clk.Now()
	c.ctlDown = false
}

// ctlDeadmanCheck runs from heartbeatTick: a controller that has
// heartbeated before and then fallen silent past the deadman window is
// declared down. Armed only after the first controller heartbeat, so
// harnesses that never start the controller's broadcast see nothing.
func (c *Cub) ctlDeadmanCheck(now sim.Time) {
	if c.ctlLastSeen == 0 || c.ctlDown {
		return
	}
	if now.Sub(c.ctlLastSeen) > c.cfg.DeadmanTimeout {
		c.ctlDown = true
		c.stats.CtlDeclaredDead++
	}
}

// ControllerDown reports whether this cub's deadman currently believes
// the controller dead.
func (c *Cub) ControllerDown() bool { return c.ctlDown }

// CtlEpoch returns the highest controller epoch this cub has seen.
func (c *Cub) CtlEpoch() int32 { return int32(c.ctl) }

// ParkedTickets returns how many parked-stream re-admission tickets
// this cub currently retains.
func (c *Cub) ParkedTickets() int { return len(c.parkedTickets.m) }

// onScavengeReq answers a new controller incarnation with this cub's
// inventory: one representative viewer state per play instance in its
// window, queued starts it holds, and its parked-stream tickets. The
// request doubles as the fence announcement — its row of the fence table
// raises the epoch high-water mark before the reply leaves, so nothing
// the dead incarnation still has in flight can slip in behind the fold.
func (c *Cub) onScavengeReq(q msg.ScavengeReq) {
	c.ctlAlive()
	c.stats.ScavengesServed++

	// The furthest state per play, its block the token.
	best := make(marks[msg.InstanceID, msg.ViewerState])
	for _, k := range c.view.sortedKeys(nil) {
		e := c.view.get(k)
		if c.parkedInst.has(e.vs.Instance) {
			continue // a parked stream's stragglers are not a live play
		}
		vs := e.vs
		if k.part >= 0 {
			// The play is live even if every primary state sits on dead
			// cubs.
			vs = c.primaryOf(e.vs)
		}
		best.admit(vs.Instance, vs.Block, vs)
	}
	// Starts still waiting for a slot — queued under a (gen, disk) key
	// or held as a redundant copy for a neighbour. Reported with Due 0
	// (no schedule position yet) and the gen-tagged primary disk in
	// Slot; at token 0 a real state for the same instance wins the fold.
	addQueued := func(req startReq) {
		best.admit(req.sp.Instance, 0, msg.ViewerState{Viewer: req.sp.Viewer, Instance: req.sp.Instance,
			File: req.sp.File, Block: req.sp.StartBlock, Slot: req.dkey, Bitrate: req.sp.Bitrate})
	}
	for _, k := range keysInOrder(c.queue) {
		for _, req := range c.queue[k] {
			addQueued(req)
		}
	}
	for _, req := range c.redundantStart {
		addQueued(req)
	}

	reply := &msg.ScavengeReply{From: c.id, ForEpoch: q.Epoch, GovFence: int32(c.govMark)}
	for _, inst := range keysInOrder(best) {
		reply.States = append(reply.States, best[inst].v)
	}
	for _, inst := range keysInOrder(c.parkedTickets.m) {
		reply.Parked = append(reply.Parked, c.parkedTickets.m[inst])
	}
	c.net.Send(c.id, msg.Controller, reply)
}
