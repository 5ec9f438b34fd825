package core

import (
	"fmt"
	"slices"

	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/recycle"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file implements the viewer-state gossip of §4.1.1: accepting and
// deduplicating states, serving their blocks, forwarding next-hop states
// to the successor and second successor, and the mirror viewer-state
// chains that cover failed components.

// --- viewer state handling (§4.1.1) ---

func (c *Cub) onViewerState(vs msg.ViewerState) {
	c.stats.StatesRecv++
	now := c.clk.Now()

	// Too late to matter: any deschedule for it would already have been
	// discarded, so accepting it could resurrect a stopped viewer.
	if vs.Due < int64(now)-int64(c.cfg.DescheduleHold) {
		c.stats.StatesLate++
		return
	}
	if c.desch.has(descKey{vs.Slot, vs.Instance}) {
		return
	}
	if c.parkedInst.has(vs.Instance) {
		// The governor parked this stream; states still gossiping around
		// the ring die here instead of resurrecting it (park.go).
		return
	}

	// Resolve the striping generation the slot belongs to. A state for an
	// uninstalled generation — dropped after its drain, or never seen —
	// is fenced out exactly like a late state: it must not touch the view.
	cfg := c.cfgOf(vs.Slot)
	if cfg == nil {
		c.stats.StatesLate++
		return
	}

	if vs.Mirror {
		c.acceptMirror(vs)
		c.flushForwards()
		return
	}

	target := int(vs.OrigDisk) // primary states carry their target disk
	hops := ringDist(cfg, cfg.Layout.CubOfDisk(target), c.id)

	// Create mirror states for any services on the way to us whose cub
	// we believe dead and whose first living successor we are; this is
	// both the adjacent-failure case and the bridged-gap case (§2.3).
	for j := 0; j < hops; j++ {
		d := (target + j) % cfg.Sched.NumDisks
		cd := cfg.Layout.CubOfDisk(d)
		if c.believedDead[cd] && c.firstLivingSuccessorOfIn(cfg.Layout, cd) {
			if mvs := hop(cfg, vs, j); c.fileHasBlock(mvs.File, mvs.Block) && mvs.Due > int64(now) {
				c.createMirrors(mvs, d)
			}
		}
	}

	// Advance the state to our own disk's service of this stream.
	mine := hop(cfg, vs, hops)
	myDisk := int(mine.OrigDisk)
	if cfg.Layout.CubOfDisk(myDisk) != c.id {
		panic(fmt.Sprintf("cub %v: disk arithmetic broken for target %d hops %d", c.id, target, hops))
	}
	if !c.fileHasBlock(mine.File, mine.Block) {
		return // the stream ends before it reaches us
	}
	c.acceptPrimary(mine, myDisk)
	c.flushForwards()
}

// hop returns vs moved j services along its stream, back for j < 0: the
// block and play sequence j on, due j block plays later, on the disk j
// places after its own in cfg's generation.
func hop(cfg *Config, vs msg.ViewerState, j int) msg.ViewerState {
	n := cfg.Sched.NumDisks
	vs.Block += int32(j)
	vs.PlaySeq += int32(j)
	vs.Due += int64(j) * int64(cfg.Sched.BlockPlay)
	vs.OrigDisk = int32(((int(vs.OrigDisk)+j)%n + n) % n)
	return vs
}

func (c *Cub) fileHasBlock(f msg.FileID, b int32) bool {
	file, ok := c.cfg.Files[f]
	return ok && b >= 0 && int(b) < file.Blocks
}

// acceptPrimary installs a viewer state for one of this cub's own
// disks. d is numbered in the slot's generation; the entry records the
// drive's native number so reads and health tracking stay
// generation-blind.
func (c *Cub) acceptPrimary(vs msg.ViewerState, d int) {
	cfg := c.cfgOf(vs.Slot)
	if cfg == nil {
		c.stats.StatesLate++
		return
	}
	dr := c.driveOfDisk(cfg.Layout, d)
	key := entryKey{vs.Slot, -1, vs.Due}
	if old := c.view.get(key); old != nil {
		if old.vs.Instance == vs.Instance {
			c.stats.StatesDup++
		} else {
			// §4.1.3's ordering argument makes this unreachable in a
			// correctly functioning system; count it rather than guess.
			c.stats.Conflicts++
		}
		return
	}
	now := c.clk.Now()
	if vs.Due <= int64(now) {
		// Within the deschedule hold but already overdue: the send is
		// missed, but the stream must continue downstream (§4.1.2).
		c.recordMiss(vs)
		c.forwardEntryNow(vs)
		return
	}
	if dr.out() {
		// Our own drive is dead: we are the deciding component; serve
		// the block from its declustered mirrors instead.
		c.createMirrors(vs, d)
		c.forwardEntryNow(vs)
		return
	}
	e := c.newEntry(key, vs, dr.native)
	c.step(trace.State, &vs, int32(dr.native))
	c.scheduleEntry(e)
}

// scheduleEntry puts an entry on its drive's walk, which starts its
// disk read and makes its network send when they fall due.
func (c *Cub) scheduleEntry(e *entry) { c.driveOf(e).walk.insert(e) }

// issueRead starts the entry's read once the content index of its
// generation places the copy on its drive; a generation this cub is not
// part of places nothing here.
func (c *Cub) issueRead(e *entry) {
	c.stats.DiskReads++
	cfg := c.cfgOf(e.key.slot)
	if cfg == nil || !c.participatesIn(cfg) {
		c.stats.IndexMisses++
		return
	}
	ie, err := cfg.lookup(c.genLocalDisk(cfg.Layout, e.disk), e.vs.File, e.vs.Block, e.key.part)
	if err != nil {
		c.stats.IndexMisses++
		return
	}
	// The block DMAs into a pre-allocated buffer held until the network
	// send completes (§2.2's zero-copy disk-to-network path); account
	// for the pool so tests can check it against the cubs' real memory.
	e.buffered = ie.bytes
	c.bufAdjust(ie.bytes)
	dr := c.driveOf(e)
	due := sim.Time(e.vs.Due)
	// Gray-failure hedge (health.go): on a suspected drive, a read whose
	// predicted completion would miss the deadline gets its mirror chain
	// launched in parallel; service() sends whichever copy is ready.
	if e.key.part == -1 && c.shouldHedge(dr, ie.bytes, ie.zone, due) {
		c.hedgeEntry(e)
		c.flushForwards()
	}
	c.step(trace.DiskQueue, &e.vs, int32(e.disk))
	e.readIssued, e.readZone = c.clk.Now(), ie.zone
	e.pins++
	e.readID = dr.dk.Read(ie.bytes, ie.zone, due, e.onReadDone)
}

// readDone is the disk completion of the entry's outstanding read. The
// drive never completes a read that Cancel withdrew, and every path that
// takes an entry out of the view withdraws its read, so the entry is
// normally still there; the health monitor fed below is the exception —
// it may retire the whole drive, this entry included, from inside the
// completion.
func (e *entry) readDone(done sim.Time, ok bool) {
	defer e.unpin()
	c := e.c
	due, bytes := sim.Time(e.vs.Due), e.buffered
	c.noteRead(c.driveOf(e), e.readIssued, due, done, bytes, e.readZone, ok)
	if !e.live {
		// The entry left the view while the read was completing;
		// discard the buffer.
		c.bufAdjust(-bytes)
		return
	}
	e.readID = 0
	if !ok {
		// Transient read failure: release the buffer and retry while
		// the deadline allows. Repeated failures feed the health
		// monitor, whose suspicion makes the retry hedge to the
		// mirrors (shouldHedge returns true mid-streak).
		c.bufAdjust(-bytes)
		e.buffered = 0
		c.stats.DiskReadErrors++
		if due > c.clk.Now() {
			c.issueRead(e)
		}
		return
	}
	e.ready = true
	c.step(trace.DiskRead, &e.vs, int32(e.disk))
}

// service runs at an entry's due time: send the block if its read
// completed, otherwise report a missed block (§5's server-side loss
// path). It holds a pin while it reads the entry out of the view, so
// the record goes back when it returns.
func (c *Cub) service(e *entry) {
	e.pins++
	defer e.unpin()
	c.dropEntry(e)
	if !e.ready {
		// The read did not complete in time. Feed the health monitor
		// first — for a stuck drive, these misses are its only signal —
		// then withdraw the read: if it is still queued it never starts
		// (and is never charged), and either way its callback will not
		// fire, so the buffer is released here.
		c.noteDeadlineMiss(c.driveOf(e))
		c.cancelRead(e)
		if e.hedged {
			// The hedge's mirror chain covers this send: the viewer
			// assembles the block from the declustered pieces, so the
			// block is not lost and the miss is not recorded as one.
			c.stats.HedgeMirrorWins++
			return
		}
		c.recordMiss(e.vs)
		return
	}
	if e.hedged {
		// Local read beat the fault after all; the mirror pieces arrive
		// as duplicates the verification client tolerates.
		c.stats.HedgeLocalWins++
	}
	pace := c.cfg.Sched.BlockPlay
	bytes := c.cfg.BlockSize
	parts := int8(1)
	if e.vs.Mirror {
		pace = c.cfg.MirrorPace()
		bytes = c.cfg.MirrorPartSize()
		parts = int8(c.cfg.Layout.Decluster)
	}
	c.data.SendBlock(c.id, netsim.BlockDelivery{
		Viewer:   e.vs.Viewer,
		Instance: e.vs.Instance,
		Addr:     e.vs.Addr,
		File:     e.vs.File,
		Block:    e.vs.Block,
		PlaySeq:  e.vs.PlaySeq,
		Bytes:    bytes,
		Mirror:   e.vs.Mirror,
		Part:     maxI8(e.vs.Part, 0),
		Parts:    parts,
	}, pace)
	if e.vs.Mirror {
		c.stats.PiecesSent++
	} else {
		c.stats.BlocksSent++
	}
	// The buffer frees once the paced send finishes.
	c.bufReleases.Add(c.clk.Now().Add(pace), e.buffered)
	c.step(trace.Serve, &e.vs, int32(e.disk))
}

func maxI8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

func (c *Cub) bufAdjust(delta int64) {
	c.settleBuffers()
	c.bufBytes += delta
	if c.bufBytes > c.stats.PeakBuffered {
		c.stats.PeakBuffered = c.bufBytes
	}
}

// settleBuffers hands back the buffers of the sends that have completed
// by now. A completed send is no event — nothing but the two readers
// below and the peak can tell when it happened — so it is applied by
// reading the clock, before the pool is next changed or read. Only an
// addition can raise the peak, so settling ahead of each one keeps the
// high-water mark exact; a buffer due back at the very instant another
// is taken goes back first.
func (c *Cub) settleBuffers() {
	now := c.clk.Now()
	for c.bufReleases.Due(now) {
		_, n := c.bufReleases.Pop()
		c.bufBytes -= n
	}
}

// BufferedBytes returns the block buffers currently held.
func (c *Cub) BufferedBytes() int64 {
	c.settleBuffers()
	return c.bufBytes
}

func (c *Cub) recordMiss(vs msg.ViewerState) {
	c.stats.ServerMisses++
	c.step(trace.Miss, &vs, -1)
}

// dropEntryRelease removes an entry and releases any completed read's
// buffer. Deschedule and disk-failure paths use it; the service path
// uses dropEntry directly because it frees the buffer after the send.
// An entry whose read is still outstanding has the read withdrawn — a
// descheduled viewer's prefetch should not occupy a drive — and since a
// cancelled read's callback never fires, the buffer is released here.
func (c *Cub) dropEntryRelease(key entryKey) {
	e := c.view.get(key)
	if e == nil {
		return
	}
	if e.buffered > 0 {
		if e.ready {
			c.bufAdjust(-e.buffered)
			e.buffered = 0
		} else {
			c.cancelRead(e)
		}
	}
	c.dropEntry(e)
}

// cancelRead withdraws an entry's outstanding read, if any. A withdrawn
// read never completes, so its buffer and its pin are released here.
func (c *Cub) cancelRead(e *entry) {
	if e.readID != 0 && c.driveOf(e).dk.Cancel(e.readID) {
		c.bufAdjust(-e.buffered)
		e.buffered = 0
		e.pins--
	}
}

// dropEntry takes an entry out of the view and off its drive's walk.
// The record is recycled once nothing can call back into it
// (entry.pins).
func (c *Cub) dropEntry(e *entry) {
	c.driveOf(e).walk.unlink(e)
	e.live = false
	c.view.del(e.key)
	e.retire()
}

// --- mirror viewer states (§4.1.1) ---

// createMirrors starts the mirror viewer-state chain for the service of
// block vs.Block on dead (or failed) disk d. The paper forwards ONE
// mirror viewer state from covering cub to covering cub — "for each
// primary viewer state forwarded, the mirroring cub must also forward a
// mirror viewer state" — with each piece's send paced blockPlay/decluster
// after the previous (§4.1.1). That hop-forwarding is what keeps
// failed-mode control traffic at roughly double the unfailed rate.
func (c *Cub) createMirrors(vs msg.ViewerState, d int) {
	mvs := vs
	mvs.Mirror = true
	mvs.Part = 0
	mvs.OrigDisk = int32(d)
	c.stats.MirrorsMade++
	c.routeMirror(mvs)
}

// routeMirror delivers a mirror viewer state to the cub holding its
// piece's disk, skipping (and counting) pieces whose holders are dead.
// Like primary states, mirror states are sent redundantly — a second,
// pre-derived copy goes to the following piece's cub — so the loss of a
// single covering cub does not sever the piece chain.
func (c *Cub) routeMirror(mvs msg.ViewerState) {
	cfg := c.cfgOf(mvs.Slot)
	if cfg == nil {
		return // generation gone; nothing left to cover
	}
	pace := int64(cfg.MirrorPace())
	for int(mvs.Part) < cfg.Layout.Decluster {
		pd := cfg.Layout.SecondaryDiskFor(int(mvs.OrigDisk), int(mvs.Part))
		pc := cfg.Layout.CubOfDisk(pd)
		if c.believedDead[pc] {
			c.stats.PiecesLost++
			mvs.Part++
			mvs.Due += pace
			continue
		}
		if pc == c.id {
			// Local accept re-enters routeMirror for the next piece,
			// which provides the redundant send itself.
			c.acceptMirror(mvs)
			return
		}
		c.enqueueForward(pc, c.stage(mvs))
		// Redundant copy of the next piece's state to its holder, so a
		// single covering-cub failure cannot sever the chain (the mirror
		// analogue of primary double forwarding).
		next := mvs
		next.Part++
		next.Due += pace
		if int(next.Part) < cfg.Layout.Decluster {
			nd := cfg.Layout.SecondaryDiskFor(int(next.OrigDisk), int(next.Part))
			nc := cfg.Layout.CubOfDisk(nd)
			if nc != pc && nc != c.id && !c.believedDead[nc] {
				c.enqueueForward(nc, c.stage(next))
			}
		}
		return
	}
}

// acceptMirror installs a mirror viewer state on the cub holding that
// piece's disk and forwards the next piece's state onward.
func (c *Cub) acceptMirror(vs msg.ViewerState) {
	cfg := c.cfgOf(vs.Slot)
	if cfg == nil {
		c.stats.StatesLate++
		return
	}
	pd := cfg.Layout.SecondaryDiskFor(int(vs.OrigDisk), int(vs.Part))
	if cfg.Layout.CubOfDisk(pd) != c.id {
		return // mis-routed; the piece will be reported lost client-side
	}
	dr := c.driveOfDisk(cfg.Layout, pd)
	key := entryKey{vs.Slot, vs.Part, vs.Due}
	if old := c.view.get(key); old != nil {
		if old.vs.Instance == vs.Instance {
			c.stats.StatesDup++
		} else {
			c.stats.Conflicts++
		}
		return // the original acceptance already forwarded the chain
	}
	switch {
	case dr.out():
		c.stats.PiecesLost++
	case vs.Due <= int64(c.clk.Now()):
		c.recordMiss(vs)
	default:
		e := c.newEntry(key, vs, dr.native)
		c.step(trace.State, &vs, int32(dr.native))
		c.scheduleEntry(e)
	}
	// Pass the mirror state to the next piece's cub, due one mirror pace
	// later, whether or not our own piece could be served: the stream
	// should miss as little as possible.
	next := vs
	next.Part++
	next.Due += int64(cfg.MirrorPace())
	if int(next.Part) < cfg.Layout.Decluster {
		c.routeMirror(next)
	}
}

// --- forwarding (§4.1.1) ---

// forwardTick is the periodic batcher: it forwards, to the successor and
// second successor, the next-hop viewer state of every entry whose
// successor service has come within MaxVStateLead.
//
// The candidates are what each drive's walk holds between its forward
// cursor and the horizon, so the tick costs the number of entries
// crossing the horizon, not the view, and a batch is composed in (drive,
// due) order. They are collected before any forwarding so next-hop
// entries a forward installs on this same cub (proxy insertion,
// single-cub rings) wait for the next tick, as they always have.
func (c *Cub) forwardTick() {
	// An entry is forwarded once its successor's service, one block play
	// time after its own, is inside the horizon.
	limit := int64(c.clk.Now()) + int64(c.cfg.MaxVStateLead) - int64(c.cfg.Sched.BlockPlay)
	due := c.fwdScratch[:0]
	for i := range c.drives {
		due = c.drives[i].walk.crossing(limit, due)
	}
	for _, e := range due {
		if !e.live || e.forwarded || e.vs.Mirror {
			continue // dropped by an earlier forward, or forwarded out of band
		}
		e.forwarded = true
		c.forwardEntryNow(e.vs)
	}
	c.fwdScratch = due // keep the grown backing array for the next tick
	c.flushForwards()
	c.clk.After(c.cfg.ForwardInterval, c.onForward)
}

// fwdKeyLess orders entry keys by (due, slot, part): the view's
// sortedKeys order.
func fwdKeyLess(a, b entryKey) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.part < b.part
}

// forwardEntryNow queues the next-hop state derived from vs for delivery
// to the first and second living successors.
func (c *Cub) forwardEntryNow(vs msg.ViewerState) {
	cfg := c.cfgOf(vs.Slot)
	if cfg == nil {
		return // generation dropped; its streams are all gone
	}
	next := hop(cfg, vs, 1)
	nextDisk := int(next.OrigDisk)
	if !c.fileHasBlock(next.File, next.Block) {
		return // end of file: the viewer leaves the schedule (§4.1.2)
	}
	if cfg.Layout.CubOfDisk(nextDisk) == c.id {
		// The next service is on one of our own disks. This happens when
		// we proxy-inserted for a dead predecessor's disk (the stream's
		// next block is ours to send) and in single-cub systems.
		if c.driveOfDisk(cfg.Layout, nextDisk).out() {
			c.createMirrors(next, nextDisk)
			c.forwardEntryNow(next)
		} else {
			c.acceptPrimary(next, nextDisk)
		}
	}
	// Both successors are sent the same staged record: enqueueForward
	// stamps it once with one epoch, a receiver copies it on arrival and
	// the mesh writer only encodes it.
	var staged *msg.ViewerState
	s1, ok1 := c.nthLivingSuccessorIn(cfg.Layout, 1)
	if ok1 {
		staged = c.stage(next)
		c.enqueueForward(s1, staged)
	}
	if c.cfg.SingleForward {
		return
	}
	s2, ok2 := c.nthLivingSuccessorIn(cfg.Layout, 2)
	if ok2 && s2 != s1 {
		if staged == nil {
			staged = c.stage(next)
		}
		c.enqueueForward(s2, staged)
	}
}

// stage gives vs a slot in the array of states this flush hands to the
// network and returns it. The array is the spare, if a flush's came
// back (Reclaim), or one made when the first state of a flush needs it,
// at fwdStatesLen: a transport that returns nothing leaves every flush
// to make one. A full array grows by half, not append's double, since
// it may be kept.
func (c *Cub) stage(vs msg.ViewerState) *msg.ViewerState {
	if c.fwdStates == nil {
		c.fwdStates, c.fwdSpare = c.fwdSpare, nil
	}
	if n := len(c.fwdStates); n == cap(c.fwdStates) {
		grown := make([]msg.ViewerState, n, max(n+n/2, n+1, c.fwdStatesLen))
		copy(grown, c.fwdStates)
		c.fwdStates = grown
	}
	c.fwdStates = append(c.fwdStates, vs)
	return &c.fwdStates[len(c.fwdStates)-1]
}

func (c *Cub) enqueueForward(to msg.NodeID, vs *msg.ViewerState) {
	// Every outgoing viewer state is stamped with the sender's current
	// liveness epoch here, the single choke point all gossip flows
	// through; receivers fence on it (peerLive) so a restarted cub's
	// pre-crash gossip cannot be mistaken for fresh state.
	vs.Epoch = c.Epoch()
	b := c.fwdPending[to]
	if b == nil {
		b = new(msg.Batch)
		c.fwdPending[to] = b
	}
	b.Msgs = append(b.Msgs, vs)
	c.fwdQueued = true
}

// maxGossipOut bounds fwdOut: a flush sends to the two successors, and
// outside a burst a second flush (an insertion's beside a forward
// tick's) is the most that overlaps it. A burst's further sends (a
// death's mirrors, a rejoin's) go out as though they would not come
// back; keeping them would save nothing, since a burst's arrays
// outnumber the one spare.
const maxGossipOut = 4

// gossipSend is a send of a flush that the network will hand back: a
// batch, or a lone state, with the flush's array while every send of it
// comes back.
type gossipSend struct {
	m      msg.Message
	flush  uint64
	states []msg.ViewerState // nil once a send of the flush will not come back
}

// flushForwards sends all queued per-target batches, in target order
// for run-to-run determinism. A target's lone message goes out by
// itself, and its batch stays.
//
// A flush's state array, batches and slices are never written again
// until the network hands them back (Reclaim). A send to a target that
// returns records waits on fwdOut, if it has room; a batch to any other
// target, or past the room, is left to the collector, and the target's
// next is made at its size. The array is reused only if every send of
// it comes back, once all have, and a flush that sends a batch gives up
// an array it leaves sparse: a burst (a death's mirrors, a rejoin) grew
// it.
func (c *Cub) flushForwards() {
	if !c.fwdQueued {
		return
	}
	c.fwdQueued = false
	c.fwdFlushes++
	states, first := c.fwdStates, len(c.fwdOut)
	// The next array is sized at this flush's length, or half the last
	// size if that is more, so a flush of a state or two between forward
	// ticks (an insertion's, a healed death's) does not leave the next
	// tick's array to grow from one.
	c.fwdStatesLen = max(len(states), c.fwdStatesLen/2)
	kept, batched := true, false
	c.fwdStates = nil
	targets := c.fwdTargetScratch[:0]
	for to := range c.fwdPending {
		targets = append(targets, to)
	}
	slices.Sort(targets)
	c.fwdTargetScratch = targets
	for _, to := range targets {
		b := c.fwdPending[to]
		if b == nil || len(b.Msgs) == 0 {
			continue
		}
		n := len(b.Msgs)
		ret := returns(c.net, c.id, to) && len(c.fwdOut) < maxGossipOut
		var m msg.Message = b
		switch {
		case n == 1:
			m = b.Msgs[0]
			clear(b.Msgs)
			b.Msgs = b.Msgs[:0]
		case ret:
			c.fwdPending[to], batched = nil, true
		default:
			c.fwdPending[to], batched = &msg.Batch{Msgs: make([]msg.Message, 0, n)}, true
		}
		if ret {
			c.fwdOut = append(c.fwdOut, gossipSend{m, c.fwdFlushes, states})
		} else {
			kept = false
		}
		c.net.Send(c.id, to, m)
		c.stats.GossipBatches++
		c.stats.GossipMsgs += int64(n)
	}
	if !kept || batched && sparse(states) {
		for i := first; i < len(c.fwdOut); i++ {
			c.fwdOut[i].states = nil
		}
	}
}

// Reclaim implements netsim.Reclaimer. A returned batch is its target's
// pending batch again, unless it came back sparse or the target has
// queued since into one with a longer slice; when the last send of a
// flush is back, its array is the spare unless the spare is longer. The
// heartbeat's record counts its sends back (deadman.go). Anything else
// is left to the collector.
func (c *Cub) Reclaim(to msg.NodeID, m msg.Message) {
	if c.hb.back(m) {
		return
	}
	i := 0
	for i < len(c.fwdOut) && c.fwdOut[i].m != m {
		i++
	}
	if i == len(c.fwdOut) {
		return // of a flush before a restart, or past fwdOut's room
	}
	s := c.fwdOut[i]
	c.fwdOut = slices.Delete(c.fwdOut, i, i+1)
	if b, ok := s.m.(*msg.Batch); ok && !sparse(b.Msgs) {
		clear(b.Msgs)
		b.Msgs = b.Msgs[:0]
		if p := c.fwdPending[to]; recycle.Reuse(b) && (p == nil || len(p.Msgs) == 0 && cap(p.Msgs) < cap(b.Msgs)) {
			c.fwdPending[to] = b
		}
	}
	if s.states == nil || cap(s.states) <= cap(c.fwdSpare) {
		return
	}
	for _, o := range c.fwdOut {
		if o.flush == s.flush {
			return // a send of the flush is still out
		}
	}
	if recycle.Reuse(s.states) {
		c.fwdSpare = s.states[:0]
	}
}

// sparse reports whether a used array or slice filled less than a
// quarter of its capacity: a burst grew it, and it is not kept.
func sparse[S ~[]E, E any](s S) bool { return cap(s) > 4*len(s) }
