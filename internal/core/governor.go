package core

import (
	"sort"

	"tiger/internal/msg"
)

// The degradation governor (DESIGN §16). Declustered mirroring survives
// any single cub loss, but a second death inside a dead cub's decluster
// span makes that cub's disks unservable from either copy. Without a
// policy, every stream whose play trajectory crosses those disks
// scatters deadline misses across the whole viewer population. The
// governor turns that into a deterministic, minimal shed: it computes
// the unservable disks straight from the layout, parks exactly the
// streams whose trajectories reach them before mirrors could recover
// (latest-admitted-first for determinism), and queues them for
// re-admission the moment a rejoin restores coverage. Everything runs
// at the controller — capacity policy is the one job the paper actually
// gives it — and is off unless Config.Governor.Enable is set.

// The governor's park window: a stream at play position p is parked
// when any disk in [p-1, p+guardBlocks+horizon] is unservable. The -1
// end covers a send already in flight; guardBlocks covers reads already
// issued; horizon is how many block plays further ahead the rolling
// sweep looks, so a stream is parked at least horizon block plays
// before its first unservable deadline. The sweep re-runs, and a
// re-admission drain continues, one block play apart; a refused or
// resumed drain waits one deadman timeout, long enough for the
// restarted cub's rejoin handshake to finish.
const (
	guardBlocks = 1
	horizon     = 2
)

// ParkWindows returns how many block plays past a stream's position the
// governor's park sweep looks: look for unservable disks, and lookState
// at the crash instant for disks whose in-flight viewer states died with
// a forwarding pair (in-hand states run up to MaxVStateLead ahead of
// their due times). Both windows start one block play behind.
func (c *Config) ParkWindows() (look, lookState int) {
	return guardBlocks + horizon, int(c.MaxVStateLead/c.Sched.BlockPlay) + guardBlocks
}

// ParkTicket is the re-admission record of one parked stream.
type ParkTicket struct {
	Viewer      msg.ViewerID
	OldInstance msg.InstanceID
	File        msg.FileID
	ResumeBlock int32 // first block the re-admitted stream should play
	Bitrate     int32
	Fence       int32 // governor fence at park time
}

// GovernorStats is a snapshot of the governor's authoritative per-stream
// accounting. Cub-side CubStats count park/resume messages (two cubs see
// each order); these count streams.
type GovernorStats struct {
	Fence      int32 `metric:"tiger_governor_fence,gauge" help:"High-water fence of the governor's CubDown advisories."`
	Parked     int   `metric:"tiger_governor_parked_streams,gauge" help:"Streams currently parked by the degradation governor."`
	QueueLen   int   `metric:"tiger_governor_queued_streams,gauge" help:"Parked streams queued for the next re-admission drain."`
	Parks      int64 `metric:"tiger_governor_parks_total" help:"Streams parked by the degradation governor."`
	Resumes    int64 `metric:"tiger_governor_resumes_total" help:"Parked streams re-admitted after capacity returned."`
	Acks       int64 `metric:"tiger_governor_park_acks_total" help:"Distinct parked instances acknowledged by cubs."`
	Unservable int   `metric:"tiger_governor_unservable_disks,gauge" help:"Disks the governor currently computes mirror-exhausted."`
}

type governorState struct {
	fence      mark                // the current degradation episode
	down       map[msg.NodeID]bool // cubs the governor was told are down
	unservable map[int]bool        // disks unservable under the active layout
	// stateLost marks disks of cubs that died together with their ring
	// predecessor: the in-hand viewer states for those disks died with
	// the cub, and the predecessor's redelivery records died with it.
	// Streams whose play position is inside the state-lead window of
	// such a disk would each lose the in-hand block, so the crash-instant
	// sweep parks them too. Unlike unservable, this exposure does not
	// roll forward — states approaching the dead cub after the crash are
	// routed around it — so only the initial sweep consults it.
	stateLost map[int]bool
	parked    map[msg.InstanceID]*ParkTicket
	queue     []*ParkTicket // FIFO re-admission order
	acked     map[msg.InstanceID]bool
	ticking   bool // rolling park sweep scheduled
	draining  bool // re-admission drain scheduled
	stats     GovernorStats
}

func (g *governorState) init() {
	if g.down == nil {
		g.down = make(map[msg.NodeID]bool)
		g.unservable = make(map[int]bool)
		g.stateLost = make(map[int]bool)
		g.parked = make(map[msg.InstanceID]*ParkTicket)
		g.acked = make(map[msg.InstanceID]bool)
	}
}

// GovernorStats returns the governor's accounting snapshot.
func (c *Controller) GovernorStats() GovernorStats {
	s := c.gov.stats
	s.Fence = int32(c.gov.fence)
	s.Parked = len(c.gov.parked)
	s.QueueLen = len(c.gov.queue)
	s.Unservable = len(c.gov.unservable)
	return s
}

// NoteCubsDown tells the governor the listed cubs just died together —
// the harness calls it from CrashCub/CrashDomain, standing in for the
// out-of-band failure notification a real deployment's rack controller
// would deliver. It advises every live cub immediately (beating the
// deadman window), recomputes the unservable disk set, and parks every
// stream whose trajectory reaches it. No-op unless Governor.Enable.
func (c *Controller) NoteCubsDown(down []msg.NodeID) {
	if !c.cfg.Governor.Enable || len(down) == 0 {
		return
	}
	g := &c.gov
	g.init()
	changed := false
	for _, z := range down {
		if !g.down[z] {
			g.down[z] = true
			changed = true
		}
	}
	if !changed {
		return
	}
	g.fence++

	adv := keysInOrder(g.down)
	c.toLiveCubs(c.gens[c.activeGen].Layout.Cubs, func() msg.Message {
		return &msg.CubDown{Fence: int32(g.fence), Down: adv}
	})

	c.recomputeUnservable()
	c.parkSweep(true)
	c.ensureGovTick()
}

// NoteCubUp tells the governor a previously-down cub restarted. When
// the unservable set empties, the re-admission queue drains after one
// deadman timeout — long enough for the rejoin handshake to finish.
func (c *Controller) NoteCubUp(z msg.NodeID) {
	if !c.cfg.Governor.Enable {
		return
	}
	g := &c.gov
	if g.down == nil || !g.down[z] {
		return
	}
	delete(g.down, z)
	c.recomputeUnservable()
	if len(g.unservable) == 0 && len(g.queue) > 0 && !g.draining {
		g.draining = true
		c.clk.After(c.cfg.DeadmanTimeout, c.drainParked)
	}
}

// recomputeUnservable rebuilds the unservable disk set from the
// governor's down set under the active generation's layout — closed-form
// arithmetic over O(Cubs·Decluster), no stream scan.
func (c *Controller) recomputeUnservable() {
	g := &c.gov
	acfg := c.gens[c.activeGen]
	for d := range g.unservable {
		delete(g.unservable, d)
	}
	for _, d := range acfg.Layout.UnservableDisks(func(z msg.NodeID) bool { return g.down[z] }) {
		g.unservable[d] = true
	}
	for d := range g.stateLost {
		delete(g.stateLost, d)
	}
	for z := range g.down {
		pred := msg.NodeID((int(z) - 1 + acfg.Layout.Cubs) % acfg.Layout.Cubs)
		if !g.down[pred] {
			continue
		}
		for _, d := range acfg.Layout.DisksOfCub(z) {
			g.stateLost[d] = true
		}
	}
}

// parkSweep parks every active-generation stream whose play position
// reaches an unservable disk within the guard window; the crash-instant
// sweep (initial=true) additionally parks streams inside the state-lead
// window of a state-lost disk, whose in-hand block died with the cub
// pair. Candidates are parked latest-admitted-first: instance IDs are
// admission-ordered, so descending order makes the shed both
// deterministic and fair in the paper's sense — the viewers served
// longest keep their streams.
func (c *Controller) parkSweep(initial bool) {
	g := &c.gov
	if len(g.unservable) == 0 && !(initial && len(g.stateLost) > 0) {
		return
	}
	acfg := c.gens[c.activeGen]
	n := acfg.Sched.NumDisks
	look, lookState := c.cfg.ParkWindows()
	var cands []msg.InstanceID
	for inst, rec := range c.plays {
		if rec.state == PlayDone || rec.gen != c.activeGen {
			// The governor shelters only the active generation; a
			// mid-restripe draining generation keeps the raw behaviour.
			continue
		}
		var d int
		if rec.state == PlayQueued {
			f, ok := acfg.Files[rec.file]
			if !ok {
				continue
			}
			d = acfg.Layout.PrimaryDisk(f, int(rec.startBlock))
		} else {
			d = c.servingDisk(rec.slot)
		}
		endangered := false
		for j := -1; j <= look && !endangered; j++ {
			endangered = g.unservable[((d+j)%n+n)%n]
		}
		if initial {
			for j := -1; j <= lookState && !endangered; j++ {
				endangered = g.stateLost[((d+j)%n+n)%n]
			}
		}
		if endangered {
			cands = append(cands, inst)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] > cands[j] })
	for _, inst := range cands {
		c.parkOne(inst)
	}
}

// parkOne sheds one stream: build its re-admission ticket (asking the
// harness for the viewer's exact position via OnParked), order the
// serving cub and its successor to scrub it, and retire the play record
// through the same bookkeeping a stop uses.
func (c *Controller) parkOne(inst msg.InstanceID) {
	g := &c.gov
	rec := c.plays[inst]
	if rec == nil || rec.state == PlayDone {
		return
	}
	t := &ParkTicket{
		Viewer:      rec.viewer,
		OldInstance: inst,
		File:        rec.file,
		ResumeBlock: rec.startBlock,
		Bitrate:     rec.bitrate,
		Fence:       int32(g.fence),
	}
	if c.OnParked != nil {
		if file, rb, ok := c.OnParked(rec.viewer, inst); ok {
			t.File = file
			t.ResumeBlock = rb
		}
	}
	rcfg := c.genCfg(rec.gen)
	slot := rec.slot
	if rec.state == PlayQueued {
		slot = -1
	}
	// The scrub order goes to EVERY live cub, not just the serving cub
	// and its successor. A parked stream is often being served by one of
	// the cubs whose death triggered the park — a scrub addressed there
	// is lost with the cub, while the stream's mirror-chain states keep
	// circulating the ring, burning disk reads the degraded cluster does
	// not have. The park is idempotent (tombstoned per instance at each
	// cub) and park episodes are rare, so the broadcast is cheap. The
	// order carries the full re-admission ticket: every live cub retains
	// it until the matching Resume, so a controller takeover can
	// scavenge the parked set (scavenge.go).
	c.toLiveCubs(rcfg.Layout.Cubs, func() msg.Message {
		return &msg.Park{Viewer: rec.viewer, Instance: inst, Slot: slot, Fence: int32(g.fence),
			File: t.File, ResumeBlock: t.ResumeBlock, Bitrate: t.Bitrate, Ctl: c.Epoch()}
	})
	g.parked[inst] = t
	g.queue = append(g.queue, t)
	g.stats.Parks++
	c.finish(rec)
}

// ensureGovTick keeps a rolling park sweep running one tick apart while
// any disk is unservable: streams advance one disk per block play, so
// new trajectories enter the danger window every tick.
func (c *Controller) ensureGovTick() {
	g := &c.gov
	if g.ticking || len(g.unservable) == 0 {
		return
	}
	g.ticking = true
	c.clk.After(c.cfg.Sched.BlockPlay, c.govTick)
}

func (c *Controller) govTick() {
	c.gov.ticking = false
	if c.down || len(c.gov.unservable) == 0 {
		return
	}
	c.parkSweep(false)
	c.ensureGovTick()
}

// drainParked re-admits parked streams in FIFO order through the
// harness's OnReadmit (which runs an ordinary Play and returns the new
// instance). Re-admissions are paced: at most a batch proportional to
// the array width per block play, so a mass resume is a steady trickle
// of ordinary starts rather than a flash crowd — re-inserting hundreds
// of streams in one schedule beat floods the insertion and state-
// forwarding paths of a cluster already running at rated load. An
// admission refusal re-schedules the drain; a capacity loss in the
// meantime aborts it until the next NoteCubUp.
func (c *Controller) drainParked() {
	g := &c.gov
	g.draining = false
	if c.down || len(g.unservable) != 0 {
		return
	}
	batch := c.cfg.Sched.NumDisks / 4
	if batch < 1 {
		batch = 1
	}
	for len(g.queue) > 0 && batch > 0 {
		batch--
		t := g.queue[0]
		var newInst msg.InstanceID
		ok := true
		if c.OnReadmit != nil {
			newInst, ok = c.OnReadmit(*t)
		}
		if !ok {
			// Admission refused — capacity is back but the schedule is
			// still shuffling. Retry the whole remainder later.
			g.draining = true
			c.clk.After(c.cfg.DeadmanTimeout, c.drainParked)
			return
		}
		g.queue = g.queue[1:]
		delete(g.parked, t.OldInstance)
		delete(g.acked, t.OldInstance)
		g.stats.Resumes++
		if newInst != 0 {
			if rec := c.plays[newInst]; rec != nil {
				rcfg := c.genCfg(rec.gen)
				// The resume notice is broadcast to every live cub, matching
				// the Park broadcast: each cub that retained the ticket must
				// clear it, or a later controller takeover would scavenge the
				// stale ticket and resume the stream a second time.
				c.toLiveCubs(rcfg.Layout.Cubs, func() msg.Message {
					return &msg.Resume{Viewer: t.Viewer, OldInstance: t.OldInstance,
						NewInstance: newInst, Fence: int32(g.fence), Ctl: c.Epoch()}
				})
			}
		}
	}
	if len(g.queue) > 0 {
		// More to re-admit: continue one block play from now.
		g.draining = true
		c.clk.After(c.cfg.Sched.BlockPlay, c.drainParked)
	}
}

// toLiveCubs sends a message m builds to each of the first n cubs the
// governor was not told are down.
func (c *Controller) toLiveCubs(n int, m func() msg.Message) {
	for i := 0; i < n; i++ {
		if z := msg.NodeID(i); !c.gov.down[z] {
			c.net.Send(msg.Controller, z, m())
		}
	}
}

// onParkAck counts the first cub acknowledgement per parked instance.
func (c *Controller) onParkAck(a *msg.ParkAck) {
	g := &c.gov
	if g.parked == nil {
		return
	}
	if _, parked := g.parked[a.Instance]; !parked {
		return
	}
	if g.acked[a.Instance] {
		return
	}
	g.acked[a.Instance] = true
	g.stats.Acks++
}
