package tiger

import (
	"fmt"
	"sort"
	"time"

	"tiger/internal/core"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file drives an online elastic restripe (DESIGN §13): growing or
// shrinking the cub array while every admitted stream keeps playing. The
// cluster layer owns the phase machine — one record (RestripeInfo) and
// one step (advance), a switch on the phase whose cases wait on the
// guards below; the hard mechanics live below it — the move protocol
// and pacing in internal/core's mover, the dispatch and re-route logic
// in its restriper, and the dual-generation schedule planes in gen.go
// that let two slot rings coexist on the same spindles.
//
// Phases:
//
//	idle ──StartRestripe──▶ copy ──all moves committed──▶ cutover
//	     (background block moves      (admissions quiesced 1 s, then
//	      through idle disk slots)     the active generation flips
//	                                   everywhere in one instant)
//	cutover ──pause──▶ drain ──old gen empty──▶ linger ──timer──▶ done
//	            (old-ring streams play            (grace window: late
//	             to EOF; new admissions            old-generation traffic
//	             land on the new ring)             still fenced, retiring
//	                                               cubs still monitored)
//
// The cutover is gated on *every* planned move having committed at its
// destination, so a block's new-generation home is always populated
// before any new-generation viewer state can reference it. The old
// generation is never migrated: its streams simply play to end of file
// on the old ring (the workload replays on EOF, and those replays are
// admitted under the new generation), and the joint admission rule in
// the controller keeps the two rings' summed per-disk stream load within
// the single-ring budget throughout.

const (
	// restripeCutoverPause quiesces viewer replays around the generation
	// flip, long enough for in-flight StartPlay/ack round trips issued
	// under the old generation to land before the flip.
	restripeCutoverPause = time.Second
	// restripeDrainPoll is how often the drain monitor re-checks that the
	// old generation has emptied everywhere.
	restripeDrainPoll = 2 * time.Second
	// Default linger windows. Shrink lingers much longer: the retiring
	// cubs stay monitored and fenced through the window, so an operator
	// (or the chaos engine) hitting them with a late crash or partition
	// cannot resurrect old-generation state.
	restripeLingerGrow   = 10 * time.Second
	restripeLingerShrink = 90 * time.Second
	// replayRetry paces replay re-attempts while a restripe holds the
	// joint admission limit at capacity.
	replayRetry = 2 * time.Second
)

// RestripeInfo is the cluster's one record of its elastic restripe: the
// phase, what the run is, and the instant each phase was reached (zero
// until then). Cluster.RestripeInfo returns a copy with the
// coordinator's and the cubs' progress filled in.
type RestripeInfo struct {
	Phase      core.RestripePhase
	TargetCubs int
	Moves      int // planned moves
	Bytes      int64
	Coord      core.RestripeStats // coordinator progress
	Pending    int                // copy jobs queued at cubs
	Inflight   int                // copy reads/writes in service at cubs

	CopyStart sim.Time
	CopyDone  sim.Time
	DrainDone sim.Time
	Finished  sim.Time

	// Replays deferred by the cutover quiesce and re-issued after it.
	DeferredReplays int

	oldGen, newGen int32
	next           *core.Config // the new shape, installed as newGen
}

// RestripePhase reports the current phase of the elastic restripe
// machinery (idle when none has run).
func (c *Cluster) RestripePhase() core.RestripePhase { return c.rs.Phase }

// RestripeInfo returns a snapshot of restripe progress.
func (c *Cluster) RestripeInfo() RestripeInfo {
	in := c.rs
	in.Coord = c.Controller.RestripeStats()
	for _, cub := range c.Cubs {
		in.Pending += cub.MoverPending()
		in.Inflight += cub.MoverInflight()
	}
	return in
}

func (c *Cluster) setRestripePhase(p core.RestripePhase) {
	c.rs.Phase = p
	if c.sink.Wants(trace.RestripePhase) {
		c.sink.Emit(trace.Event{
			At: c.Now(), Node: msg.Controller, Kind: trace.RestripePhase, Slot: int32(p),
		})
	}
}

// StartRestripe begins an online elastic restripe to targetCubs cubs,
// serving every admitted stream throughout. It returns immediately; the
// restripe proceeds in virtual time through the copy, cutover, drain and
// linger phases, and RestripePhase reports done when the new shape is
// fully in charge. Growing creates and starts the new cubs; shrinking
// retires the surplus cubs in place (they stay registered, fencing any
// late traffic for the retired generation, but serve nothing). A
// sharded cluster refuses: the new cubs and the generation flip would
// run on shard 0's engine while netsim delivers to them on their own.
func (c *Cluster) StartRestripe(targetCubs int) error {
	if c.Shards() > 1 {
		return fmt.Errorf("tiger: a cluster on %d shards cannot restripe", c.Shards())
	}
	if c.rs.Phase.Active() {
		return fmt.Errorf("tiger: restripe already active (phase %s)", c.rs.Phase)
	}
	cur := c.Cfg.Layout.Cubs
	if targetCubs == cur {
		return fmt.Errorf("tiger: already %d cubs", cur)
	}

	cfg1, err := c.Cfg.Reshape(targetCubs)
	if err != nil {
		return err
	}
	ids := make([]msg.FileID, 0, len(c.Cfg.Files))
	for id := range c.Cfg.Files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	oldFiles := make([]layout.File, 0, len(ids))
	for _, id := range ids {
		oldFiles = append(oldFiles, c.Cfg.Files[id])
	}
	plan, err := layout.PlanElastic(c.Cfg.Layout, cfg1.Layout, oldFiles)
	if err != nil {
		return err
	}

	oldGen := c.Controller.ActiveGen()
	newGen := oldGen + 1

	// Install the new generation everywhere before any move can land:
	// destinations index their drives under the new placement at install
	// time. Existing cubs (including, on a shrink, the retiring ones —
	// they hold the plane purely to fence) first, then the controller,
	// then any newly created cubs.
	c.Controller.InstallGen(newGen, cfg1)
	for _, cub := range c.Cubs {
		cub.InstallGen(newGen, cfg1)
	}
	clk := clockOf(c)
	for i := len(c.Cubs); i < targetCubs; i++ {
		cub := core.NewCub(msg.NodeID(i), cfg1, clk, c.Net, c.Net, c.Eng.Rand())
		cub.Rebase(newGen)
		c.adopt(cub)
		c.Net.Register(msg.NodeID(i), cub)
		c.Cubs = append(c.Cubs, cub)
		cub.Start()
	}

	c.rs = RestripeInfo{TargetCubs: targetCubs, Moves: len(plan.Moves), Bytes: plan.BytesTotal,
		CopyStart: c.Now(), oldGen: oldGen, newGen: newGen, next: cfg1}
	c.setRestripePhase(core.RestripeCopy)
	if err := c.Controller.StartRestripe(int64(newGen), oldGen, plan); err != nil {
		c.setRestripePhase(core.RestripeIdle)
		return err
	}
	return nil
}

// advance takes the restripe one phase forward once the current phase's
// guard holds. It is driven from the coordinator's completion callback
// (copy), the cutover pause, the drain poll (at entry, then every
// restripeDrainPoll) and the linger timer.
func (c *Cluster) advance() {
	rs, now, clk := &c.rs, c.Now(), clockOf(c)
	switch rs.Phase {
	case core.RestripeCopy:
		// Every planned move committed at its destination: quiesce
		// admissions so in-flight old-generation start round trips settle.
		if st := c.Controller.RestripeStats(); st.Active || st.Committed != st.Total {
			return
		}
		rs.CopyDone = now
		c.setRestripePhase(core.RestripeCutover)
		clk.After(restripeCutoverPause, c.advance)
	case core.RestripeCutover:
		// Pause elapsed: flip the active generation on the controller and
		// every cub in one engine callback — no message can interleave
		// with the flip, so no insertion ever straddles the two rings —
		// then re-issue the replays the pause held.
		if now < rs.CopyDone.Add(restripeCutoverPause) {
			return
		}
		c.Controller.SetActiveGen(rs.newGen)
		for _, cub := range c.Cubs {
			cub.SetActiveGen(rs.newGen)
		}
		c.setRestripePhase(core.RestripeDrain)
		for i := 0; i < rs.DeferredReplays; i++ {
			c.replay(nil)
		}
		c.advance()
	case core.RestripeDrain:
		// The old generation is empty: every stream admitted under it
		// played to EOF (controller load zero), every cub's view holds no
		// old-ring entries, and no start sits queued against an old-ring
		// disk.
		if !c.oldGenEmpty() {
			clk.After(restripeDrainPoll, c.advance)
			return
		}
		rs.DrainDone = now
		c.setRestripePhase(core.RestripeLinger)
		clk.After(c.restripeLinger(), c.advance)
	case core.RestripeLinger:
		// Linger elapsed: drop the drained generation everywhere and take
		// the new shape as the cluster's own. From here late
		// old-generation traffic is refused outright (cfgOf returns nil
		// at every cub), which is what makes narrowing safe: a retired
		// slot cannot be resurrected. Retired cubs stay registered with
		// empty monitored sets; the new generation's deadman ring no
		// longer includes them.
		if now < rs.DrainDone.Add(c.restripeLinger()) {
			return
		}
		c.Controller.DropGen(rs.oldGen)
		for _, cub := range c.Cubs {
			cub.DropGen(rs.oldGen)
		}
		c.Cfg = rs.next
		c.Opt.Cubs = rs.next.Layout.Cubs
		rs.Finished = now
		c.setRestripePhase(core.RestripeDone)
	}
}

func (c *Cluster) oldGenEmpty() bool {
	if c.Controller.GenLoad(c.rs.oldGen) != 0 {
		return false
	}
	for _, cub := range c.Cubs {
		if cub.GenEntries(c.rs.oldGen) != 0 || cub.GenQueued(c.rs.oldGen) != 0 {
			return false
		}
	}
	return true
}

// restripeLinger is how long the drained old generation is held.
func (c *Cluster) restripeLinger() time.Duration {
	switch {
	case c.Opt.RestripeLinger > 0:
		return c.Opt.RestripeLinger
	case c.rs.TargetCubs < len(c.Cubs):
		return restripeLingerShrink
	}
	return restripeLingerGrow
}
