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
// cluster layer owns the phase machine; the hard mechanics live below it
// — the move protocol and pacing in internal/core's mover, the dispatch
// and re-route logic in its restriper, and the dual-generation schedule
// planes in gen.go that let two slot rings coexist on the same spindles.
//
// Phases:
//
//	idle ──StartRestripe──▶ copy ──all moves committed──▶ cutover
//	     (background block moves      (admissions quiesced ~1 s, then
//	      through idle disk slots)     the active generation flips
//	                                   everywhere in one instant)
//	cutover ──▶ drain ──old generation empty──▶ linger ──▶ done
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

// Restripe phase names, as reported by Cluster.RestripePhase.
const (
	RestripeIdle    = "idle"
	RestripeCopy    = "copy"
	RestripeCutover = "cutover"
	RestripeDrain   = "drain"
	RestripeLinger  = "linger"
	RestripeDone    = "done"
)

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

// restripePhaseVal maps a phase to its tiger_restripe_phase gauge value.
func restripePhaseVal(phase string) float64 {
	switch phase {
	case RestripeCopy:
		return 1
	case RestripeCutover:
		return 2
	case RestripeDrain:
		return 3
	case RestripeLinger:
		return 4
	case RestripeDone:
		return 5
	default:
		return 0
	}
}

// RestripeInfo is a snapshot of restripe progress for experiments and
// the observability surfaces.
type RestripeInfo struct {
	Phase      string
	TargetCubs int
	Moves      int // planned moves
	Bytes      int64
	Coord      core.RestripeStats // coordinator progress
	Pending    int                // copy jobs queued at cubs
	Inflight   int                // copy reads/writes in service at cubs

	// Phase transition times (zero until reached).
	CopyStart sim.Time
	CopyDone  sim.Time
	DrainDone sim.Time
	Finished  sim.Time

	// Replays deferred by the cutover quiesce and re-issued after it.
	DeferredReplays int
}

// RestripePhase reports the current phase of the elastic restripe
// machinery ("idle" when none has run).
func (c *Cluster) RestripePhase() string {
	if c.rsPhase == "" {
		return RestripeIdle
	}
	return c.rsPhase
}

// restripeActive reports whether a restripe is in progress (any phase
// between StartRestripe and done).
func (c *Cluster) restripeActive() bool {
	switch c.rsPhase {
	case RestripeCopy, RestripeCutover, RestripeDrain, RestripeLinger:
		return true
	}
	return false
}

// RestripeInfo returns a snapshot of restripe progress.
func (c *Cluster) RestripeInfo() RestripeInfo {
	in := RestripeInfo{
		Phase:           c.RestripePhase(),
		TargetCubs:      c.rsTarget,
		Moves:           c.rsMoves,
		Bytes:           c.rsBytes,
		Coord:           c.Controller.RestripeStats(),
		CopyStart:       c.rsCopyStart,
		CopyDone:        c.rsCopyDone,
		DrainDone:       c.rsDrainDone,
		Finished:        c.rsFinished,
		DeferredReplays: c.rsDeferredTotal,
	}
	for _, cub := range c.Cubs {
		in.Pending += cub.MoverPending()
		in.Inflight += cub.MoverInflight()
	}
	return in
}

func (c *Cluster) setRestripePhase(phase string) {
	c.rsPhase = phase
	if c.sink.Wants(trace.RestripePhase) {
		c.sink.Emit(trace.Event{
			At: c.Now(), Node: msg.Controller, Kind: trace.RestripePhase,
			Slot: int32(restripePhaseVal(phase)),
		})
	}
}

// StartRestripe begins an online elastic restripe to targetCubs cubs,
// serving every admitted stream throughout. It returns immediately; the
// restripe proceeds in virtual time through the copy, cutover, drain and
// linger phases, and RestripePhase reports "done" when the new shape is
// fully in charge. Growing creates and starts the new cubs; shrinking
// retires the surplus cubs in place (they stay registered, fencing any
// late traffic for the retired generation, but serve nothing).
func (c *Cluster) StartRestripe(targetCubs int) error {
	if c.restripeActive() {
		return fmt.Errorf("tiger: restripe already active (phase %s)", c.rsPhase)
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

	c.rsTarget = targetCubs
	c.rsOldGen, c.rsNewGen = oldGen, newGen
	c.rsCfg1 = cfg1
	c.rsMoves, c.rsBytes = len(plan.Moves), plan.BytesTotal
	c.rsPlan = plan
	c.rsCopyStart = c.Now()
	c.rsCopyDone, c.rsDrainDone, c.rsFinished = 0, 0, 0
	c.setRestripePhase(RestripeCopy)

	c.Controller.OnRestripeDone = c.restripeCutover
	if err := c.Controller.StartRestripe(int64(newGen), oldGen, plan); err != nil {
		c.setRestripePhase(RestripeIdle)
		return err
	}
	return nil
}

// restripeCutover runs when the coordinator certifies that every planned
// move has committed at its destination: quiesce admissions briefly so
// in-flight old-generation start round trips settle, then flip the
// active generation on the controller and every cub in one engine
// callback — no message can interleave with the flip, so no insertion
// ever straddles the two rings.
func (c *Cluster) restripeCutover() {
	if c.rsPhase != RestripeCopy {
		return
	}
	c.rsCopyDone = c.Now()
	c.rsPlan = nil // every move committed; nothing left to re-arm after a takeover
	c.setRestripePhase(RestripeCutover)
	c.rsPauseReplay = true
	clockOf(c).After(restripeCutoverPause, func() {
		c.Controller.SetActiveGen(c.rsNewGen)
		for _, cub := range c.Cubs {
			cub.SetActiveGen(c.rsNewGen)
		}
		c.rsPauseReplay = false
		deferred := c.rsDeferred
		c.rsDeferred = 0
		for i := 0; i < deferred; i++ {
			c.replay(nil)
		}
		c.setRestripePhase(RestripeDrain)
		c.restripePollDrain()
	})
}

// restripePollDrain watches the old generation empty out: every stream
// admitted under it played to EOF (controller load zero), every cub's
// view holds no old-ring entries, and no start sits queued against an
// old-ring disk.
func (c *Cluster) restripePollDrain() {
	if c.rsPhase != RestripeDrain {
		return
	}
	if c.restripeDrained() {
		c.rsDrainDone = c.Now()
		c.setRestripePhase(RestripeLinger)
		lin := c.Opt.RestripeLinger
		if lin <= 0 {
			if c.rsTarget < len(c.Cubs) {
				lin = restripeLingerShrink
			} else {
				lin = restripeLingerGrow
			}
		}
		clockOf(c).After(lin, c.restripeFinish)
		return
	}
	clockOf(c).After(restripeDrainPoll, c.restripePollDrain)
}

func (c *Cluster) restripeDrained() bool {
	if c.Controller.GenLoad(c.rsOldGen) != 0 {
		return false
	}
	for _, cub := range c.Cubs {
		if cub.GenEntries(c.rsOldGen) != 0 || cub.GenQueued(c.rsOldGen) != 0 {
			return false
		}
	}
	return true
}

// restripeFinish drops the drained generation everywhere and installs
// the new shape as the cluster's notion of itself. From here late
// old-generation traffic is refused outright (cfgOf returns nil at
// every cub), which is what makes narrowing safe: a retired slot cannot
// be resurrected. Retired cubs stay registered with empty monitored
// sets; the deadman ring of the new generation no longer includes them.
func (c *Cluster) restripeFinish() {
	if c.rsPhase != RestripeLinger {
		return
	}
	c.Controller.DropGen(c.rsOldGen)
	for _, cub := range c.Cubs {
		cub.DropGen(c.rsOldGen)
	}
	c.Cfg = c.rsCfg1
	c.Opt.Cubs = c.rsCfg1.Layout.Cubs
	c.rsFinished = c.Now()
	c.setRestripePhase(RestripeDone)
}
