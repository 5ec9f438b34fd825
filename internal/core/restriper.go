package core

import (
	"fmt"
	"time"

	"tiger/internal/clock"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/sim"
)

// This file is the coordinator side of the live restripe (DESIGN §13):
// the controller drives an ElasticPlan's moves through the cubs' movers
// with a bounded dispatch window per source cub, a resend timer for
// orders lost to crashes or partitions, and a re-route path for sources
// whose drive failed or was quarantined mid-run. The coordinator is
// deliberately dumb — ordered moves, at-least-once resend, idempotent
// commits — because every hard problem (fencing stale incarnations,
// exactly-once landing, pacing under load) is solved at the cubs, where
// the rejoin and gray-failure machinery already lives.

const (
	// rsWindow bounds orders in flight per source cub, so a single cub's
	// mover queue never grows past a few copies per drive and a crashed
	// cub strands only a window's worth of work.
	rsWindow = 8
	// rsTick is the dispatch cadence.
	rsTick = time.Second
	// rsResend is how long an uncommitted order waits before the
	// coordinator re-sends it. Generous against pacing gaps (a saturated
	// drive copies every ~2 s), cheap against real loss: duplicates are
	// deduped at both cub ends.
	rsResend = 10 * time.Second
)

// rsMove states.
const (
	rsPending   = 0 // not dispatched (or awaiting re-dispatch after a nack)
	rsInflight  = 1 // order sent, commit not yet seen
	rsCommitted = 2
)

// rsMove is the coordinator's record of one planned move.
type rsMove struct {
	order    msg.MoveOrder
	src      msg.NodeID // current source cub (changes on re-route)
	state    int
	lastSent sim.Time
}

// RestripePhase is where an elastic restripe stands (DESIGN §13). The
// cluster layer steps the phases; the coordinator below runs the copy.
// Its number is the tiger_restripe_phase gauge and the Slot of a
// trace.RestripePhase event; String gives the names reports print.
type RestripePhase uint8

const (
	RestripeIdle    RestripePhase = iota // no restripe has run
	RestripeCopy                         // moves copy through idle disk slots
	RestripeCutover                      // admissions quiesce before the generation flip
	RestripeDrain                        // old-generation streams play to EOF
	RestripeLinger                       // the drained generation is held, still fenced
	RestripeDone                         // the new shape is in charge
)

var restripePhaseNames = [...]string{"idle", "copy", "cutover", "drain", "linger", "done"}

func (p RestripePhase) String() string { return restripePhaseNames[p] }

// Active reports whether p lies between a restripe's start and its end.
func (p RestripePhase) Active() bool { return p != RestripeIdle && p != RestripeDone }

// restripeRun is a restripe as StartRestripe was asked for it: the fence
// that names it in every move message, the generation its sources live
// under, and its plan.
type restripeRun struct {
	fence  int64
	oldGen int32
	plan   *layout.ElasticPlan
}

// restriperState is the controller's live-restripe bookkeeping. The
// restripeRun is configuration, like the installed generations: Restart
// keeps it, and the takeover re-arms an interrupted copy from it, until
// finishRestripe clears its plan. The rest is volatile. The run is a
// round whose token is the fence, open while moves remain; its commits
// and nacks must answer it (Controller.admit).
type restriperState struct {
	restripeRun
	run       round
	moves     []*rsMove
	committed int
	rerouted  int64
	nacks     int64
	// outstanding counts in-flight orders per source cub, enforcing
	// rsWindow.
	outstanding map[msg.NodeID]int
	tick        clock.Timer
}

// RestripeStats is a snapshot of coordinator progress for the
// observability surfaces and tigerctl.
type RestripeStats struct {
	Active    bool
	Total     int
	Committed int `metric:"tiger_restripe_commits_total" help:"Restripe moves committed at their destinations."`
	Inflight  int
	Pending   int
	Rerouted  int64 `metric:"tiger_restripe_reroutes_total" help:"Restripe moves re-routed to a redundant copy."`
	Nacks     int64
}

// RestripeStats reports the coordinator's current progress.
func (c *Controller) RestripeStats() RestripeStats {
	s := RestripeStats{
		Active:    c.rs.run.open,
		Total:     len(c.rs.moves),
		Committed: c.rs.committed,
		Rerouted:  c.rs.rerouted,
		Nacks:     c.rs.nacks,
	}
	for _, m := range c.rs.moves {
		switch m.state {
		case rsPending:
			s.Pending++
		case rsInflight:
			s.Inflight++
		}
	}
	return s
}

// StartRestripe begins coordinating an elastic plan's moves. oldGen
// names the generation whose layout the plan's sources live under (the
// re-route path reads its redundant copies); fence identifies the run
// in every move message. The plan must already be installed as a new
// generation at every cub (InstallGen) so destinations can land copies.
func (c *Controller) StartRestripe(fence int64, oldGen int32, plan *layout.ElasticPlan) error {
	if c.rs.run.open {
		return fmt.Errorf("controller: restripe already active (fence %d)", c.rs.run.token)
	}
	if _, ok := c.gens[oldGen]; !ok {
		return fmt.Errorf("controller: restripe from uninstalled generation %d", oldGen)
	}
	c.rs.restripeRun = restripeRun{fence: fence, oldGen: oldGen, plan: plan}
	c.armRestripe()
	return nil
}

// armRestripe opens the recorded run with every move pending. After a
// takeover that re-drives the whole plan: sources dedup orders already
// queued and destinations re-ack moves already durable (the
// at-least-once order stream meets the cubs' (fence,seq) dedup), so the
// run converges without re-copying committed work.
func (c *Controller) armRestripe() {
	r := c.rs.restripeRun
	moves := make([]*rsMove, len(r.plan.Moves))
	for i, pm := range r.plan.Moves {
		moves[i] = &rsMove{
			order: msg.MoveOrder{
				Fence:  r.fence,
				Seq:    int32(i),
				File:   pm.File,
				Block:  pm.Block,
				Part:   pm.Part,
				SrcIdx: pm.From.Idx,
				DstCub: pm.To.Cub,
				DstIdx: pm.To.Idx,
			},
			src: pm.From.Cub,
		}
	}
	c.rs = restriperState{
		restripeRun: r,
		run:         round{token: r.fence, open: true},
		moves:       moves,
		outstanding: make(map[msg.NodeID]int),
	}
	if len(moves) == 0 {
		c.finishRestripe()
		return
	}
	c.dispatchMoves()
}

// dispatchMoves is the coordinator's periodic pump: send pending orders
// up to each source's window, re-send in-flight orders past the resend
// timeout, and re-arm.
func (c *Controller) dispatchMoves() {
	if !c.rs.run.open || c.down {
		return
	}
	now := c.clk.Now()
	for _, m := range c.rs.moves {
		switch m.state {
		case rsPending:
			if c.rs.outstanding[m.src] >= rsWindow {
				continue
			}
			c.sendOrder(m, now)
			c.rs.outstanding[m.src]++
			m.state = rsInflight
		case rsInflight:
			if now.Sub(m.lastSent) >= rsResend {
				c.sendOrder(m, now)
			}
		}
	}
	c.rs.tick = c.clk.After(rsTick, c.dispatchMoves)
}

func (c *Controller) sendOrder(m *rsMove, now sim.Time) {
	m.lastSent = now
	o := m.order
	o.Ctl = c.Epoch()
	c.net.Send(msg.Controller, m.src, &o)
}

// settle returns move seq of the current run as its source answers it,
// or nil for no such move or one already committed (a duplicate). An
// in-flight move gives its dispatch window slot back.
func (s *restriperState) settle(seq int32) *rsMove {
	if seq < 0 || int(seq) >= len(s.moves) || s.moves[seq].state == rsCommitted {
		return nil
	}
	m := s.moves[seq]
	if m.state == rsInflight {
		if n := s.outstanding[m.src]; n > 0 {
			s.outstanding[m.src] = n - 1
		}
	}
	return m
}

// onMoveCommit marks one move durable at its destination. From here on
// the block's new-generation home is authoritative; duplicates (a
// destination re-acking after a lost commit) are ignored.
func (c *Controller) onMoveCommit(t *msg.MoveCommit) {
	m := c.rs.settle(t.Seq)
	if m == nil {
		return
	}
	m.state = rsCommitted
	c.rs.committed++
	if c.rs.committed == len(c.rs.moves) {
		c.finishRestripe()
	}
}

// onMoveNack re-routes a move whose source cannot produce the copy: the
// next redundant copy of the block under the old generation becomes the
// source, and the move returns to the dispatch queue.
func (c *Controller) onMoveNack(t *msg.MoveNack) {
	m := c.rs.settle(t.Seq)
	if m == nil {
		return
	}
	c.rs.nacks++
	m.order.Alt++
	src, idx := c.moveSource(m.order)
	m.src = src
	m.order.SrcIdx = idx
	m.state = rsPending
	c.rs.rerouted++
}

// moveSource resolves the current source of a move under the old
// generation's layout: Alt 0 is the planned copy, higher Alts cycle
// through the block's other redundant copies (primary and declustered
// pieces). A quarantined source heals and eventually serves, so the
// cycle always terminates the run.
func (c *Controller) moveSource(o msg.MoveOrder) (msg.NodeID, int8) {
	ocfg := c.genCfg(c.rs.oldGen)
	lay := ocfg.Layout
	f, ok := ocfg.Files[o.File]
	if !ok {
		// Cannot happen for a validated plan; fall back to the planned
		// source so the resend path still drives the move.
		return lay.CubOfDisk(int(o.SrcIdx)), o.SrcIdx
	}
	// All holders of this block's data under the old layout, planned copy
	// first.
	type holder struct {
		cub msg.NodeID
		idx int8
	}
	cands := make([]holder, 0, 1+lay.Decluster)
	add := func(d int) {
		cub := lay.CubOfDisk(d)
		idx := int8(d / lay.Cubs)
		for _, h := range cands {
			if h.cub == cub && h.idx == idx {
				return
			}
		}
		cands = append(cands, holder{cub, idx})
	}
	b := int(o.Block)
	if o.Part >= 0 && int(o.Part) < lay.Decluster {
		add(lay.SecondaryDisk(f, b, int(o.Part))) // the planned piece
	}
	add(lay.PrimaryDisk(f, b))
	for p := 0; p < lay.Decluster; p++ {
		add(lay.SecondaryDisk(f, b, p))
	}
	h := cands[int(o.Alt)%len(cands)]
	return h.cub, h.idx
}

// finishRestripe stops the pump, forgets the plan (nothing is left for
// a takeover to re-arm) and reports completion. The cluster layer
// decides what happens next (cutover, drain, generation drop); the
// coordinator only certifies that every block has landed.
func (c *Controller) finishRestripe() {
	c.rs.run.close()
	c.rs.tick.Stop()
	c.rs.plan = nil
	if c.OnRestripeDone != nil {
		c.OnRestripeDone()
	}
}
