package core

import (
	"time"

	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file is the cub side of the live restripe (DESIGN §13): the
// *mover* executes MoveOrders by draining block copies through the idle
// time of the disk schedule. Three rules keep stream service unharmed:
//
//  1. Copy reads are issued with a far-future deadline, so the drive's
//     EDF queue serves every stream read first; a copy only reaches the
//     platter when nothing timely is waiting.
//  2. At most one copy is outstanding per drive, so a copy can delay a
//     stream read by at most one copy service time (the same head-of-line
//     bound §3.1 already absorbs in the schedule's slack).
//  3. Between copies the mover idles for a pacing gap derived from the
//     drive's *measured* duty cycle, so copy load adapts to the streams
//     actually being served rather than to a static plan.
//
// The mover deliberately bypasses the gray-failure monitor's read
// accounting (noteRead): copy reads are best-effort background work with
// fake deadlines, and feeding their "slack" into the health EWMA would
// poison it. A drive that fails or is quarantined mid-copy Nacks its
// pending orders so the coordinator re-routes them to a mirror copy.
//
// Move state is volatile by design: a cub restart wipes the queues
// (Restart) and the coordinator's resend timer re-issues anything that
// was lost — the at-least-once order stream meets the destination's
// (fence,seq) dedup to yield exactly-once commits. Only the copy a drive
// is serving outlives the restart, because the drive does: it finishes
// as if nothing happened, and until then the drive starts no other.

// moverCopyBudget is the fraction of a drive's idle time the mover may
// consume. Half the idle time keeps the copy stream brisk at low load
// while leaving headroom for admission bursts at high load.
const moverCopyBudget = 0.5

// moverIdleFloor is the minimum idle fraction assumed by the pacing
// math: on a saturated drive the measured idle fraction approaches
// zero, and dividing by it would stall the restripe entirely. The floor
// bounds the gap at tCopy/(budget·floor), ≈ 2 s for a full block — the
// restripe slows to a trickle under overload but never stops.
const moverIdleFloor = 0.05

// mvKey identifies one move of one restripe run.
type mvKey struct {
	fence int64
	seq   int32
}

// mvJob is one queued copy operation on one local drive: a source-side
// read that will ship MoveData, or a destination-side write that will
// ack MoveCommit.
type mvJob struct {
	out   bool          // true: source read; false: destination write
	order msg.MoveOrder // set when out
	data  msg.MoveData  // set when !out
	bytes int64
	zone  disk.Zone
}

func (j *mvJob) key() mvKey {
	if j.out {
		return mvKey{j.order.Fence, j.order.Seq}
	}
	return mvKey{j.data.Fence, j.data.Seq}
}

// moverState is the mover bookkeeping that is not per drive (the rest
// is in the drive records). Volatile: Restart wipes it.
type moverState struct {
	queued map[mvKey]bool // source-side orders queued or in flight
	done   map[mvKey]bool // dest-side commits already durable (dedup)
}

// MoverPending returns the number of copy jobs queued on this cub's
// drives (both directions), for the restripe progress surfaces.
func (c *Cub) MoverPending() int {
	n := 0
	for i := range c.drives {
		n += len(c.drives[i].moves)
	}
	return n
}

// MoverInflight returns the number of drives currently executing (or
// pacing after) a copy.
func (c *Cub) MoverInflight() int {
	n := 0
	for i := range c.drives {
		if c.drives[i].copying != nil {
			n++
		}
	}
	return n
}

// moveBytesZone returns the size and platter zone of one move payload.
// Derived from the birth configuration: block and piece sizes are
// generation-invariant (a restripe re-homes blocks, it does not resize
// them), and Alt re-routes read a redundant copy but still ship a full
// payload — modeled at primary size for simplicity.
func (c *Cub) moveBytesZone(part int8) (int64, disk.Zone) {
	if part < 0 {
		return c.cfg.BlockSize, disk.Outer
	}
	return c.cfg.MirrorPartSize(), disk.Inner
}

// onMoveOrder is the source side of a move: read the block copy and
// ship it to the destination. Orders come from the controller (fenced by
// its epoch, fence.go); a duplicate of an order already queued or in
// service is dropped, but a re-sent order for work this cub lost in a
// restart is accepted as fresh — the destination's dedup makes the
// at-least-once stream safe.
func (c *Cub) onMoveOrder(t msg.MoveOrder) {
	dr := c.driveAt(int(t.SrcIdx))
	if dr == nil {
		return // malformed or stale order; the resend timer will retry
	}
	if dr.out() {
		c.nackMove(t, dr)
		return
	}
	k := mvKey{t.Fence, t.Seq}
	if c.mover.queued[k] {
		return
	}
	c.mover.queued[k] = true
	bytes, zone := c.moveBytesZone(t.Part)
	c.enqueueMove(dr, &mvJob{out: true, order: t, bytes: bytes, zone: zone})
}

// onMoveData is the destination side: land the copy on the target drive
// and ack the coordinator. Already fenced by its row of the fence table; a
// duplicate of a committed move just re-sends the commit, because the
// original ack may have been lost to a crash or partition.
func (c *Cub) onMoveData(t msg.MoveData) {
	k := mvKey{t.Fence, t.Seq}
	if c.mover.done[k] {
		c.sendMoveCommit(t)
		return
	}
	dr := c.driveAt(int(t.DstIdx))
	if dr == nil || dr.out() {
		// Not a drive of ours, or one that cannot land the copy now: drop
		// it. The coordinator's resend re-delivers once the drive is
		// probed healthy again.
		return
	}
	// A duplicate MoveData racing an in-flight write for the same move
	// would double-commit; dedup on the queue too.
	for _, j := range dr.moves {
		if !j.out && j.key() == k {
			return
		}
	}
	bytes, zone := c.moveBytesZone(t.Part)
	c.enqueueMove(dr, &mvJob{out: false, data: t, bytes: bytes, zone: zone})
}

// enqueueMove adds a copy job to a drive's FIFO and kicks the drive if
// it is idle.
func (c *Cub) enqueueMove(dr *drive, j *mvJob) {
	dr.moves = append(dr.moves, j)
	if dr.copying == nil {
		c.startNextMove(dr)
	}
}

// startNextMove pops the drive's FIFO and issues the copy with a
// far-future deadline so every stream read wins the EDF queue.
func (c *Cub) startNextMove(dr *drive) {
	if len(dr.moves) == 0 || dr.out() {
		// Drained, or retired while jobs were waiting (moverDiskRetired
		// handles the queue): nothing to start.
		dr.copying = nil
		return
	}
	j := dr.moves[0]
	dr.moves = dr.moves[1:]
	dr.copying = j
	start := c.clk.Now()
	farDue := start.Add(time.Hour)
	c.stats.DiskReads++
	dr.dk.Read(j.bytes, j.zone, farDue, func(done sim.Time, ok bool) {
		c.finishMove(dr, j, start, done, ok)
	})
}

// finishMove completes one copy operation and schedules the drive's next
// one after the pacing gap.
func (c *Cub) finishMove(dr *drive, j *mvJob, start, done sim.Time, ok bool) {
	tCopy := done.Sub(start)
	if j.out {
		k := j.key()
		delete(c.mover.queued, k)
		if !ok || dr.out() {
			c.nackMoveReason(j.order, msg.NackReadError)
		} else {
			c.stats.MovesOut++
			c.stats.MoveBytesOut += j.bytes
			md := msg.MoveData{
				Fence:  j.order.Fence,
				Seq:    j.order.Seq,
				File:   j.order.File,
				Block:  j.order.Block,
				Part:   j.order.Part,
				DstIdx: j.order.DstIdx,
				From:   c.id,
				Epoch:  c.Epoch(),
			}
			if j.order.DstCub == c.id {
				// Self-move (a disk-index change on the same cub): land it
				// without a network hop.
				c.onMoveData(md)
			} else {
				c.net.Send(c.id, j.order.DstCub, &md)
			}
		}
	} else {
		k := j.key()
		if !ok || dr.out() {
			// Write failed; leave the move uncommitted, the coordinator
			// resends.
		} else if !c.mover.done[k] {
			c.mover.done[k] = true
			c.stats.MovesIn++
			c.stats.MoveBytesIn += j.bytes
			c.sendMoveCommit(j.data)
		}
	}
	gap := c.movePacingGap(dr, tCopy)
	if gap <= 0 {
		c.startNextMove(dr)
		return
	}
	c.clk.After(gap, func() { c.startNextMove(dr) })
}

// movePacingGap computes how long drive dr should idle before its next
// copy. The drive's duty cycle is measured over the window since the
// last copy (BusyTotal delta, minus the copy's own service time), and
// the gap is sized so that steady-state copying consumes at most
// moverCopyBudget of the measured idle fraction:
//
//	tCopy/(tCopy+gap) = budget·idle  ⇒  gap = tCopy/(budget·idle) − tCopy
//
// On an idle array this is ≈ tCopy (copy at half rate); on a saturated
// one the idle floor bounds the gap so progress never stops.
func (c *Cub) movePacingGap(dr *drive, tCopy time.Duration) time.Duration {
	now := c.clk.Now()
	busy := dr.dk.Stats().BusyTotal
	prevBusy, prevT, sampled := dr.lastBusy, dr.lastSample, dr.sampled
	dr.lastBusy, dr.lastSample, dr.sampled = busy, now, true
	if tCopy <= 0 {
		tCopy = c.cfg.DiskParams.MeanServiceTime(c.cfg.BlockSize, disk.Outer)
	}
	idle := 1.0
	if sampled && now > prevT {
		window := float64(now.Sub(prevT))
		streamBusy := float64(busy-prevBusy) - float64(tCopy)
		if streamBusy < 0 {
			streamBusy = 0
		}
		idle = 1 - streamBusy/window
		if idle < moverIdleFloor {
			idle = moverIdleFloor
		}
	}
	gap := time.Duration(float64(tCopy)/(moverCopyBudget*idle)) - tCopy
	if gap < 0 {
		gap = 0
	}
	return gap
}

// sendMoveCommit acks one landed copy to the coordinator.
func (c *Cub) sendMoveCommit(t msg.MoveData) {
	c.net.Send(c.id, msg.Controller, &msg.MoveCommit{
		Fence: t.Fence,
		Seq:   t.Seq,
		From:  c.id,
		Epoch: c.Epoch(),
	})
	if c.sink.Wants(trace.MoveCommit) {
		// Slot carries the move sequence.
		c.sink.Emit(trace.Event{At: c.clk.Now(), Node: c.id, Kind: trace.MoveCommit, Slot: t.Seq})
	}
}

// nackMove refuses an order because the source drive is out of service,
// with the reason matched to how it left.
func (c *Cub) nackMove(t msg.MoveOrder, dr *drive) {
	reason := msg.NackDiskFailed
	if dr.health.state == DiskQuarantined {
		reason = msg.NackDiskQuarantined
	}
	c.nackMoveReason(t, reason)
}

func (c *Cub) nackMoveReason(t msg.MoveOrder, reason uint8) {
	c.stats.MovesNacked++
	c.net.Send(c.id, msg.Controller, &msg.MoveNack{
		Fence:  t.Fence,
		Seq:    t.Seq,
		From:   c.id,
		Reason: reason,
	})
	if c.sink.Wants(trace.MoveNack) {
		c.sink.Emit(trace.Event{At: c.clk.Now(), Node: c.id, Kind: trace.MoveNack, Slot: t.Seq, Block: int32(reason)})
	}
}

// moverDiskRetired is the retireDisk hook: pending source reads on the
// drive are Nacked so the coordinator re-routes them to a mirror copy
// immediately; pending destination writes are dropped and re-delivered
// by the coordinator's resend once the drive heals.
func (c *Cub) moverDiskRetired(dr *drive) {
	q := dr.moves
	dr.moves = nil
	for _, j := range q {
		if j.out {
			delete(c.mover.queued, j.key())
			c.nackMove(j.order, dr)
		}
	}
}

// ProjectedMoveRate estimates the live mover's steady-state copy
// throughput for one drive at a given stream load, using the same
// pacing math the mover applies online. load is the fraction of planned
// stream capacity in use (0..1); budget is the idle-time fraction the
// mover may consume (moverCopyBudget in the shipped scheduler). Returns
// copies and bytes per second per drive.
//
// The stream duty at full load is the planned one: streams-per-disk
// worst-case primary+piece service per block play (disk.PlanCapacity).
// The mover sees idle = 1 − load·duty and spends budget·idle of the
// drive on copies of mean primary-block service time.
func ProjectedMoveRate(dp disk.Params, blockSize int64, blockPlay time.Duration, decluster int, load, budget float64) (copiesPerSec, bytesPerSec float64) {
	cap := PlanMoveCapacity(dp, blockSize, blockPlay, decluster)
	duty := load * cap
	if duty > 1 {
		duty = 1
	}
	idle := 1 - duty
	if idle < moverIdleFloor {
		idle = moverIdleFloor
	}
	tCopy := dp.MeanServiceTime(blockSize, disk.Outer)
	period := float64(tCopy) / (budget * idle)
	copiesPerSec = float64(time.Second) / period
	bytesPerSec = copiesPerSec * float64(blockSize)
	return copiesPerSec, bytesPerSec
}

// PlanMoveCapacity returns the planned full-load duty cycle of one
// drive: streams per disk times the worst-case per-stream service
// budget, per block play time.
func PlanMoveCapacity(dp disk.Params, blockSize int64, blockPlay time.Duration, decluster int) float64 {
	c := disk.PlanCapacity(dp, 1, blockSize, blockPlay, decluster)
	return c.StreamsPerDisk * float64(c.BlockService) / float64(blockPlay)
}
