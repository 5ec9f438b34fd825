// Package viewer implements Tiger's verification clients. Like the
// paper's measurement client (§5), a viewer renders nothing: it checks
// that every expected block arrives by its deadline, reports losses, and
// measures startup latency (the Figure 10 metric).
package viewer

import (
	"math/bits"
	"math/rand"
	"time"

	"tiger/internal/clock"
	"tiger/internal/metrics"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/recycle"
	"tiger/internal/sim"
)

// Machine models one client computer receiving multiple streams. The
// paper's client machines handled 15-25 simultaneous streams; beyond
// capacity they occasionally dropped blocks, which is where the
// non-failed test's 8 client-reported losses came from (§5).
type Machine struct {
	Capacity int
	DropProb float64 // per-block drop probability while over capacity
	streams  int
	rng      *rand.Rand
}

// NewMachine creates a client machine model.
func NewMachine(capacity int, dropProb float64, rng *rand.Rand) *Machine {
	return &Machine{Capacity: capacity, DropProb: dropProb, rng: rng}
}

// Attach registers one more stream on the machine.
func (m *Machine) Attach() { m.streams++ }

// Detach removes a stream.
func (m *Machine) Detach() {
	if m.streams > 0 {
		m.streams--
	}
}

// Streams returns the number of attached streams.
func (m *Machine) Streams() int { return m.streams }

// drops reports whether an arriving block is lost to client overload.
func (m *Machine) drops() bool {
	return m.Capacity > 0 && m.streams > m.Capacity && m.rng.Float64() < m.DropProb
}

// Stats counts what one viewer observed.
type Stats struct {
	BlocksOK     int64
	BlocksLost   int64 // expected but missing or incomplete at deadline
	PiecesSeen   int64
	MirrorBlocks int64 // blocks assembled from declustered pieces
	WrongData    int64 // deliveries carrying the wrong file or block
}

// Viewer consumes one stream and verifies its timeliness.
type Viewer struct {
	ID  msg.ViewerID
	clk clock.Clock

	blockPlay time.Duration
	slack     time.Duration

	machine *Machine
	loss    *metrics.LossLog

	instance    msg.InstanceID
	file        msg.FileID
	startBlock  int32
	requested   sim.Time
	firstByteAt sim.Time
	gotFirst    bool
	totalBlocks int32 // blocks this play will deliver

	nextCheck  int32
	freeChecks recycle.List[*deadlineCheck] // fired check records
	received   map[int32]partState
	maxSeq     int32 // highest play sequence with any delivery (-1: none)

	stats Stats

	consecLost int32

	// OnFirstBlock reports startup latency: request to last byte of the
	// first block, the paper's Figure 10 quantity.
	OnFirstBlock func(latency time.Duration)
	// OnDone fires when the final block's deadline has passed (end of
	// file).
	OnDone func()
	// StallThreshold and OnStalled model a real client giving up: after
	// StallThreshold consecutive lost blocks, OnStalled fires once (the
	// client would re-request the stream). Zero disables it.
	StallThreshold int32
	OnStalled      func()
	// OnTimedDelivery reports each verified delivery's margin against
	// the block's play deadline (positive slack is early arrival). It
	// fires only once the timeline is anchored by the first block.
	OnTimedDelivery func(d netsim.BlockDelivery, slack time.Duration)
}

// partState tracks one play sequence's deliveries. A hedged or
// split-brain-healed send can deliver BOTH the full primary block and
// some mirror pieces for the same sequence, so the two copies are
// tracked independently: the primary completes the block by itself, and
// pieces complete it only when every distinct piece index is present
// (the mask defends against duplicate pieces masquerading as coverage).
// Decluster factors above 32 are not supported by the verification
// client.
type partState struct {
	primary bool
	need    int8
	mask    uint32
}

func (p partState) complete() bool {
	return p.primary || (p.need > 0 && bits.OnesCount32(p.mask) >= int(p.need))
}

// New creates a viewer. slack is the grace period after a block's
// nominal arrival time before it is declared lost.
func New(id msg.ViewerID, clk clock.Clock, blockPlay, slack time.Duration, machine *Machine, loss *metrics.LossLog) *Viewer {
	return &Viewer{
		ID:        id,
		clk:       clk,
		blockPlay: blockPlay,
		slack:     slack,
		machine:   machine,
		loss:      loss,
		received:  make(map[int32]partState),
	}
}

// Reset readies a finished viewer for another play under a new ID on the
// given machine, its stats at zero. Its callbacks, check records and
// received map are kept; Begin arms the play.
func (v *Viewer) Reset(id msg.ViewerID, machine *Machine) {
	v.ID, v.machine, v.stats = id, machine, Stats{}
}

// Stats returns the viewer's cumulative observations.
func (v *Viewer) Stats() Stats { return v.stats }

// Begin arms the viewer for a new play of totalBlocks blocks of file
// starting at startBlock, under the given instance. Deliveries for
// other instances are ignored; deliveries for the wrong file or block
// are counted as corrupt (the paper's test-pattern check).
func (v *Viewer) Begin(inst msg.InstanceID, file msg.FileID, startBlock, totalBlocks int32) {
	v.instance = inst
	v.file = file
	v.startBlock = startBlock
	v.requested = v.clk.Now()
	v.gotFirst = false
	v.totalBlocks = totalBlocks
	v.maxSeq = -1
	v.nextCheck = 0
	v.consecLost = 0
	clear(v.received)
	if v.machine != nil {
		v.machine.Attach()
	}
}

// End detaches the viewer from its machine (stop or finished).
func (v *Viewer) End() {
	if v.machine != nil {
		v.machine.Detach()
	}
	v.instance = 0
}

// ResumePoint returns the file block the play has verified up to: the
// start block plus the first play sequence whose deadline has not yet
// been checked. A stream parked by the degradation governor re-admits
// from here, so the viewer replays nothing it already verified and
// skips nothing it had still to receive.
func (v *Viewer) ResumePoint() int32 { return v.startBlock + v.nextCheck }

// InFinalWindow reports whether every block this play has left to
// receive is already within lead sequences of the end of file. Once the
// final viewer state is that close, cubs stop forwarding next-hop
// states (end of file, §4.1.2), so the stream's slot is free for
// re-insertion even though its last services and play-out are still
// running.
func (v *Viewer) InFinalWindow(lead int32) bool {
	return v.totalBlocks > 0 && v.maxSeq >= v.totalBlocks-1-lead
}

// DeliverBlock implements netsim.DataSink.
func (v *Viewer) DeliverBlock(d netsim.BlockDelivery) {
	if d.Instance != v.instance {
		return // stale delivery from a previous play
	}
	if d.PlaySeq > v.maxSeq {
		v.maxSeq = d.PlaySeq
	}
	if v.machine != nil && v.machine.drops() {
		return // client overload: the block is gone (client-side loss)
	}
	v.stats.PiecesSeen++
	// Content check: play sequence k must carry block startBlock+k of
	// the requested file — the striping and schedule math end to end.
	if d.File != v.file || d.Block != v.startBlock+d.PlaySeq {
		v.stats.WrongData++
		return
	}
	ps := v.received[d.PlaySeq]
	if d.Parts <= 1 {
		ps.primary = true
	} else {
		ps.need = d.Parts
		ps.mask |= 1 << uint(d.Part)
	}
	if d.PlaySeq >= v.nextCheck {
		// A sequence already judged is not recorded: only its own check
		// deletes a record, so a piece or hedge duplicate arriving after
		// the verdict would sit in the map until the next Begin.
		v.received[d.PlaySeq] = ps
	}
	// The timeline anchors on the completion of the first block — the
	// paper's client records "the receive time of a block to be when the
	// last byte of the block arrives". A mirror-served first block
	// completes with its final declustered piece. Never anchor on an
	// incomplete piece group: a lone declustered piece finishes its
	// transfer far sooner than a whole block would, so inferring the
	// timeline from it back-dates firstByteAt by nearly the difference
	// in transfer times and every on-time block thereafter is judged
	// late. If the anchoring block's remaining pieces never arrive, a
	// later complete block anchors instead and the hole is still
	// counted lost at its deadline.
	if !v.gotFirst && ps.complete() {
		// Anchor on the completed first block; if the first block was
		// lost entirely, infer the timeline from a later complete
		// delivery so the loss is still detected.
		v.gotFirst = true
		v.firstByteAt = d.LastByte.Add(-time.Duration(d.PlaySeq) * v.blockPlay)
		if v.OnFirstBlock != nil {
			v.OnFirstBlock(v.firstByteAt.Sub(v.requested))
		}
		v.scheduleCheck()
	}
	if v.OnTimedDelivery != nil && v.gotFirst {
		v.OnTimedDelivery(d, v.deadline(d.PlaySeq).Sub(d.LastByte))
	}
}

// deadline for play sequence k: nominal arrival plus slack. The first
// block's own arrival anchors the timeline, as the paper's client does.
func (v *Viewer) deadline(k int32) sim.Time {
	return v.firstByteAt.Add(time.Duration(k)*v.blockPlay + v.slack)
}

// deadlineCheck is one armed deadline check: which play sequence of
// which play it will judge. A play has one check pending at a time, but
// a check armed for a stopped or replaced play is never cancelled — it
// fires and finds its instance gone — so it keeps its own record and the
// new play arms another. Records are reused through the viewer's free
// list once fired; fire is bound when the record is first allocated.
type deadlineCheck struct {
	v    *Viewer
	k    int32
	inst msg.InstanceID
	fire func()
}

func (c *deadlineCheck) run() {
	v, k, inst := c.v, c.k, c.inst
	v.freeChecks.Put(c, 0)
	v.check(k, inst)
}

func (v *Viewer) scheduleCheck() {
	at := v.deadline(v.nextCheck)
	if now := v.clk.Now(); at < now {
		at = now // inferred timeline: the deadline already passed
	}
	c, ok := v.freeChecks.Get()
	if !ok {
		c = &deadlineCheck{v: v}
		c.fire = c.run
	}
	c.k, c.inst = v.nextCheck, v.instance
	v.clk.At(at, c.fire)
}

func (v *Viewer) check(k int32, inst msg.InstanceID) {
	if v.instance != inst {
		return // stopped or replaced meanwhile
	}
	ps, ok := v.received[k]
	delete(v.received, k)
	complete := ok && ps.complete()
	if complete {
		v.stats.BlocksOK++
		v.consecLost = 0
		if !ps.primary {
			v.stats.MirrorBlocks++
		}
	} else {
		v.stats.BlocksLost++
		v.consecLost++
		if v.loss != nil {
			v.loss.RecordClientMiss(v.clk.Now())
		}
		if v.StallThreshold > 0 && v.consecLost == v.StallThreshold && v.OnStalled != nil {
			v.OnStalled()
			return // the stall handler replaces this play
		}
	}
	v.nextCheck = k + 1
	if v.nextCheck >= v.totalBlocks {
		if v.OnDone != nil {
			v.OnDone()
		}
		return
	}
	v.scheduleCheck()
}
