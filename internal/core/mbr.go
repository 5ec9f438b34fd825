package core

import (
	"fmt"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsched"
	"tiger/internal/netsim"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file implements the multiple-bitrate Tiger's network schedule
// management (§3.2, §4.2). Entries are one block play time long and as
// tall as their stream's bitrate; because cubs are separated from one
// another in the schedule by exactly a block play time, the ownership
// trick of the single-bitrate system cannot work, and insertion instead
// uses a two-phase reservation with the successor cub, overlapped with
// the speculative disk read of the first block.
//
// The authors had the network schedule "complete and working" while the
// multi-bitrate disk schedule remained unwritten; we mirror that scope:
// the disk side is a reorderable read whose only requirement is
// completion before the network needs the block.

// MBRConfig configures a multiple-bitrate cub.
type MBRConfig struct {
	Cubs      int
	BlockPlay time.Duration
	NICBps    int64 // network schedule capacity per cub (bits/s)

	// StartQuantum quantizes entry start positions; the paper found
	// fragmentation acceptable only at blockPlay/decluster (§3.2).
	StartQuantum time.Duration

	// ReserveTimeout bounds how long the originator waits for the
	// successor's confirmation before aborting the tentative insertion.
	ReserveTimeout time.Duration

	// SchedLead is how far before the entry's first service the
	// insertion must complete (covers the speculative disk read).
	SchedLead time.Duration

	DiskParams disk.Params
	BlockSize  func(bitrate int64) int64 // bytes per block at a bitrate
}

// DefaultMBRConfig returns a small multiple-bitrate system configuration.
func DefaultMBRConfig(cubs int) MBRConfig {
	bp := time.Second
	return MBRConfig{
		Cubs:           cubs,
		BlockPlay:      bp,
		NICBps:         100_000_000,
		StartQuantum:   bp / 4,
		ReserveTimeout: 250 * time.Millisecond,
		SchedLead:      750 * time.Millisecond,
		DiskParams:     disk.DefaultParams(),
		BlockSize: func(bitrate int64) int64 {
			return bitrate * int64(bp) / int64(8*time.Second)
		},
	}
}

// MBRStats count multiple-bitrate protocol events.
type MBRStats struct {
	Inserts        int64 // committed insertions
	LocalRejects   int64 // ruled out by the local view alone (§4.2)
	RemoteRejects  int64 // successor reported insufficient room
	Timeouts       int64 // no confirmation in time; aborted
	AbortedReads   int64 // speculative disk reads thrown away
	ReserveHandled int64
	Sends          int64
}

type mbrPending struct {
	entry    netsched.Entry
	seq      int32
	deadline clock.Timer
	readDone bool
	sendAt   sim.Time
}

// MBRCub is one cub of a multiple-bitrate Tiger system. It maintains a
// view of the network schedule and performs distributed insertion per
// §4.2. Like Cub, it is single-threaded under its node executor.
type MBRCub struct {
	id  msg.NodeID
	cfg MBRConfig
	clk clock.Clock
	net Transport

	sched   *netsched.Schedule
	disk    *disk.Disk
	pending map[int32]*mbrPending // tentative insertions by sequence
	nextSeq int32
	stats   MBRStats
	sink    *trace.Sink // nil until SetSink

	// Data, if set, carries each block service onto the network data
	// path (paced at the stream's bitrate over one block play time), so
	// NIC occupancy accounting covers multiple-bitrate streams too.
	Data DataPath

	// OnCommit fires when an insertion commits; OnServe on each block
	// service (used by tests and the example).
	OnCommit func(e netsched.Entry)
	OnServe  func(e netsched.Entry, at sim.Time)
}

// NewMBRCub constructs a multiple-bitrate cub.
func NewMBRCub(id msg.NodeID, cfg MBRConfig, clk clock.Clock, net Transport, d *disk.Disk) (*MBRCub, error) {
	s, err := netsched.New(cfg.Cubs, cfg.BlockPlay, cfg.NICBps)
	if err != nil {
		return nil, err
	}
	if cfg.StartQuantum <= 0 {
		return nil, fmt.Errorf("mbr: non-positive start quantum")
	}
	return &MBRCub{
		id:      id,
		cfg:     cfg,
		clk:     clk,
		net:     net,
		sched:   s,
		disk:    d,
		pending: make(map[int32]*mbrPending),
	}, nil
}

// ID returns the node ID.
func (m *MBRCub) ID() msg.NodeID { return m.id }

// Stats returns protocol counters.
func (m *MBRCub) Stats() MBRStats { return m.stats }

// Schedule exposes this cub's view of the network schedule.
func (m *MBRCub) Schedule() *netsched.Schedule { return m.sched }

// SetSink directs the cub's protocol steps to s. While a subscriber wants
// the admit step (a chain log does), new insertions on this cub are
// stamped traced.
func (m *MBRCub) SetSink(s *trace.Sink) { m.sink = s }

// step reports protocol step k of entry e. MBR steps are keyed (instance,
// block 0): the interesting latency here is the two-phase insertion of
// §4.2, which all happens before the first block's service. Due is the
// entry's next service instant.
func (m *MBRCub) step(k trace.Kind, e *netsched.Entry) {
	if !m.sink.Wants(k) {
		return
	}
	now := m.clk.Now()
	m.sink.Emit(trace.Event{
		At: now, Node: m.id, Kind: k, Instance: e.Instance, Viewer: e.Viewer,
		Due: int64(m.serviceTime(e.Start, now)), Slot: -1, Disk: -1, Traced: e.Trace != 0,
	})
}

func (m *MBRCub) successor() msg.NodeID {
	return msg.NodeID((int(m.id) + 1) % m.cfg.Cubs)
}

// pointer returns this cub's current offset within the network schedule
// cycle (Figure 4: cubs move left to right, one block play time apart).
func (m *MBRCub) pointer(t sim.Time) time.Duration {
	cycle := int64(m.sched.Cycle())
	off := (int64(t) - int64(m.id)*int64(m.cfg.BlockPlay)) % cycle
	if off < 0 {
		off += cycle
	}
	return time.Duration(off)
}

// StartPlay attempts to insert a stream of the given bitrate. It returns
// false if the cub's own view already rules the insertion out ("it first
// checks its local copy of the schedule to see if it can rule out the
// insertion based solely on its view", §4.2). Otherwise the insertion
// proceeds tentatively and commits or aborts asynchronously.
func (m *MBRCub) StartPlay(viewer msg.ViewerID, inst msg.InstanceID, bitrate int64) bool {
	now := m.clk.Now()
	// The entry must start after our pointer plus the scheduling lead.
	after := m.pointer(now.Add(m.cfg.SchedLead))
	start, ok := m.sched.FindStart(after, bitrate, m.cfg.StartQuantum)
	if !ok {
		m.stats.LocalRejects++
		return false
	}
	e := netsched.Entry{
		Viewer:   viewer,
		Instance: inst,
		Start:    start,
		Bitrate:  bitrate,
		State:    netsched.Tentative,
	}
	if m.sink.Wants(trace.Admit) {
		e.Trace = 1
	}
	if err := m.sched.Insert(e); err != nil {
		m.stats.LocalRejects++
		return false
	}
	m.step(trace.Admit, &e)
	m.nextSeq++
	seq := m.nextSeq
	p := &mbrPending{entry: e, seq: seq, sendAt: m.serviceTime(start, now)}

	// Overlap the communication latency with the speculative disk read
	// of the first block (§4.2, §4.3: "communications latency can be
	// hidden by overlapping it with speculative action").
	if m.disk != nil {
		size := m.cfg.BlockSize(bitrate)
		m.disk.Read(size, disk.Outer, p.sendAt, func(_ sim.Time, ok bool) {
			if cur, live := m.pending[seq]; live && cur == p && ok {
				p.readDone = true
			}
		})
	} else {
		p.readDone = true
	}

	m.pending[seq] = p
	m.net.Send(m.id, m.successor(), &msg.ReserveReq{
		Viewer:   viewer,
		Instance: inst,
		Start:    int64(start),
		Bitrate:  int32(bitrate),
		Seq:      seq,
		Trace:    e.Trace,
	})
	// Abort if no confirmation arrives early enough to start sending
	// the initial block on time.
	p.deadline = m.clk.After(m.cfg.ReserveTimeout, func() {
		if _, live := m.pending[seq]; live {
			m.stats.Timeouts++
			m.abort(seq)
		}
	})
	return true
}

// serviceTime returns this cub's next service instant for an entry at
// the given schedule offset.
func (m *MBRCub) serviceTime(start time.Duration, after sim.Time) sim.Time {
	cycle := int64(m.sched.Cycle())
	base := int64(m.id)*int64(m.cfg.BlockPlay) + int64(start)
	d := (base - int64(after)) % cycle
	if d < 0 {
		d += cycle
	}
	return after.Add(time.Duration(d))
}

func (m *MBRCub) abort(seq int32) {
	p, ok := m.pending[seq]
	if !ok {
		return
	}
	delete(m.pending, seq)
	p.deadline.Stop()
	m.sched.Remove(p.entry.Instance)
	if !p.readDone {
		m.stats.AbortedReads++ // the disk I/O is stopped / discarded (§4.2)
	}
}

// Deliver implements netsim.Handler for the multiple-bitrate protocol.
func (m *MBRCub) Deliver(from msg.NodeID, t msg.Message) {
	switch mm := t.(type) {
	case *msg.ReserveReq:
		m.onReserveReq(from, mm)
	case *msg.ReserveResp:
		m.onReserveResp(mm)
	case *msg.Deschedule:
		// Idempotent removal, exactly as in the disk schedule.
		m.sched.Remove(mm.Instance)
	}
}

// onReserveReq handles the successor-side reservation: "if its view of
// the schedule has sufficient room it makes an entry that reserves the
// necessary space ... This entry will not result in any work being done
// ... only in a reservation of space" (§4.2).
func (m *MBRCub) onReserveReq(from msg.NodeID, r *msg.ReserveReq) {
	m.stats.ReserveHandled++
	e := netsched.Entry{
		Viewer:   r.Viewer,
		Instance: r.Instance,
		Start:    time.Duration(r.Start),
		Bitrate:  int64(r.Bitrate),
		State:    netsched.Reserved,
		Trace:    r.Trace,
	}
	ok := m.sched.Insert(e) == nil
	if ok {
		m.step(trace.State, &e) // reservation installed in the successor's view
	}
	m.net.Send(m.id, from, &msg.ReserveResp{Instance: r.Instance, Seq: r.Seq, OK: ok})
}

func (m *MBRCub) onReserveResp(r *msg.ReserveResp) {
	p, ok := m.pending[r.Seq]
	if !ok {
		return // already aborted by timeout
	}
	delete(m.pending, r.Seq)
	p.deadline.Stop()
	if !r.OK {
		m.stats.RemoteRejects++
		m.sched.Remove(p.entry.Instance)
		if !p.readDone {
			m.stats.AbortedReads++
		}
		return
	}
	// Commit: the insertion is now part of the coherent hallucination —
	// known by at least one other machine (§4.3).
	if err := m.sched.SetState(p.entry.Instance, netsched.Committed); err == nil {
		m.stats.Inserts++
		p.entry.State = netsched.Committed
		m.step(trace.Insert, &p.entry)
		if m.OnCommit != nil {
			m.OnCommit(p.entry)
		}
		m.scheduleService(p.entry)
	}
}

// Commit notification from the originator replaces the successor's
// reservation with a real schedule entry; in the full system this rides
// on the first viewer state. Here the committed entry is propagated by
// CommitRemote (invoked by the harness's gossip) or directly by tests.
func (m *MBRCub) CommitRemote(e netsched.Entry) {
	if _, have := m.sched.Get(e.Instance); have {
		_ = m.sched.SetState(e.Instance, netsched.Committed)
	} else {
		e.State = netsched.Committed
		_ = m.sched.Insert(e)
	}
	m.scheduleService(e)
}

// scheduleService arms this cub's next block send for a committed entry.
func (m *MBRCub) scheduleService(e netsched.Entry) {
	at := m.serviceTime(e.Start, m.clk.Now())
	m.clk.At(at, func() { m.service(e.Instance, at) })
}

func (m *MBRCub) service(inst msg.InstanceID, at sim.Time) {
	e, ok := m.sched.Get(inst)
	if !ok || e.State != netsched.Committed {
		return // descheduled meanwhile
	}
	m.stats.Sends++
	m.step(trace.Serve, &e)
	if m.Data != nil {
		m.Data.SendBlock(m.id, netsim.BlockDelivery{
			Viewer:   e.Viewer,
			Instance: e.Instance,
			PlaySeq:  int32(m.stats.Sends),
			Bytes:    m.cfg.BlockSize(e.Bitrate),
			Parts:    1,
		}, m.cfg.BlockPlay)
	}
	if m.OnServe != nil {
		m.OnServe(e, at)
	}
	// Next service one cycle later.
	next := at.Add(m.sched.Cycle())
	m.clk.At(next, func() { m.service(inst, next) })
}

// Utilization reports this cub's view of network schedule occupancy.
func (m *MBRCub) Utilization() float64 { return m.sched.Utilization() }
