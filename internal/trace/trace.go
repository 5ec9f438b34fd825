// Package trace is the protocol's one reporting channel. A node reports
// each step it takes — which cub inserted, read, served or missed what,
// and when — once, as an Event into its Sink (sink.go). Everything that
// watches a run subscribes: the bounded Ring of recent events here, the
// per-block ChainLog (chain.go), the span histograms (internal/obs), the
// oracles and the flight recorder. Observing never perturbs the protocol
// itself.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"tiger/internal/msg"
	"tiger/internal/sim"
)

// Kind names a protocol step. The block-path kinds come first, in the
// order a block meets them, so a chain's same-instant steps sort into
// causal order (SortHops).
type Kind uint8

const (
	// Admit is the controller admitting the stream's start request.
	Admit Kind = iota + 1
	// Insert is a slot insertion under ownership (§4.1.3).
	Insert
	// State is the owning cub accepting the block's viewer state as it
	// arrives down the gossip ring (§4.1.1); the protocol guarantees
	// MinVStateLead of slack here.
	State
	// Deschedule is a deschedule scrubbing the block's slot (§4.1.2).
	Deschedule
	// DiskQueue is the read being issued to the disk queue.
	DiskQueue
	// DiskRead is the read completing into a buffer; slack below zero
	// here is a guaranteed server-side miss.
	DiskRead
	// Hedge is a hedged mirror read issued against a suspected disk.
	Hedge
	// Serve is a block or mirror piece handed to the network at its due
	// time.
	Serve
	// Miss is the due time passing with no block to send (late read or
	// late state).
	Miss
	// Receipt is the block's last byte arriving at the viewer; Due is the
	// viewer's play deadline.
	Receipt
	// Quarantine is a disk quarantined by the health monitor; Slot
	// carries the disk ID.
	Quarantine
	// MoveCommit is an elastic-restripe block copy committed by a cub.
	MoveCommit
	// MoveNack is a refused move order (Slot carries the nack reason).
	MoveNack
	// RestripePhase is a restripe phase transition; Slot carries the
	// new phase (core.RestripePhase).
	RestripePhase
	// Park is a stream removed by the degradation governor to protect
	// the survivors after a correlated failure.
	Park
	// Resume is a parked stream re-admitted after capacity returned.
	Resume
	// Unservable is a change in a cub's count of mirror-exhausted disks;
	// Slot carries the new count.
	Unservable

	// NumKinds sizes arrays indexed by Kind.
	NumKinds
)

var kindNames = [NumKinds]string{
	Admit:         "admit",
	Insert:        "insert",
	State:         "state",
	Deschedule:    "desched",
	DiskQueue:     "disk-queue",
	DiskRead:      "disk-read",
	Hedge:         "hedge",
	Serve:         "serve",
	Miss:          "miss",
	Receipt:       "receipt",
	Quarantine:    "quarantine",
	MoveCommit:    "move-commit",
	MoveNack:      "move-nack",
	RestripePhase: "restripe-phase",
	Park:          "park",
	Resume:        "resume",
	Unservable:    "unservable",
}

func (k Kind) String() string {
	if k < NumKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one protocol step, reported once where it happens and
// self-contained so it travels by value to every subscriber. Slot,
// Instance, Block and Mirror are what the ring exports; Viewer, PlaySeq,
// Part and Due identify the viewer and the service for the oracles, the
// span histograms and the flight recorder; Disk and Traced are what a
// causal chain adds. Kinds that have no value for a field leave it zero.
type Event struct {
	At       sim.Time
	Instance msg.InstanceID
	Viewer   msg.ViewerID
	Due      int64 // ns: when the service is due
	Node     msg.NodeID
	Slot     int32
	Block    int32
	PlaySeq  int32
	Disk     int32 // block-path kinds: the disk involved, -1 for none
	Kind     Kind
	Mirror   bool
	Traced   bool // the stream carries the causal-trace flag
	Part     int8
}

// Slack is the deadline slack (due − now, ns) remaining when the step
// fired; negative means it happened after the deadline.
func (e Event) Slack() int64 { return e.Due - int64(e.At) }

// String renders the event one-per-line for dumps.
func (e Event) String() string {
	m := ""
	if e.Mirror {
		m = " mirror"
	}
	return fmt.Sprintf("%-12v %-10v %-8v slot=%d inst=%d block=%d%s",
		e.At, e.Node, e.Kind, e.Slot, e.Instance, e.Block, m)
}

// RingKinds are the events a Ring is subscribed to: the protocol's
// decisions, not every step on a block's way (those are ChainKinds).
var RingKinds = KindSet(Insert, Serve, Miss, Hedge, Quarantine, MoveCommit, MoveNack,
	RestripePhase, Park, Resume, Unservable)

// Ring is a fixed-capacity event buffer keeping the most recent events.
// It is safe for concurrent use: under the simulator everything is
// single-threaded, but in the rt runtime every cub's executor emits
// events in parallel, all appending to one shared ring. The eviction
// count is kept in an atomic so metrics exporters can read it without
// taking the lock.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
	drops atomic.Uint64 // events evicted by overflow
}

// NewRing creates a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Add records an event, evicting the oldest when full.
func (r *Ring) Add(e Event) {
	r.mu.Lock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		r.mu.Unlock()
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.mu.Unlock()
	r.drops.Add(1)
}

// Total returns how many events were ever recorded.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events overflow has evicted. It is lock-free
// so a metrics registry can poll it from any goroutine.
func (r *Ring) Dropped() uint64 { return r.drops.Load() }

// Len returns how many events are currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Events returns retained events in chronological order.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Filter returns retained events matching the predicate, in order.
func (r *Ring) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// SlotHistory returns the retained events touching one slot — the
// natural question when investigating a suspected conflict.
func (r *Ring) SlotHistory(slot int32) []Event {
	return r.Filter(func(e Event) bool { return e.Slot == slot })
}

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	AtNs     int64  `json:"at_ns"`
	Node     int32  `json:"node"`
	Kind     string `json:"kind"`
	Slot     int32  `json:"slot"`
	Instance int64  `json:"inst"`
	Block    int32  `json:"block"`
	Mirror   bool   `json:"mirror,omitempty"`
}

// jsonHeader is the first line of a JSONL export: it tells the reader
// how many events ever happened and how many were evicted, so a
// truncated window is visible instead of silently passing for a
// complete record.
type jsonHeader struct {
	Header   bool   `json:"header"`
	Total    uint64 `json:"total"`
	Dropped  uint64 `json:"dropped"`
	Retained int    `json:"retained"`
}

// WriteJSONL streams the retained events as one JSON object per line,
// oldest first, preceded by a header line carrying the ring's total and
// drop counters — the machine-readable export behind
// Cluster.ExportEvents and tigerbench's BENCH_* artifacts.
func (r *Ring) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	events := r.Events()
	hdr := jsonHeader{Header: true, Total: r.Total(), Dropped: r.Dropped(), Retained: len(events)}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, e := range events {
		je := jsonEvent{
			AtNs:     int64(e.At),
			Node:     int32(e.Node),
			Kind:     e.Kind.String(),
			Slot:     e.Slot,
			Instance: int64(e.Instance),
			Block:    e.Block,
			Mirror:   e.Mirror,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump renders the retained events as text.
func (r *Ring) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d retained of %d total\n", r.Len(), r.Total())
	for _, e := range r.Events() {
		b.WriteString("  ")
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
