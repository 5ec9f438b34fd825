package tiger

import (
	"fmt"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

// Failure flight recorder (DESIGN §9). When an oracle fires — a
// block misses its deadline, the double-service oracle trips, or a
// chaos invariant reports a violation — the recorder captures the
// implicated block's full causal chain plus a window of neighboring
// protocol events from the trace ring, so the report carries the "what
// led up to this" context that a counter cannot. Dumps are bounded:
// after MaxDumps the recorder only counts.

// FlightDump is one captured failure: the trigger, the implicated
// block (Instance 0 / Block -1 when the trigger names no block), its
// merged causal chain, and the protocol events nearest the trigger.
type FlightDump struct {
	Reason   string          `json:"reason"`
	AtNs     int64           `json:"at_ns"`
	Instance msg.InstanceID  `json:"instance,omitempty"`
	Block    int32           `json:"block"`
	Hops     []trace.JSONHop `json:"hops,omitempty"`
	Events   []string        `json:"events,omitempty"`
}

// neighborEvents bounds the ring-event window captured per dump.
const neighborEvents = 12

// FlightRecorder captures causal context at failure time.
type FlightRecorder struct {
	c *Cluster

	// MaxDumps bounds retained dumps; triggers past it only count.
	MaxDumps int

	dumps     []FlightDump
	triggered uint64
}

// EnableFlightRecorder attaches a failure flight recorder. It requires
// causal tracing (EnableCausalTrace) for chains to be available —
// without it dumps still fire but carry only the ring-event window.
// Enable it last: sink subscribers run in subscription order, and a dump
// holds the triggering step only if the ring and the chain logs heard it
// first. maxDumps <= 0 takes a default of 32. A sharded cluster gets no
// recorder (nil): its triggers fire on shard goroutines, and a dump
// reads serial-engine state (the clock, the chains, the ring).
func (c *Cluster) EnableFlightRecorder(maxDumps int) *FlightRecorder {
	if c.flight != nil || c.Shards() > 1 {
		return c.flight
	}
	if maxDumps <= 0 {
		maxDumps = 32
	}
	fr := &FlightRecorder{c: c, MaxDumps: maxDumps}
	c.flight = fr
	c.sink.Subscribe(trace.KindSet(trace.Miss, trace.Park), func(e trace.Event) {
		if e.Kind == trace.Miss {
			fr.capture(fmt.Sprintf("deadline-miss at cub %d (slot %d, mirror=%v)", e.Node, e.Slot, e.Mirror),
				e.Instance, e.Block)
			return
		}
		// A governor park is a deliberate shed, but each one costs a
		// viewer their stream — capture the causal window so a park storm
		// can be traced back to the failure that exhausted the mirrors.
		fr.capture(fmt.Sprintf("governor-park at cub %d (viewer %d, slot %d)", e.Node, e.Viewer, e.Slot),
			e.Instance, -1)
	})
	return fr
}

// FlightRecorder returns the attached recorder, or nil.
func (c *Cluster) FlightRecorder() *FlightRecorder { return c.flight }

// capture records one dump (or just counts, past MaxDumps).
func (fr *FlightRecorder) capture(reason string, inst msg.InstanceID, block int32) {
	fr.triggered++
	if len(fr.dumps) >= fr.MaxDumps {
		return
	}
	d := FlightDump{
		Reason:   reason,
		AtNs:     int64(fr.c.Now()),
		Instance: inst,
		Block:    block,
	}
	if block >= 0 {
		for _, h := range fr.c.CausalChain(inst, block) {
			d.Hops = append(d.Hops, h.JSON())
		}
	}
	if ring := fr.c.ring; ring != nil {
		evs := ring.Events()
		if len(evs) > neighborEvents {
			evs = evs[len(evs)-neighborEvents:]
		}
		for _, e := range evs {
			d.Events = append(d.Events, e.String())
		}
	}
	fr.dumps = append(fr.dumps, d)
}

// violation captures a chaos-invariant violation. The invariant names
// no specific block, so the dump carries no causal chain: only the reason
// and the ring's most recent events.
func (fr *FlightRecorder) violation(name string, detail string) {
	fr.capture(fmt.Sprintf("invariant %s: %s", name, detail), 0, -1)
}

// doubleServe captures a double-service detection with the exact block.
func (fr *FlightRecorder) doubleServe(e trace.Event, detail string) {
	fr.capture("double-service: "+detail, e.Instance, e.Block)
}

// Dumps returns the captured failures, oldest first.
func (fr *FlightRecorder) Dumps() []FlightDump { return fr.dumps }

// Triggered returns how many times an oracle fired, counting triggers
// past the MaxDumps bound.
func (fr *FlightRecorder) Triggered() uint64 { return fr.triggered }
