package tiger

import (
	"fmt"
	"io"

	"tiger/internal/trace"
)

// EnableTrace attaches a bounded protocol event log retaining the most
// recent `capacity` events (inserts, serves, misses, hedges,
// quarantines, restripe moves and phase flips) across all cubs. Call
// once, before starting load; returns the ring for inspection. Useful
// with Cub.DumpView when investigating a run. The ring's volume and
// eviction counters join the metrics registry, so an exported snapshot
// records whether the trace window was exceeded. The ring is one
// subscriber of the cluster's event sink, beside a chaos harness and
// the flight recorder.
func (c *Cluster) EnableTrace(capacity int) *trace.Ring {
	ring := trace.NewRing(capacity)
	c.ring = ring
	c.reg.CounterFunc("tiger_trace_events_total",
		"Protocol trace events recorded into the ring.",
		nil, func() float64 { return float64(ring.Total()) })
	c.reg.CounterFunc("tiger_trace_dropped_total",
		"Protocol trace events evicted from the bounded ring.",
		nil, func() float64 { return float64(ring.Dropped()) })
	c.sink.Subscribe(trace.RingKinds, ring.Add)
	return ring
}

// ExportEvents streams the protocol trace as JSONL, one event per line,
// oldest first. EnableTrace must have been called.
func (c *Cluster) ExportEvents(w io.Writer) error {
	if c.ring == nil {
		return fmt.Errorf("tiger: ExportEvents requires EnableTrace")
	}
	return c.ring.WriteJSONL(w)
}

// ExportMetrics streams a snapshot of every registry series as JSONL,
// the machine-readable companion to Registry().WritePrometheus.
func (c *Cluster) ExportMetrics(w io.Writer) error {
	return c.reg.WriteJSONL(w)
}
