package core

import (
	"testing"

	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/trace"
)

// TestStepOffPathAllocs pins the off-path cost of the one report call a
// program point makes: a step nobody subscribed to is one mask test —
// zero allocations and no clock read (clk is nil here, so reading it
// would panic) — whether the cub has no sink at all or a sink whose
// subscribers asked for other kinds.
func TestStepOffPathAllocs(t *testing.T) {
	vs := msg.ViewerState{Instance: 1, Block: 2, Slot: 3, PlaySeq: 4, Trace: 1}
	bare := &Cub{}
	inserts := &Cub{sink: &trace.Sink{}}
	inserts.sink.Subscribe(trace.KindSet(trace.Insert), func(trace.Event) {})
	for _, c := range []*Cub{bare, inserts} {
		if a := testing.AllocsPerRun(1000, func() {
			c.step(trace.Serve, &vs, -1)
			c.step(trace.DiskQueue, &vs, 7)
		}); a != 0 {
			t.Fatalf("unwanted steps allocate %.1f/op, want 0", a)
		}
	}
}

// TestStepSubscribedAllocs pins the on-path cost: with the span
// histograms, a chain log and the ring all subscribed, a step travels by
// value to each of them with no allocation, and each records it.
func TestStepSubscribedAllocs(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	c := r.cubs[0]
	spans := obs.NewSpanRecorder(obs.NewRegistry(), nil)
	chain := trace.NewChainLog(4, 8)
	ring := trace.NewRing(64)
	var seen trace.Event
	r.subscribe(obs.SpanKinds, spans.Observe)
	c.sink.Subscribe(trace.ChainKinds, chain.Record)
	c.sink.Subscribe(trace.RingKinds, ring.Add)
	c.sink.Subscribe(trace.KindSet(trace.Serve), func(e trace.Event) { seen = e })

	vs := msg.ViewerState{Instance: 1, Slot: 3, PlaySeq: 4, Due: 5e9, Trace: 1}
	c.step(trace.Serve, &vs, 7) // opens the block's chain (and allocates its hops)
	if a := testing.AllocsPerRun(1000, func() {
		vs.Block++ // a new chain every run: recycled slots past the first four
		c.step(trace.DiskRead, &vs, 7)
		c.step(trace.Serve, &vs, 7)
	}); a != 0 {
		t.Fatalf("steps with span, chain and ring subscribed allocate %.1f/op, want 0", a)
	}
	if seen.PlaySeq != 4 || seen.Slot != 3 || seen.Disk != 7 || !seen.Traced || seen.Kind != trace.Serve {
		t.Fatalf("subscriber saw %+v", seen)
	}
	serves, reads := spans.Hist(trace.Serve).Count(), spans.Hist(trace.DiskRead).Count()
	if hops := chain.Chain(1, vs.Block); len(hops) != 2 || ring.Total() != serves || reads != serves-1 {
		t.Fatalf("chain %v, ring total %d, span counts serve %d read %d", hops, ring.Total(), serves, reads)
	}
}
