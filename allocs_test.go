package tiger

import (
	"runtime"
	"testing"
	"time"
)

// steadyCluster brings the paper's system to rated load and lets the
// ramp settle for a minute.
func steadyCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	return c
}

// steadyWindow measures one minute of the paper's system at rated load:
// blocks delivered, heap allocations and engine events.
func steadyWindow(t *testing.T) (blocks int64, mallocs, events uint64) {
	t.Helper()
	c := steadyCluster(t)
	ok0, _, _ := c.ViewerTotals()
	ev0 := c.EventsProcessed()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.RunFor(60 * time.Second)
	runtime.ReadMemStats(&m1)
	ok1, _, _ := c.ViewerTotals()
	blocks = ok1 - ok0
	if blocks < int64(c.Capacity())*50 {
		t.Fatalf("only %d blocks delivered in the window", blocks)
	}
	return blocks, m1.Mallocs - m0.Mallocs, c.EventsProcessed() - ev0
}

// TestSteadyBlockPathAllocs pins what a delivered block costs the heap
// in the paper's system at rated load: state accepted, read armed, disk
// completes, block sent, viewer checks — every step runs on a record
// its owner reuses, and so does every control message in flight. The
// gossip a flush hands to the network (the state array, each batch and
// its slice) and the heartbeats come back to their sender when the
// network is done with them and are reused, and the periodic ticks
// re-arm with callbacks bound once, so nearly nothing is left: under
// 0.001 is measured, and the bound is 0.01.
func TestSteadyBlockPathAllocs(t *testing.T) {
	blocks, mallocs, _ := steadyWindow(t)
	per := float64(mallocs) / float64(blocks)
	t.Logf("%d blocks, %.4f allocs/block", blocks, per)
	if per > 0.01 {
		t.Fatalf("%.4f heap allocations per delivered block, budget 0.01", per)
	}
}

// TestSteadyEventsPerBlock pins what a delivered block costs the event
// queue: read timer, disk completion, send timer, last byte at the
// viewer, the viewer's deadline check, and its share of the periodic
// work (gossip batches in flight, forward ticks, heartbeats). A buffer
// going back to the pool and a NIC share given up are not events.
func TestSteadyEventsPerBlock(t *testing.T) {
	blocks, _, events := steadyWindow(t)
	per := float64(events) / float64(blocks)
	t.Logf("%d blocks, %.2f events/block", blocks, per)
	if per > 5.8 {
		t.Fatalf("%.2f engine events per delivered block, budget 5.8", per)
	}
}

// TestSteadyPendingEvents pins how long the event queue is at rated
// load, which is what every push and pop pays for: a cub arms one timer
// per drive for the next read or send its walk of that drive's schedule
// comes to, not two per view entry, so what is pending is a deadline
// check and a last-byte delivery per stream (~600 each), the 56 drive
// timers, the reads in service and the periodic ticks — 1 365 at 14
// cubs, where arming every entry's read and send kept 12 250.
func TestSteadyPendingEvents(t *testing.T) {
	c := steadyCluster(t)
	entries := 0
	for _, cub := range c.Cubs {
		entries += cub.ViewSize()
	}
	pending := c.Eng.Pending()
	t.Logf("%d events pending for %d view entries", pending, entries)
	if pending > 1500 {
		t.Fatalf("%d events pending at rated load, budget 1500", pending)
	}
	if entries < 5000 {
		t.Fatalf("%d view entries: the load is not the rated one", entries)
	}
}

// TestChurnBlockPathAllocs pins what a delivered block costs the heap
// when streams come and go: one-minute files at 90 % of rated load, each
// replayed at its end, so about nine streams a second stop at end of
// file and start again. What a start and a stop cost the protocol runs
// on reused records — the queued start, the play record and its expiry,
// the tombstones, the insertion's gossip — and only what goes on the
// wire is allocated (two StartPlay copies and a StartAck). The harness
// allocates nothing per start: the replay loop re-arms each finished
// stream and its viewer. 0.059 is measured, and the bound is 0.10.
func TestChurnBlockPathAllocs(t *testing.T) {
	o := DefaultOptions()
	o.FileBlocks = 60
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(int(0.9 * float64(c.Capacity()))); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	ok0, _, _ := c.ViewerTotals()
	starts0 := c.Controller.Stats().Starts
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.RunFor(60 * time.Second)
	runtime.ReadMemStats(&m1)
	ok1, _, _ := c.ViewerTotals()
	blocks, starts := ok1-ok0, c.Controller.Stats().Starts-starts0
	if blocks < int64(c.Capacity())*45 || starts < 300 {
		t.Fatalf("%d blocks delivered and %d starts in the window", blocks, starts)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(blocks)
	t.Logf("%d blocks, %d starts, %.4f allocs/block", blocks, starts, per)
	if per > 0.10 {
		t.Fatalf("%.4f heap allocations per delivered block, budget 0.10", per)
	}
}
