package tiger

import (
	"runtime"
	"testing"
	"time"
)

// TestSteadyBlockPathAllocs pins what a delivered block costs the heap
// in the paper's system at rated load: state accepted, read armed, disk
// completes, block sent, viewer checks — every step runs on a record
// its owner reuses, so what remains is the gossip itself (the two
// forwarded viewer-state copies, batch slices, the control message in
// flight). The bound leaves room for that and nothing per step.
func TestSteadyBlockPathAllocs(t *testing.T) {
	c, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	ok0, _, _ := c.ViewerTotals()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.RunFor(60 * time.Second)
	runtime.ReadMemStats(&m1)
	ok1, _, _ := c.ViewerTotals()
	blocks := ok1 - ok0
	if blocks < int64(c.Capacity())*50 {
		t.Fatalf("only %d blocks delivered in the window", blocks)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(blocks)
	t.Logf("%d blocks, %.2f allocs/block", blocks, per)
	if per > 8 {
		t.Fatalf("%.2f heap allocations per delivered block, budget 8", per)
	}
}
