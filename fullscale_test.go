package tiger

import (
	"testing"
	"time"
)

// TestPaperCapacity checks that the default configuration plans the
// paper's headline capacity: 56 disks at about 10.75 streams per disk,
// 602 streams total (§5).
func TestPaperCapacity(t *testing.T) {
	c, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := c.CapacityPlan()
	t.Logf("blockService=%v perDisk=%.3f total=%d", plan.BlockService, plan.StreamsPerDisk, plan.Streams)
	if plan.Streams < 590 || plan.Streams > 610 {
		t.Fatalf("capacity %d far from the paper's 602", plan.Streams)
	}
	if plan.StreamsPerDisk < 10.5 || plan.StreamsPerDisk > 11.0 {
		t.Fatalf("per-disk capacity %.2f far from the paper's 10.75", plan.StreamsPerDisk)
	}
}

// TestFullLoadUnfailed ramps the paper configuration to full capacity
// and verifies timely delivery with a tiny loss rate.
func TestFullLoadUnfailed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(120 * time.Second)
	var ok, lost int64
	for _, st := range c.streams {
		vs := st.Viewer.Stats()
		ok += vs.BlocksOK
		lost += vs.BlocksLost
	}
	t.Logf("blocks ok=%d lost=%d serverMiss=%d", ok, lost, c.TotalCubStats().ServerMisses)
	if c.Active() != c.Capacity() {
		t.Errorf("only %d of %d streams active", c.Active(), c.Capacity())
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts: %d", v)
	}
	if lost > (ok+lost)/10000 {
		t.Errorf("loss rate too high: %d of %d", lost, ok+lost)
	}
	cs := c.TotalCubStats()
	if cs.Conflicts != 0 || cs.IndexMisses != 0 {
		t.Errorf("anomalies: %+v", cs)
	}
}

// TestFullLoadOneCubFailed reproduces the failed-mode experiment: one
// cub down for the whole run, mirrors carrying its load.
func TestFullLoadOneCubFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	c.FailCub(5)
	c.RunFor(5 * time.Second) // let the deadman notice before load arrives
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(120 * time.Second)
	var ok, lost, mirror int64
	for _, st := range c.streams {
		vs := st.Viewer.Stats()
		ok += vs.BlocksOK
		lost += vs.BlocksLost
		mirror += vs.MirrorBlocks
	}
	cs := c.TotalCubStats()
	t.Logf("blocks ok=%d lost=%d mirrorBlocks=%d pieces=%d misses=%d", ok, lost, mirror, cs.PiecesSent, cs.ServerMisses)
	if c.Active() != c.Capacity() {
		t.Errorf("only %d of %d streams active", c.Active(), c.Capacity())
	}
	if mirror == 0 {
		t.Errorf("no blocks served from mirrors despite a failed cub")
	}
	if lost > (ok+lost)/5000 {
		t.Errorf("loss rate too high in failed mode: %d of %d", lost, ok+lost)
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts: %d", v)
	}
}

// TestBufferPoolMatchesPaperHardware checks that the buffer the cubs
// need (blocks held from disk read to send completion) fits the paper's
// machines: 64 MB of RAM with a 20 MB block cache per cub.
func TestBufferPoolMatchesPaperHardware(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(90 * time.Second)
	var peak int64
	for _, cub := range c.Cubs {
		if p := cub.Stats().PeakBuffered; p > peak {
			peak = p
		}
	}
	t.Logf("peak buffer pool per cub: %.1f MB", float64(peak)/1e6)
	if peak > 40e6 {
		t.Errorf("peak buffer %.1f MB would not fit the paper's 64 MB cubs", float64(peak)/1e6)
	}
	if peak < 5e6 {
		t.Errorf("peak buffer %.1f MB implausibly small at full load", float64(peak)/1e6)
	}
}
