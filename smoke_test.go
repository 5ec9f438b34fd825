package tiger

import (
	"testing"
	"time"

	"tiger/internal/trace"
)

// smallOptions returns a cheap configuration for fast tests: 5 cubs, one
// disk each, decluster 2, 0.5 s blocks, short files.
func smallOptions() Options {
	o := DefaultOptions()
	o.Cubs = 5
	o.DisksPerCub = 1
	o.Decluster = 2
	o.NumFiles = 4
	o.FileBlocks = 600
	o.ClientDropProb = 0
	return o
}

func TestSmokeSingleStream(t *testing.T) {
	c, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("capacity: %d streams, %d slots, blockService %v",
		c.Capacity(), c.Cfg.Sched.NumSlots, c.Cfg.Sched.BlockService)

	s, err := c.Play(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	st := s.Viewer.Stats()
	t.Logf("viewer: ok=%d lost=%d pieces=%d; startup=%v",
		st.BlocksOK, st.BlocksLost, st.PiecesSeen, c.StartupLatency.Mean())
	if st.BlocksOK < 20 {
		t.Fatalf("expected ~27 blocks delivered in 30s, got %d ok / %d lost", st.BlocksOK, st.BlocksLost)
	}
	if st.BlocksLost != 0 {
		t.Fatalf("unexpected losses: %d", st.BlocksLost)
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Fatalf("slot conflicts: %d", v)
	}
	if got := c.TotalCubStats(); got.Conflicts != 0 || got.IndexMisses != 0 {
		t.Fatalf("protocol anomalies: %+v", got)
	}
}

func TestSmokeManyStreams(t *testing.T) {
	c, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := c.Capacity() / 2
	if err := c.RampTo(target); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)

	if got := c.Active(); got != target {
		t.Fatalf("wanted %d active streams, have %d (queued+active=%d)",
			target, got, c.liveStreams())
	}
	var ok, lost int64
	for _, s := range c.streams {
		st := s.Viewer.Stats()
		ok += st.BlocksOK
		lost += st.BlocksLost
	}
	t.Logf("delivered %d blocks, lost %d, view max %d", ok, lost, c.MaxViewSize())
	if lost > 0 {
		t.Fatalf("losses at half load: %d of %d", lost, ok+lost)
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Fatalf("slot conflicts: %d", v)
	}
}

func TestTraceCapturesProtocolEvents(t *testing.T) {
	c, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	ring := c.EnableTrace(256)
	s, err := c.Play(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	s.Stop()
	c.RunFor(5 * time.Second)

	evs := ring.Events()
	if len(evs) < 8 {
		t.Fatalf("only %d events traced", len(evs))
	}
	inserts, serves := 0, 0
	var slot int32 = -1
	for _, e := range evs {
		switch e.Kind {
		case trace.Insert:
			inserts++
			slot = e.Slot
		case trace.Serve:
			serves++
		}
	}
	if inserts != 1 || serves < 7 {
		t.Fatalf("inserts=%d serves=%d", inserts, serves)
	}
	// The slot's history must begin with the insert and stay ordered.
	h := ring.SlotHistory(slot)
	if len(h) == 0 || h[0].Kind != trace.Insert {
		t.Fatalf("slot history does not start with the insert: %v", h)
	}
	for i := 1; i < len(h); i++ {
		if h[i].At < h[i-1].At {
			t.Fatal("trace out of order")
		}
	}
	// The oracle still works through the chained hook.
	if c.InvariantViolations() != 0 {
		t.Fatal("oracle broken by tracing")
	}
}
