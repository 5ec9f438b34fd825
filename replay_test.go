package tiger

import (
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/sim"
	"tiger/internal/viewer"
)

// TestReplayRearmsStream follows one looping stream of 20-block files
// through two ends of file and a stall. The replay loop's next play takes
// the next viewer ID and starts its stats at zero; the finished play's
// blocks are counted once; the check that fired the replay judges
// nothing of the new play, whose first verdict comes at its own first
// deadline; and a stalled play restarts once, on the file it was
// playing. It reads only what a caller sees, so it holds whether or not
// the replay reuses the finished stream's record.
func TestReplayRearmsStream(t *testing.T) {
	const blocks = 20
	o := DefaultOptions()
	o.FileBlocks = blocks
	o.ClientDropProb = 0
	o.RestartStalled = 3
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(1); err != nil {
		t.Fatal(err)
	}
	only := func() *Stream {
		t.Helper()
		if len(c.Streams()) != 1 {
			t.Fatalf("%d live streams, want 1", len(c.Streams()))
		}
		for _, s := range c.Streams() {
			return s
		}
		return nil
	}
	// runUntil steps the cluster until cond holds, for at most a minute.
	runUntil := func(step time.Duration, cond func() bool) {
		t.Helper()
		for end := c.Now().Add(time.Minute); !cond(); c.RunFor(step) {
			if c.Now() > end {
				t.Fatal("condition not reached within a minute")
			}
		}
	}
	// replayed runs until the live play is no longer inst, then checks
	// the next play and that the plays before it are counted once.
	replayed := func(inst msg.InstanceID, vid msg.ViewerID, plays int) *Stream {
		t.Helper()
		runUntil(100*time.Millisecond, func() bool { return only().Instance != inst })
		s := only()
		if s.Done() || s.Viewer.ID != vid+1 || c.nextViewer != vid+1 {
			t.Fatalf("replay %d: done %v, viewer %d, want %d", plays, s.Done(), s.Viewer.ID, vid+1)
		}
		if st := s.Viewer.Stats(); st != (viewer.Stats{}) {
			t.Fatalf("replay %d starts with stats %+v", plays, st)
		}
		if ok, lost, _ := c.ViewerTotals(); ok != int64(plays*blocks) || lost != 0 {
			t.Fatalf("after %d plays: %d blocks on time, %d lost, want %d and 0", plays, ok, lost, plays*blocks)
		}
		return s
	}

	first := only()
	var replayAt sim.Time
	first.OnEOF = func(s *Stream) {
		replayAt = c.Now()
		c.replay(s)
	}
	s := replayed(first.Instance, first.Viewer.ID, 1)

	// The new play's first block anchors its timeline; nothing is judged
	// before that block's deadline, and that block is judged then.
	starts := c.StartupLatency.Count()
	runUntil(10*time.Millisecond, func() bool { return c.StartupLatency.Count() > starts })
	due := replayAt.Add(c.StartupPoints[len(c.StartupPoints)-1].Latency + viewerSlack)
	for c.Now().Add(10*time.Millisecond) < due {
		if st := only().Viewer.Stats(); st.BlocksOK+st.BlocksLost != 0 {
			t.Fatalf("%+v judged at %v, before the new play's first deadline %v", st, c.Now(), due)
		}
		c.RunFor(10 * time.Millisecond)
	}
	c.RunFor(20 * time.Millisecond)
	if st := only().Viewer.Stats(); st.BlocksOK != 1 || st.BlocksLost != 0 {
		t.Fatalf("at the first deadline the new play judged %+v, want one block on time", st)
	}
	s = replayed(s.Instance, s.Viewer.ID, 2)
	inst, vid := s.Instance, s.Viewer.ID

	// Cut the viewer off: three blocks lost in a row stall the play, which
	// restarts once from its start on the same file, and then plays on.
	file := s.File
	runUntil(10*time.Millisecond, func() bool { return only().Viewer.Stats().BlocksOK >= 5 })
	c.Net.UnregisterViewer(vid)
	runUntil(100*time.Millisecond, func() bool { return only().Instance != inst })
	s = only()
	if c.nextViewer != vid+1 || s.Viewer.ID != vid+1 || s.File != file || s.Done() {
		t.Fatalf("stall restart: viewer %d of %d, file %d, want viewer %d and file %d",
			s.Viewer.ID, c.nextViewer, s.File, vid+1, file)
	}
	if _, lost, _ := c.ViewerTotals(); lost != 3 {
		t.Fatalf("%d blocks lost to the stall, want 3", lost)
	}
	ok0, _, _ := c.ViewerTotals()
	c.RunFor(10 * time.Second)
	if only().Instance != s.Instance || c.nextViewer != vid+1 {
		t.Fatalf("the restarted play was restarted again")
	}
	if ok, lost, _ := c.ViewerTotals(); ok < ok0+5 || lost != 3 {
		t.Fatalf("the restarted play delivered %d blocks and lost %d more", ok-ok0, lost-3)
	}
}
