package tiger

import (
	"encoding/json"
	"testing"
	"time"

	"tiger/internal/chaos"
	"tiger/internal/core"
	"tiger/internal/msg"
)

// Controller-failover acceptance tests (DESIGN §17): the controller
// crashes and restarts while streams play, while streams sit parked,
// and while an elastic restripe is mid-copy. In every arm the admitted
// streams play through the outage with zero loss, the takeover rebuilds
// the controller's state by scavenging the cubs, and no stream is
// double-admitted.

// TestControllerFailoverSmoke is the short-mode gate: crash the
// controller under load, restart it, and verify the takeover end to end
// through the chaos runner — zero loss for crash-time streams, a
// scavenge served by every cub, no invariant violations.
func TestControllerFailoverSmoke(t *testing.T) {
	c := rampedCluster(t, chaosTestOptions(9), 24)
	_, lost0, _ := c.ViewerTotals()
	active0 := c.Active()
	inserts0 := c.TotalCubStats().Inserts

	sc := chaos.Scenario{
		Name:     "controller-failover-smoke",
		Seed:     21,
		Duration: 30 * time.Second,
		Steps: []chaos.Step{
			{At: 2 * time.Second, Kind: chaos.CrashController},
			{At: 10 * time.Second, Kind: chaos.RestartController},
		},
	}
	res, err := c.RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Err(); err != nil {
		t.Errorf("invariant violations: %v", err)
	}
	if !res.Report.QuietAtEnd {
		t.Errorf("faults still outstanding: %v", res.Report.Outstanding)
	}
	_, lost1, _ := c.ViewerTotals()
	if lost := lost1 - lost0; lost != 0 {
		t.Errorf("%d blocks lost across the controller outage (must be 0)", lost)
	}
	cs := c.TotalCubStats()
	if cs.ScavengesServed != int64(len(c.Cubs)) {
		t.Errorf("scavenges served = %d, want %d (one per cub)", cs.ScavengesServed, len(c.Cubs))
	}
	if cs.CtlTakeovers == 0 {
		t.Error("no cub observed the epoch bump")
	}
	if got := c.Controller.Epoch(); got != 2 {
		t.Errorf("controller epoch = %d, want 2", got)
	}
	if got := c.Controller.Stats().Takeovers; got != 1 {
		t.Errorf("takeovers = %d, want 1", got)
	}
	// Every crash-time stream survived, none was double-admitted: the
	// active count matches and the takeover itself inserted nothing (any
	// new insertions belong to EOF replays, which the oracle checks).
	if got := c.Active(); got != active0 {
		t.Errorf("active = %d after failover, want %d", got, active0)
	}
	if c.Controller.Scavenging() {
		t.Error("scavenge still open at end of run")
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts: %d", v)
	}
	_ = inserts0 // EOF replay churn may insert; the oracle above guards double occupancy
}

// TestControllerFailoverRetries drives the client retry path: a start
// issued during the outage is refused, retried with backoff, and admits
// once the takeover completes — no retry storm, no abandonment.
func TestControllerFailoverRetries(t *testing.T) {
	c := rampedCluster(t, chaosTestOptions(11), 12)
	c.CrashController()
	c.RunFor(time.Second)

	if _, err := c.Play(0, 0); err == nil {
		t.Fatal("plain Play admitted during the outage")
	}
	var started *Stream
	if err := c.PlayRetrying(1, 0, func(s *Stream) { started = s }); err != nil {
		t.Fatalf("PlayRetrying returned a hard error for a transient outage: %v", err)
	}
	c.RunFor(2 * time.Second)
	if started != nil {
		t.Fatal("a retrying start admitted while the controller was down")
	}
	c.RestartController()
	c.RunFor(10 * time.Second)
	if started == nil {
		t.Fatal("the retrying start never admitted after the takeover")
	}
	retries, abandoned := c.StartRetryStats()
	if retries == 0 {
		t.Error("no retries recorded")
	}
	if abandoned != 0 {
		t.Errorf("%d starts abandoned during a short outage", abandoned)
	}

	// An outage longer than the whole backoff schedule abandons.
	c.CrashController()
	if err := c.PlayRetrying(2, 0, nil); err != nil {
		t.Fatalf("PlayRetrying: %v", err)
	}
	c.RunFor(60 * time.Second)
	if _, abandoned = c.StartRetryStats(); abandoned != 1 {
		t.Errorf("abandoned = %d after exhausting the backoff schedule, want 1", abandoned)
	}
	c.RestartController()
}

// TestControllerFailoverWhileParked crashes the controller while the
// governor holds parked streams. The takeover must rebuild the parked
// set from the tickets the cubs retain and, once the crashed cubs
// rejoin, resume every stream exactly once.
func TestControllerFailoverWhileParked(t *testing.T) {
	if testing.Short() {
		t.Skip("failover acceptance run")
	}
	o := governorTestOptions(13)
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	h := NewChaosHarness(c)
	defer h.Close()
	if err := c.RampTo(24); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)
	_, lost0, _ := c.ViewerTotals()

	// Adjacent cubs 3,4 exhaust disk 3's mirror coverage: the governor
	// parks the endangered streams.
	c.CrashCub(3)
	c.CrashCub(4)
	c.RunFor(3 * time.Second)
	parked0 := c.ParkedStreams()
	if parked0 == 0 {
		t.Fatal("no streams parked before the controller crash; the scenario is vacuous")
	}

	c.CrashController()
	c.RunFor(5 * time.Second)
	c.RestartController()
	c.RunFor(3 * time.Second)

	st := c.Controller.Stats()
	if int(st.ScavengedParks) != parked0 {
		t.Errorf("scavenged %d park tickets, want %d", st.ScavengedParks, parked0)
	}
	if got := c.ParkedStreams(); got != parked0 {
		t.Errorf("rebuilt parked set has %d streams, want %d", got, parked0)
	}
	// The replayed down set re-armed the governor: the tickets must NOT
	// drain while disk 3 is still uncovered.
	gs := c.Controller.GovernorStats()
	if gs.Unservable == 0 {
		t.Error("takeover lost the unservable set; tickets would drain into dead disks")
	}

	c.RestartCub(3)
	c.RunFor(5 * time.Second)
	c.RestartCub(4)
	c.RunFor(60 * time.Second)

	gs = c.Controller.GovernorStats()
	if gs.Parked != 0 || gs.QueueLen != 0 {
		t.Errorf("governor did not drain after rejoin: %d parked, %d queued", gs.Parked, gs.QueueLen)
	}
	if gs.Resumes != gs.Parks {
		t.Errorf("%d resumes for %d parks: each scavenged ticket must resume exactly once",
			gs.Resumes, gs.Parks)
	}
	for i, cub := range c.Cubs {
		if n := cub.ParkedTickets(); n != 0 {
			t.Errorf("cub %d still retains %d park tickets after the resumes", i, n)
		}
	}
	if c.Active() != 24 {
		t.Errorf("active streams = %d after drain, want 24", c.Active())
	}
	_, lost1, _ := c.ViewerTotals()
	if lost := lost1 - lost0; lost != 0 {
		t.Errorf("%d blocks lost across park + controller failover (must be 0)", lost)
	}
	if d := h.DoubleServes(); d != 0 {
		t.Errorf("%d double services", d)
	}
	if v := c.InvariantViolations(); v != 0 {
		t.Errorf("slot conflicts: %d", v)
	}
}

// TestControllerFailoverDuringRestripe crashes the controller while an
// elastic restripe is mid-copy. The takeover re-arms the coordinator
// from the harness-held plan; committed moves re-ack as duplicates and
// the restripe completes, serving every stream throughout.
func TestControllerFailoverDuringRestripe(t *testing.T) {
	if testing.Short() {
		t.Skip("failover acceptance run")
	}
	o := elasticTestOptions()
	o.Seed = 15
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	h := NewChaosHarness(c)
	defer h.Close()
	if err := c.RampTo(16); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	_, lost0, _ := c.ViewerTotals()

	if err := c.StartRestripe(8); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if p := c.RestripePhase(); p != core.RestripeCopy {
		t.Fatalf("restripe already past copy (%q); crash window missed", p)
	}
	c.CrashController()
	committedAtCrash := c.Controller.RestripeStats().Committed
	c.RunFor(5 * time.Second)
	if got := c.Controller.RestripeStats().Committed; got != committedAtCrash {
		t.Errorf("dead incarnation kept folding commits (%d -> %d)", committedAtCrash, got)
	}
	c.RestartController()
	c.RunFor(2 * time.Second)
	if !c.Controller.RestripeStats().Active {
		t.Fatal("takeover did not re-arm the interrupted restripe")
	}

	if !waitPhase(c, core.RestripeDone, 10*time.Minute) {
		t.Fatalf("restripe never completed after the takeover (phase %q)", c.RestripePhase())
	}
	assertElasticClean(t, c, h, lost0, 8)
	if got := c.Controller.Epoch(); got != 2 {
		t.Errorf("controller epoch = %d, want 2", got)
	}
}

// TestControllerFailoverDuringCutoverPause crashes and restarts the
// controller inside the cutover pause. Every move has committed, so the
// copy is over: the new incarnation re-arms nothing and sends no move
// order, and the restripe still flips, drains and finishes.
func TestControllerFailoverDuringCutoverPause(t *testing.T) {
	o := elasticTestOptions()
	o.Seed = 15
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	h := NewChaosHarness(c)
	defer h.Close()
	if err := c.RampTo(16); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	_, lost0, _ := c.ViewerTotals()

	if err := c.StartRestripe(8); err != nil {
		t.Fatal(err)
	}
	for deadline := c.Now().Add(6 * time.Minute); c.RestripePhase() != core.RestripeCutover; {
		if c.Now() >= deadline || c.RestripePhase() != core.RestripeCopy {
			t.Fatalf("never caught the cutover pause (phase %q)", c.RestripePhase())
		}
		c.RunFor(100 * time.Millisecond)
	}
	c.CrashController()
	c.RunFor(100 * time.Millisecond)
	orders := 0
	c.Net.DropControl = func(_, _ msg.NodeID, m msg.Message) bool {
		if _, ok := m.(*msg.MoveOrder); ok {
			orders++
		}
		return false
	}
	c.RestartController()
	c.RunFor(300 * time.Millisecond)
	if p := c.RestripePhase(); p != core.RestripeCutover {
		t.Fatalf("the takeover finished outside the cutover pause (phase %q)", p)
	}

	if !waitPhase(c, core.RestripeDone, 10*time.Minute) {
		t.Fatalf("restripe never completed after the takeover (phase %q)", c.RestripePhase())
	}
	if orders != 0 {
		t.Errorf("the new incarnation sent %d move orders after the copy had finished", orders)
	}
	if st := c.Controller.RestripeStats(); st.Active || st.Total != 0 {
		t.Errorf("the takeover re-armed the finished copy: %+v", st)
	}
	if got := c.Cfg.Layout.Cubs; got != 8 {
		t.Errorf("layout has %d cubs, want 8", got)
	}
	if _, lost, _ := c.ViewerTotals(); lost != lost0 {
		t.Errorf("lost %d blocks across the takeover", lost-lost0)
	}
	if d, v := h.DoubleServes(), c.InvariantViolations(); d != 0 || v != 0 {
		t.Errorf("%d double services, %d slot conflicts", d, v)
	}
}

// TestControllerFailoverDeterminism: the same seeds replay the whole
// crash–scavenge–recover cycle byte for byte.
func TestControllerFailoverDeterminism(t *testing.T) {
	run := func() []byte {
		c := rampedCluster(t, chaosTestOptions(9), 24)
		sc := chaos.Scenario{
			Name:     "controller-failover-smoke",
			Seed:     21,
			Duration: 30 * time.Second,
			Steps: []chaos.Step{
				{At: 2 * time.Second, Kind: chaos.CrashController},
				{At: 10 * time.Second, Kind: chaos.RestartController},
			},
		}
		res, err := c.RunChaos(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("same seeds produced different failover runs:\n%s\n%s", a, b)
	}
}
