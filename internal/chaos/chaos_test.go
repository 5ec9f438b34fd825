package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// fakeSystem wraps a real engine + network with recording cub controls.
// It refuses every restripe (its phase stays idle), maps failure domain
// d to cubs {2d, 2d+1}, and has no parked streams.
type fakeSystem struct {
	eng     *sim.Engine
	net     *netsim.Network
	cubs    int
	calls   []string
	disks   map[[2]int]*disk.Disk
	ctlDown bool
}

func newFakeSystem(t *testing.T, cubs int) *fakeSystem {
	t.Helper()
	eng := sim.New(1)
	net := netsim.New(netsim.DefaultParams(), clock.Sim{Eng: eng}, eng.Rand())
	for i := 0; i < cubs; i++ {
		net.Register(msg.NodeID(i), netsim.HandlerFunc(func(msg.NodeID, msg.Message) {}))
	}
	return &fakeSystem{eng: eng, net: net, cubs: cubs, disks: make(map[[2]int]*disk.Disk)}
}

func (f *fakeSystem) record(s string)        { f.calls = append(f.calls, s) }
func (f *fakeSystem) NumCubs() int           { return f.cubs }
func (f *fakeSystem) Net() *netsim.Network   { return f.net }
func (f *fakeSystem) CrashCub(i int)         { f.record("crash"); f.net.Crash(msg.NodeID(i)) }
func (f *fakeSystem) RestartCub(i int)       { f.record("restart"); f.net.Revive(msg.NodeID(i)) }
func (f *fakeSystem) FailCub(i int)          { f.record("fail"); f.net.Fail(msg.NodeID(i)) }
func (f *fakeSystem) ReviveCub(i int)        { f.record("revive"); f.net.Revive(msg.NodeID(i)) }
func (f *fakeSystem) FailDisk(cub, disk int) { f.record("disk") }
func (f *fakeSystem) RunFor(d time.Duration) { f.eng.RunFor(d) }
func (f *fakeSystem) Now() sim.Time          { return f.eng.Now() }

func (f *fakeSystem) Disk(cub, idx int) *disk.Disk {
	f.record(fmt.Sprintf("disk %d/%d", cub, idx))
	k := [2]int{cub, idx}
	if f.disks[k] == nil {
		f.disks[k] = disk.New(len(f.disks), disk.DefaultParams(), clock.Sim{Eng: f.eng}, f.eng.Rand())
	}
	return f.disks[k]
}

func (f *fakeSystem) StartRestripe(int) error           { return errors.New("no elastic restripe") }
func (f *fakeSystem) RestripePhase() core.RestripePhase { return core.RestripeIdle }

func (f *fakeSystem) domain(d int, op func(int)) ([]int, error) {
	if d >= f.cubs/2 {
		return nil, fmt.Errorf("no domain %d", d)
	}
	members := []int{2 * d, 2*d + 1}
	for _, c := range members {
		op(c)
	}
	return members, nil
}
func (f *fakeSystem) CrashDomain(d int) ([]int, error)   { return f.domain(d, f.CrashCub) }
func (f *fakeSystem) RestartDomain(d int) ([]int, error) { return f.domain(d, f.RestartCub) }

func (f *fakeSystem) CrashController()     { f.record("crash-controller"); f.ctlDown = true }
func (f *fakeSystem) RestartController()   { f.record("restart-controller"); f.ctlDown = false }
func (f *fakeSystem) ControllerDown() bool { return f.ctlDown }
func (f *fakeSystem) ParkedStreams() int   { return 0 }

func TestValidateRejectsBadSteps(t *testing.T) {
	cases := []Scenario{
		{Name: "no-duration"},
		{Name: "late-step", Duration: time.Second, Steps: []Step{{At: 2 * time.Second, Kind: CrashCub}}},
		{Name: "bad-kind", Duration: time.Second, Steps: []Step{{Kind: "melt"}}},
		{Name: "bad-cub", Duration: time.Second, Steps: []Step{{Kind: CrashCub, A: 9}}},
		{Name: "bad-peer", Duration: time.Second, Steps: []Step{{Kind: CutLink, A: 0, B: 9}}},
		{Name: "self-link", Duration: time.Second, Steps: []Step{{Kind: CutLink, A: 1, B: 1}}},
		{Name: "bad-prob", Duration: time.Second, Steps: []Step{{Kind: DropData, A: 0, Prob: 2}}},
		{Name: "slow-below-1", Duration: time.Second, Steps: []Step{DiskSlow(0, 0, 0.5)}},
		{Name: "err-prob-zero", Duration: time.Second, Steps: []Step{{Kind: ErrorDisk, A: 0}}},
		{Name: "err-prob-high", Duration: time.Second, Steps: []Step{DiskErrors(0, 0, 1.5)}},
	}
	for _, sc := range cases {
		if err := sc.Validate(4); err == nil {
			t.Errorf("scenario %q validated", sc.Name)
		}
	}
	good := Scenario{
		Name:     "good",
		Duration: time.Second,
		Steps: Concat(
			At(0, IsolateCub(2), DataLoss(All, 0.5)),
			At(250*time.Millisecond, DiskSlow(1, 0, 3), DiskErrors(1, 1, 0.05), DiskStick(0, 0)),
			At(500*time.Millisecond, RejoinCub(2), DataLoss(All, 0), DiskHeal(1, 0), DiskHeal(1, 1), DiskHeal(0, 0)),
		),
	}
	if err := good.Validate(4); err != nil {
		t.Fatalf("good scenario rejected: %v", err)
	}
}

func TestRunnerAppliesScheduleInOrder(t *testing.T) {
	sys := newFakeSystem(t, 4)
	sc := Scenario{
		Name:     "order",
		Duration: 2 * time.Second,
		Settle:   100 * time.Millisecond,
		Steps: Concat(
			// Listed out of time order on purpose; the runner sorts.
			At(900*time.Millisecond, Revive(1)),
			At(100*time.Millisecond, Fail(1)),
			At(300*time.Millisecond, Cut(2, 3)),
			At(600*time.Millisecond, Heal(2, 3)),
		),
	}
	r, err := NewRunner(sys, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fail", "revive"}
	if len(sys.calls) != 2 || sys.calls[0] != want[0] || sys.calls[1] != want[1] {
		t.Fatalf("calls %v, want %v", sys.calls, want)
	}
	if !rep.QuietAtEnd {
		t.Fatal("faults left outstanding")
	}
	if sys.net.FaultedLinks() != 0 {
		t.Fatal("link fault left behind")
	}
	if rep.Ticks < 19 {
		t.Fatalf("only %d ticks for a 2s run at 100ms", rep.Ticks)
	}
	if rep.QuietTicks == 0 {
		t.Fatal("never reached quiet despite 1.1s of settled tail")
	}
}

func TestQuietGating(t *testing.T) {
	sys := newFakeSystem(t, 3)
	var quietSeen, loudSeen bool
	inv := Invariant{Name: "probe", Check: func(quiet bool) error {
		if quiet {
			quietSeen = true
		} else {
			loudSeen = true
		}
		return nil
	}}
	sc := Scenario{
		Name:     "quiet",
		Duration: 3 * time.Second,
		Settle:   500 * time.Millisecond,
		Steps: Concat(
			At(0, Cut(0, 1)),
			At(2*time.Second, Heal(0, 1)),
		),
	}
	r, err := NewRunner(sys, sc, []Invariant{inv})
	if err != nil {
		t.Fatal(err)
	}
	var firstQuiet sim.Time
	r.OnTick = func(now sim.Time, quiet bool) {
		if quiet && firstQuiet == 0 {
			firstQuiet = now
		}
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !quietSeen || !loudSeen {
		t.Fatalf("quietSeen=%v loudSeen=%v", quietSeen, loudSeen)
	}
	// Quiet must not engage before heal + settle.
	if firstQuiet < sim.Time(2500*time.Millisecond) {
		t.Fatalf("quiet at %v, before heal+settle", firstQuiet)
	}
	if rep.Ticks != rep.QuietTicks+countLoud(rep) {
		t.Fatalf("tick bookkeeping inconsistent: %+v", rep)
	}
}

func countLoud(rep *Report) int { return rep.Ticks - rep.QuietTicks }

func TestViolationsRecorded(t *testing.T) {
	sys := newFakeSystem(t, 2)
	n := 0
	inv := Invariant{Name: "flaky-check", Check: func(bool) error {
		n++
		if n == 3 {
			return errTest
		}
		return nil
	}}
	sc := Scenario{Name: "viol", Duration: time.Second}
	r, err := NewRunner(sys, sc, []Invariant{inv})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || len(rep.Violations) != 1 {
		t.Fatalf("violations %v", rep.Violations)
	}
	if rep.Violations[0].Invariant != "flaky-check" {
		t.Fatalf("violation %+v", rep.Violations[0])
	}
	if rep.Err() == nil {
		t.Fatal("Err() nil with violations")
	}
}

type testErr string

func (e testErr) Error() string { return string(e) }

const errTest = testErr("boom")

func TestDropDataDeterministic(t *testing.T) {
	run := func() (drops int64) {
		sys := newFakeSystem(t, 2)
		sink := dummySink{}
		sys.net.RegisterViewer(1, sink)
		sc := Scenario{
			Name:     "drops",
			Seed:     42,
			Duration: time.Second,
			Steps:    At(0, DataLoss(0, 0.5)),
		}
		r, err := NewRunner(sys, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Schedule a stream of block sends across the run.
		for i := 0; i < 200; i++ {
			d := time.Duration(i) * 4 * time.Millisecond
			sys.eng.After(d, func() {
				sys.net.SendBlock(0, netsim.BlockDelivery{Viewer: 1, Bytes: 100, Parts: 1}, time.Millisecond)
			})
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.net.FaultStats().DataDrops
	}
	a, b := run(), run()
	if a == 0 || a == 200 {
		t.Fatalf("drop prob 0.5 dropped %d of 200", a)
	}
	if a != b {
		t.Fatalf("same seed dropped %d then %d blocks", a, b)
	}
}

func TestGrayDiskStepsApplyAndGateQuiet(t *testing.T) {
	sys := newFakeSystem(t, 3)
	sc := Scenario{
		Name:     "gray",
		Duration: 2 * time.Second,
		Settle:   200 * time.Millisecond,
		Steps: Concat(
			At(100*time.Millisecond, DiskSlow(1, 0, 3)),
			At(300*time.Millisecond, DiskStick(2, 1)),
			At(600*time.Millisecond, DiskHeal(1, 0)),
			At(900*time.Millisecond, DiskHeal(2, 1)),
		),
	}
	r, err := NewRunner(sys, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var firstQuiet sim.Time
	var mid [2]disk.Faults
	r.OnTick = func(now sim.Time, quiet bool) {
		if quiet && firstQuiet == 0 {
			firstQuiet = now
		}
		if now == sim.Time(500*time.Millisecond) {
			mid = [2]disk.Faults{sys.disks[[2]int{1, 0}].Faults(), sys.disks[[2]int{2, 1}].Faults()}
		}
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"disk 1/0", "disk 2/1", "disk 1/0", "disk 2/1"}
	if fmt.Sprint(sys.calls) != fmt.Sprint(want) {
		t.Fatalf("calls %v, want %v", sys.calls, want)
	}
	if mid != [2]disk.Faults{{SlowFactor: 3}, {Stuck: true}} {
		t.Fatalf("faults before the heals %+v", mid)
	}
	for k, dk := range sys.disks {
		if dk.Faults() != (disk.Faults{}) {
			t.Fatalf("disk %v still faulted after its heal: %+v", k, dk.Faults())
		}
	}
	// Gray faults gate quiet: it cannot engage until the last heal + settle.
	if firstQuiet < sim.Time(1100*time.Millisecond) {
		t.Fatalf("quiet at %v, before last heal + settle", firstQuiet)
	}
	if !rep.QuietAtEnd {
		t.Fatal("gray fault left outstanding after heals")
	}
}

type dummySink struct{}

func (dummySink) DeliverBlock(netsim.BlockDelivery) {}

func TestIsolateCutsEverything(t *testing.T) {
	sys := newFakeSystem(t, 4)
	sc := Scenario{
		Name:     "iso",
		Duration: time.Second,
		Steps: Concat(
			At(0, IsolateCub(1)),
			At(500*time.Millisecond, RejoinCub(1)),
		),
	}
	r, err := NewRunner(sys, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied := false
	r.OnTick = func(now sim.Time, quiet bool) {
		if now < sim.Time(500*time.Millisecond) && !applied {
			applied = true
			// 3 peers + controller, both directions.
			if got := sys.net.FaultedLinks(); got != 8 {
				t.Fatalf("isolate cut %d directed links, want 8", got)
			}
			if !sys.net.LinkCut(1, msg.Controller) || !sys.net.LinkCut(msg.Controller, 1) {
				t.Fatal("controller link not cut")
			}
		}
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("probe never ran")
	}
	if sys.net.FaultedLinks() != 0 || !rep.QuietAtEnd {
		t.Fatal("rejoin did not heal all links")
	}
}

func TestValidateRestripeWidening(t *testing.T) {
	// A restripe-start to 6 cubs makes cubs 4 and 5 legal targets for
	// every later step on a 4-cub cluster.
	grow := Scenario{
		Name:     "grow-widens",
		Duration: 10 * time.Second,
		Steps: Concat(
			At(0, Restripe(6)),
			At(time.Second, CrashMidRestripe(5)),
			At(2*time.Second, Restart(5)),
		),
	}
	if err := grow.Validate(4); err != nil {
		t.Fatalf("grow scenario rejected: %v", err)
	}

	// The same crash without the restripe-start is out of bounds.
	noStart := Scenario{
		Name:     "no-start",
		Duration: 10 * time.Second,
		Steps:    At(time.Second, CrashMidRestripe(5)),
	}
	if err := noStart.Validate(4); err == nil {
		t.Fatal("crash of cub 5 of 4 validated without a restripe-start")
	}

	// The widening applies in schedule order: a step BEFORE the
	// restripe-start cannot use the future bound.
	early := Scenario{
		Name:     "early-strike",
		Duration: 10 * time.Second,
		Steps: Concat(
			At(0, Crash(5)),
			At(time.Second, Restripe(6)),
		),
	}
	if err := early.Validate(4); err == nil {
		t.Fatal("step before restripe-start used the widened bound")
	}

	// A shrink never lowers the bound: the retiring cubs still exist to
	// be crashed or partitioned — that is what the linger defends.
	shrink := Scenario{
		Name:     "shrink-keeps-bound",
		Duration: 10 * time.Second,
		Steps: Concat(
			At(0, Restripe(2)),
			At(time.Second, IsolateMidRestripe(3)),
			At(2*time.Second, RejoinCub(3)),
		),
	}
	if err := shrink.Validate(4); err != nil {
		t.Fatalf("shrink scenario rejected: %v", err)
	}

	for _, bad := range []Scenario{
		{Name: "target-too-small", Duration: time.Second, Steps: At(0, Restripe(1))},
		{Name: "slow-below-1", Duration: time.Second, Steps: At(0, DiskSlowMidRestripe(0, 0, 0.5))},
	} {
		if err := bad.Validate(4); err == nil {
			t.Errorf("scenario %q validated", bad.Name)
		}
	}
}

func TestRestripePreconditionViolations(t *testing.T) {
	// On a system that refuses the restripe, the start records a
	// restripe-precondition violation, and so does a step guarded on a
	// restripe in progress; the guarded step still applies its fault.
	sys := newFakeSystem(t, 4)
	sc := Scenario{
		Name:     "no-elastic",
		Duration: time.Second,
		Settle:   100 * time.Millisecond,
		Steps: Concat(
			At(100*time.Millisecond, Restripe(6)),
			At(200*time.Millisecond, CrashMidRestripe(2)),
			At(400*time.Millisecond, Restart(2)),
		),
	}
	r, err := NewRunner(sys, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var pre int
	for _, v := range rep.Violations {
		if v.Invariant == "restripe-precondition" {
			pre++
		}
	}
	if pre != 2 {
		t.Fatalf("recorded %d restripe-precondition violations, want 2: %v", pre, rep.Violations)
	}
	// The crash itself still acted.
	var crashed bool
	for _, call := range sys.calls {
		if call == "crash" {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("gated crash step never applied its fault")
	}
}
