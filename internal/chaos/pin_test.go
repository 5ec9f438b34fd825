package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// pinFake is a System that records each call the runner makes and, at
// each RunFor, any change in its drives' fault state, the switch's
// faulted-link count and the data-drop hook, so what a scenario did to
// the system reads as one trace.
type pinFake struct {
	eng     *sim.Engine
	net     *netsim.Network
	cubs    int
	phase   core.RestripePhase
	parked  int
	ctlDown bool
	disks   map[[2]int]*disk.Disk
	seen    map[[2]int]disk.Faults
	links   int
	drop    bool
	trace   []string
}

func newPinFake(cubs int) *pinFake {
	eng := sim.New(1)
	net := netsim.New(netsim.DefaultParams(), clock.Sim{Eng: eng}, eng.Rand())
	for i := 0; i < cubs; i++ {
		net.Register(msg.NodeID(i), netsim.HandlerFunc(func(msg.NodeID, msg.Message) {}))
	}
	return &pinFake{eng: eng, net: net, cubs: cubs, phase: core.RestripeIdle,
		disks: make(map[[2]int]*disk.Disk), seen: make(map[[2]int]disk.Faults)}
}

func (f *pinFake) record(format string, a ...any) {
	f.trace = append(f.trace, fmt.Sprintf(format, a...))
}

// observe records what changed in the drives and the switch since the
// last observation.
func (f *pinFake) observe() {
	keys := make([][2]int, 0, len(f.disks))
	for k := range f.disks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if fs := f.disks[k].Faults(); fs != f.seen[k] {
			f.seen[k] = fs
			f.record("disk %d/%d %+v", k[0], k[1], fs)
		}
	}
	if n := f.net.FaultedLinks(); n != f.links {
		f.links = n
		f.record("links %d", n)
	}
	if on := f.net.DropData != nil; on != f.drop {
		f.drop = on
		f.record("drop hook %v", on)
	}
}

func (f *pinFake) Disk(cub, idx int) *disk.Disk {
	k := [2]int{cub, idx}
	if f.disks[k] == nil {
		f.disks[k] = disk.New(len(f.disks), disk.DefaultParams(), clock.Sim{Eng: f.eng}, f.eng.Rand())
	}
	return f.disks[k]
}

func (f *pinFake) NumCubs() int         { return f.cubs }
func (f *pinFake) Net() *netsim.Network { return f.net }
func (f *pinFake) Now() sim.Time        { return f.eng.Now() }
func (f *pinFake) RunFor(d time.Duration) {
	f.observe()
	f.eng.RunFor(d)
}
func (f *pinFake) CrashCub(i int)         { f.record("crash %d", i) }
func (f *pinFake) RestartCub(i int)       { f.record("restart %d", i) }
func (f *pinFake) FailCub(i int)          { f.record("fail %d", i) }
func (f *pinFake) ReviveCub(i int)        { f.record("revive %d", i) }
func (f *pinFake) FailDisk(cub, disk int) { f.record("fail-disk %d/%d", cub, disk) }
func (f *pinFake) StartRestripe(target int) error {
	f.record("restripe %d", target)
	if f.phase.Active() {
		return fmt.Errorf("restripe in phase %q", f.phase)
	}
	f.phase = core.RestripeCopy
	return nil
}
func (f *pinFake) RestripePhase() core.RestripePhase { return f.phase }

// domain d is cubs {2d, 2d+1}.
func (f *pinFake) domain(verb string, d int) ([]int, error) {
	f.record("%s-domain %d", verb, d)
	if d >= f.cubs/2 {
		return nil, fmt.Errorf("no domain %d", d)
	}
	return []int{2 * d, 2*d + 1}, nil
}
func (f *pinFake) CrashDomain(d int) ([]int, error)   { return f.domain("crash", d) }
func (f *pinFake) RestartDomain(d int) ([]int, error) { return f.domain("restart", d) }
func (f *pinFake) CrashController() {
	f.record("crash-controller")
	f.ctlDown = true
}
func (f *pinFake) RestartController() {
	f.record("restart-controller")
	f.ctlDown = false
}
func (f *pinFake) ControllerDown() bool { return f.ctlDown }
func (f *pinFake) ParkedStreams() int   { return f.parked }

// flat joins steps and step groups into one schedule, whichever shape a
// constructor returns.
func flat(parts ...any) []Step {
	var out []Step
	for _, p := range parts {
		switch p := p.(type) {
		case Step:
			out = append(out, p)
		case []Step:
			out = append(out, p...)
		default:
			panic(fmt.Sprintf("flat: %T", p))
		}
	}
	return out
}

// at shifts a schedule by d.
func at(d time.Duration, parts ...any) []Step {
	steps := flat(parts...)
	for i := range steps {
		steps[i].At += d
	}
	return steps
}

// TestEveryConstructorPinned runs one scenario per step constructor (and
// per kind that has none) on pinFake and pins what the runner did: the
// system calls and state changes in order, Report.Outstanding, and the
// invariant names of the violations.
func TestEveryConstructorPinned(t *testing.T) {
	const t1, t2 = 100 * time.Millisecond, 500 * time.Millisecond
	flaky := netsim.FlakyParams{DropProb: 0.5}
	cases := []struct {
		name    string
		setup   func(*pinFake)
		steps   []Step
		calls   []string
		outst   []string
		violate []string
	}{
		{name: "Crash", steps: at(t1, Crash(2)),
			calls: []string{"crash 2"}, outst: []string{"cub 2 down"}},
		{name: "Restart", steps: flat(at(t1, Crash(2)), at(t2, Restart(2))),
			calls: []string{"crash 2", "restart 2"}},
		{name: "Fail", steps: at(t1, Fail(1)),
			calls: []string{"fail 1"}, outst: []string{"cub 1 down"}},
		{name: "Revive", steps: flat(at(t1, Fail(1)), at(t2, Revive(1))),
			calls: []string{"fail 1", "revive 1"}},
		{name: "DiskFail", steps: at(t1, DiskFail(1, 2)),
			calls: []string{"fail-disk 1/2"}},
		{name: "Cut", steps: at(t1, Cut(0, 3)),
			calls: []string{"links 2"}, outst: []string{"2 faulted links"}},
		{name: "CutTo", steps: at(t1, CutTo(0, 3)),
			calls: []string{"links 1"}, outst: []string{"1 faulted links"}},
		{name: "Heal", steps: flat(at(t1, Cut(0, 3)), at(t2, Heal(0, 3))),
			calls: []string{"links 2", "links 0"}},
		{name: "heal-oneway", steps: flat(at(t1, Cut(0, 3)), at(t2, Step{Kind: HealOneWay, A: 3, B: 0})),
			calls: []string{"links 2", "links 1"}, outst: []string{"1 faulted links"}},
		{name: "Flaky", steps: at(t1, Flaky(1, 2, flaky)),
			calls: []string{"links 2"}, outst: []string{"2 faulted links"}},
		{name: "flaky-oneway", steps: at(t1, Step{Kind: FlakyOneWay, A: 1, B: 2, Flaky: flaky}),
			calls: []string{"links 1"}, outst: []string{"1 faulted links"}},
		{name: "IsolateCub", steps: at(t1, IsolateCub(4)),
			calls: []string{"links 12"}, outst: []string{"12 faulted links"}},
		{name: "RejoinCub", steps: flat(at(t1, IsolateCub(4)), at(t2, RejoinCub(4))),
			calls: []string{"links 12", "links 0"}},
		{name: "heal-all", steps: flat(at(t1, Cut(0, 1), CutTo(2, 3)), at(t2, Step{Kind: HealAll})),
			calls: []string{"links 3", "links 0"}},
		{name: "DataLoss", steps: at(t1, DataLoss(All, 0.25), DataLoss(3, 0.5)),
			calls: []string{"drop hook true", "drop hook false"}, // Run clears the hook at the end
			outst: []string{"data drop p=0.25 on all cubs", "data drop p=0.5 on cub 3"}},
		{name: "DataLoss-heal", steps: flat(at(t1, DataLoss(3, 0.5)), at(t2, DataLoss(3, 0))),
			calls: []string{"drop hook true", "drop hook false"}},
		{name: "DiskSlow", steps: at(t1, DiskSlow(1, 0, 3)),
			calls: []string{"disk 1/0 {SlowFactor:3 ErrProb:0 Stuck:false}"},
			outst: []string{"gray fault on cub 1 disk 0"}},
		{name: "DiskErrors", steps: at(t1, DiskErrors(2, 1, 0.05)),
			calls: []string{"disk 2/1 {SlowFactor:0 ErrProb:0.05 Stuck:false}"},
			outst: []string{"gray fault on cub 2 disk 1"}},
		{name: "DiskStick", steps: at(t1, DiskStick(0, 3)),
			calls: []string{"disk 0/3 {SlowFactor:0 ErrProb:0 Stuck:true}"},
			outst: []string{"gray fault on cub 0 disk 3"}},
		{name: "DiskHeal", steps: flat(at(t1, DiskSlow(1, 0, 3), DiskStick(1, 0), DiskStick(2, 2)), at(t2, DiskHeal(1, 0))),
			calls: []string{"disk 1/0 {SlowFactor:3 ErrProb:0 Stuck:true}", "disk 2/2 {SlowFactor:0 ErrProb:0 Stuck:true}",
				"disk 1/0 {SlowFactor:0 ErrProb:0 Stuck:false}"},
			outst: []string{"gray fault on cub 2 disk 2"}},
		{name: "Restripe", steps: at(t1, Restripe(8)),
			calls: []string{"restripe 8"}, outst: []string{`restripe in phase "copy"`}},
		{name: "Restripe-refused", steps: flat(at(t1, Restripe(8)), at(t2, Restripe(4))),
			calls:   []string{"restripe 8", "restripe 4"},
			outst:   []string{`restripe in phase "copy"`},
			violate: []string{"restripe-precondition"}},
		{name: "CrashMidRestripe", steps: flat(at(t1, Restripe(8)), at(t2, CrashMidRestripe(7))),
			calls: []string{"restripe 8", "crash 7"}, outst: []string{"cub 7 down", `restripe in phase "copy"`}},
		{name: "CrashMidRestripe-idle", steps: at(t1, CrashMidRestripe(2)),
			calls: []string{"crash 2"}, outst: []string{"cub 2 down"}, violate: []string{"restripe-precondition"}},
		{name: "IsolateMidRestripe", steps: flat(at(t1, Restripe(4)), at(t2, IsolateMidRestripe(5))),
			calls: []string{"restripe 4", "links 12"}, outst: []string{"12 faulted links", `restripe in phase "copy"`}},
		{name: "IsolateMidRestripe-idle", steps: flat(at(t1, IsolateMidRestripe(5)), at(t2, RejoinCub(5))),
			calls: []string{"links 12", "links 0"}, violate: []string{"restripe-precondition"}},
		{name: "DiskSlowMidRestripe", steps: flat(at(t1, Restripe(8)), at(t2, DiskSlowMidRestripe(3, 1, 2))),
			calls: []string{"restripe 8", "disk 3/1 {SlowFactor:2 ErrProb:0 Stuck:false}"},
			outst: []string{"gray fault on cub 3 disk 1", `restripe in phase "copy"`}},
		{name: "DiskSlowMidRestripe-idle", steps: at(t1, DiskSlowMidRestripe(3, 1, 2)),
			calls:   []string{"disk 3/1 {SlowFactor:2 ErrProb:0 Stuck:false}"},
			outst:   []string{"gray fault on cub 3 disk 1"},
			violate: []string{"restripe-precondition"}},
		{name: "MultiCrash", steps: at(t1, MultiCrash(2, 3)),
			calls: []string{"crash 2", "crash 3", "crash 4"},
			outst: []string{"cub 2 down", "cub 3 down", "cub 4 down"}},
		{name: "MultiRestart", steps: flat(at(t1, MultiCrash(2, 3)), at(t2, MultiRestart(3, 2))),
			calls: []string{"crash 2", "crash 3", "crash 4", "restart 3", "restart 4"},
			outst: []string{"cub 2 down"}},
		{name: "DomainCrash", steps: at(t1, DomainCrash(1)),
			calls: []string{"crash-domain 1"}, outst: []string{"cub 2 down", "cub 3 down"}},
		{name: "DomainRestart", steps: flat(at(t1, DomainCrash(1)), at(t2, DomainRestart(1))),
			calls: []string{"crash-domain 1", "restart-domain 1"}},
		{name: "DomainCrash-refused", steps: at(t1, DomainCrash(3)),
			calls: []string{"crash-domain 3"}, violate: []string{"domain-precondition"}},
		{name: "DomainRestart-refused", steps: at(t1, DomainRestart(5)),
			calls: []string{"restart-domain 5"}, violate: []string{"domain-precondition"}},
		{name: "CtlCrash", steps: at(t1, CtlCrash()),
			calls: []string{"crash-controller"}, outst: []string{"controller down"}},
		{name: "CtlRestart", steps: flat(at(t1, CtlCrash()), at(t2, CtlRestart())),
			calls: []string{"crash-controller", "restart-controller"}},
		{name: "CtlCrashMidRestripe", steps: flat(at(t1, Restripe(8)), at(t2, CtlCrashMidRestripe())),
			calls: []string{"restripe 8", "crash-controller"},
			outst: []string{"controller down", `restripe in phase "copy"`}},
		{name: "CtlCrashMidRestripe-idle", steps: at(t1, CtlCrashMidRestripe()),
			calls: []string{"crash-controller"}, outst: []string{"controller down"},
			violate: []string{"restripe-precondition"}},
		{name: "CtlCrashWhileParked", setup: func(f *pinFake) { f.parked = 3 },
			steps: flat(at(t1, CtlCrashWhileParked()), at(t2, CtlRestart())),
			calls: []string{"crash-controller", "restart-controller"}},
		{name: "CtlCrashWhileParked-none", steps: at(t1, CtlCrashWhileParked()),
			calls: []string{"crash-controller"}, outst: []string{"controller down"},
			violate: []string{"controller-precondition"}},
		{name: "Cascade", steps: Cascade(t1, 1, 3, 200*time.Millisecond),
			calls: []string{"crash 1", "crash 2", "crash 3"},
			outst: []string{"cub 1 down", "cub 2 down", "cub 3 down"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newPinFake(6)
			if tc.setup != nil {
				tc.setup(f)
			}
			sc := Scenario{Name: tc.name, Duration: time.Second, Settle: 100 * time.Millisecond, Steps: tc.steps}
			r, err := NewRunner(f, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			f.observe()
			var violate []string
			for _, v := range rep.Violations {
				violate = append(violate, v.Invariant)
			}
			if !reflect.DeepEqual(f.trace, tc.calls) {
				t.Errorf("calls\n got %q\nwant %q", f.trace, tc.calls)
			}
			if !reflect.DeepEqual(rep.Outstanding, tc.outst) {
				t.Errorf("outstanding\n got %q\nwant %q", rep.Outstanding, tc.outst)
			}
			if !reflect.DeepEqual(violate, tc.violate) {
				t.Errorf("violations\n got %q\nwant %q", violate, tc.violate)
			}
		})
	}
}
