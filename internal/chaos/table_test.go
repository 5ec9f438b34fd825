package chaos

import (
	"reflect"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/netsim"
)

// TestKindTableCoversEveryConstructor: every kind a constructor builds
// has its row and every guard a constructor sets has its entry, and a
// kind or guard without one is refused by Validate.
func TestKindTableCoversEveryConstructor(t *testing.T) {
	built := Concat(
		[]Step{Crash(0), Restart(0), Fail(0), Revive(0), DiskFail(0, 0),
			Cut(0, 1), CutTo(0, 1), Heal(0, 1), Flaky(0, 1, netsim.FlakyParams{}),
			IsolateCub(0), RejoinCub(0), DataLoss(All, 0.1),
			DiskSlow(0, 0, 2), DiskErrors(0, 0, 0.1), DiskStick(0, 0), DiskHeal(0, 0),
			Restripe(4), CrashMidRestripe(0), IsolateMidRestripe(0), DiskSlowMidRestripe(0, 0, 2),
			DomainCrash(0), DomainRestart(0),
			CtlCrash(), CtlRestart(), CtlCrashMidRestripe(), CtlCrashWhileParked()},
		MultiCrash(0, 2), MultiRestart(0, 2), Cascade(0, 0, 2, time.Second),
	)
	for _, st := range built {
		if _, ok := kinds[st.Kind]; !ok {
			t.Errorf("kind %q has no row", st.Kind)
		}
		if _, ok := guards[st.Require]; st.Require != "" && !ok {
			t.Errorf("guard %q has no entry", st.Require)
		}
	}
	if err := (Scenario{Name: "built", Duration: time.Second, Steps: built}).Validate(4); err != nil {
		t.Fatalf("constructed steps rejected: %v", err)
	}
	for _, st := range []Step{{Kind: "melt"}, {Kind: CrashCub, Require: "sunny"}} {
		if err := (Scenario{Name: "unrowed", Duration: time.Second, Steps: []Step{st}}).Validate(4); err == nil {
			t.Errorf("step %+v validated", st)
		}
	}
}

// TestCtlCrashMidRestripeRequiresCopyPhase: the controller takeover
// re-arms an interrupted restripe only in its copy phase, so a
// controller crash meant to test that re-arm and fired in drain records
// a restripe-precondition violation (and still crashes the controller).
func TestCtlCrashMidRestripeRequiresCopyPhase(t *testing.T) {
	for _, tc := range []struct {
		phase   core.RestripePhase
		violate []string
	}{
		{core.RestripeCopy, nil},
		{core.RestripeDrain, []string{"restripe-precondition"}},
	} {
		f := newPinFake(4)
		f.phase = tc.phase
		sc := Scenario{Name: "ctl-" + tc.phase.String(), Duration: time.Second,
			Steps: At(100*time.Millisecond, CtlCrashMidRestripe())}
		r, err := NewRunner(f, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var violate []string
		for _, v := range rep.Violations {
			violate = append(violate, v.Invariant)
		}
		if !reflect.DeepEqual(violate, tc.violate) {
			t.Errorf("phase %q: violations %q, want %q", tc.phase, violate, tc.violate)
		}
		if !f.ctlDown {
			t.Errorf("phase %q: the controller was not crashed", tc.phase)
		}
	}
}
