package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestCascadeExpansion(t *testing.T) {
	steps := Cascade(2*time.Second, 5, 3, 500*time.Millisecond)
	if len(steps) != 3 {
		t.Fatalf("cascade of 3 expands to %d steps", len(steps))
	}
	for k, st := range steps {
		if st.Kind != CrashCub {
			t.Fatalf("step %d kind %q, want crash-cub", k, st.Kind)
		}
		if st.A != 5+k {
			t.Fatalf("step %d targets cub %d, want %d", k, st.A, 5+k)
		}
		if want := 2*time.Second + time.Duration(k)*500*time.Millisecond; st.At != want {
			t.Fatalf("step %d fires at %v, want %v", k, st.At, want)
		}
	}
}

func TestMultiCrashRestartRoundTrip(t *testing.T) {
	sys := newFakeSystem(t, 6)
	sc := Scenario{
		Name:     "multi",
		Duration: 2 * time.Second,
		Settle:   100 * time.Millisecond,
		Steps: Concat(
			At(100*time.Millisecond, MultiCrash(2, 3)...),
			At(900*time.Millisecond, MultiRestart(2, 3)...),
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
	want := []string{"crash", "crash", "crash", "restart", "restart", "restart"}
	if len(sys.calls) != len(want) {
		t.Fatalf("calls %v, want %v", sys.calls, want)
	}
	for i := range want {
		if sys.calls[i] != want[i] {
			t.Fatalf("calls %v, want %v", sys.calls, want)
		}
	}
	if !rep.QuietAtEnd || len(rep.Outstanding) != 0 {
		t.Fatalf("restarted scenario not quiet: outstanding %v", rep.Outstanding)
	}
}

func TestOutstandingNamesUnrestoredFaults(t *testing.T) {
	sys := newFakeSystem(t, 6)
	sc := Scenario{
		Name:     "leak",
		Duration: 1 * time.Second,
		Settle:   100 * time.Millisecond,
		Steps:    At(100*time.Millisecond, MultiCrash(4, 2)...),
	}
	r, err := NewRunner(sys, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuietAtEnd {
		t.Fatal("two cubs left down but the report claims quiet")
	}
	if len(rep.Outstanding) < 2 ||
		!strings.Contains(rep.Outstanding[0], "cub 4 down") ||
		!strings.Contains(rep.Outstanding[1], "cub 5 down") {
		t.Fatalf("Outstanding = %v, want cub 4 and cub 5 named in order", rep.Outstanding)
	}
}

func TestDomainStepsUseDomainSystem(t *testing.T) {
	sys := newFakeSystem(t, 6)
	sc := Scenario{
		Name:     "domain",
		Duration: 2 * time.Second,
		Settle:   100 * time.Millisecond,
		Steps: []Step{
			At(100*time.Millisecond, DomainCrash(1))[0],
			At(900*time.Millisecond, DomainRestart(1))[0],
		},
	}
	r, err := NewRunner(sys, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"crash", "crash", "restart", "restart"}
	if len(sys.calls) != len(want) {
		t.Fatalf("calls %v, want %v (domain 1 = cubs 2,3)", sys.calls, want)
	}
	if !rep.QuietAtEnd {
		t.Fatalf("domain round trip not quiet: %v", rep.Outstanding)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations %v", rep.Violations)
	}
}

func TestValidateRejectsBadMultiSteps(t *testing.T) {
	bad := []Scenario{
		{Name: "negative-first", Duration: time.Second, Steps: MultiCrash(-1, 2)},
		{Name: "overflow", Duration: time.Second, Steps: MultiCrash(4, 4)},
		{Name: "negative-domain", Duration: time.Second,
			Steps: []Step{{Kind: CrashDomain, A: -1}}},
	}
	for _, sc := range bad {
		if err := sc.Validate(6); err == nil {
			t.Fatalf("scenario %q validated", sc.Name)
		}
	}
}
