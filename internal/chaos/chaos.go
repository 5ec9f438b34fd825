// Package chaos is a declarative, seed-reproducible fault-schedule
// harness for a Tiger cluster. A Scenario is a timed list of fault and
// repair Steps (crash / restart / disk-fail / link-cut / flaky-link /
// data-drop / heal); a Runner applies them to any System (the simulated
// Cluster in practice) while a set of Invariants — no slot conflicts, no
// double service, mirror-load conservation, view convergence — is
// checked every tick. Everything runs under the deterministic sim clock
// and a scenario-seeded rng, so a failing run replays byte-identically
// from its seed.
//
// The paper's §5 failure experiments pull one power cord; this package
// exists for the failures that are harder to stage by hand — partitions
// that make a live cub look dead, asymmetric link loss, duplicated
// gossip — and turns each into a reusable, reproducible schedule.
//
// Every step kind is one row of one table (kinds): what its operands
// name, the check its parameters must pass, and what applying it does.
// Validate and the runner are lookups in that table; a kind without a
// row is refused.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
)

// Kind names one fault or repair action. A and B are cub indices, Disk a
// cub-local drive index; each kind's row in kinds says which it reads.
type Kind string

const (
	CrashCub    Kind = "crash"        // kill cub A, dooming its in-flight traffic
	RestartCub  Kind = "restart"      // cold-restart cub A (rejoin handshake, epoch bump)
	FailCub     Kind = "fail"         // silently disconnect cub A (a network blip: state intact)
	ReviveCub   Kind = "revive"       // end a FailCub blip
	FailDisk    Kind = "disk-fail"    // kill disk Disk on cub A; declustered mirrors take over
	CutLink     Kind = "cut"          // sever the A↔B control link in both directions
	CutOneWay   Kind = "cut-oneway"   // sever only A→B (asymmetric partition)
	HealLink    Kind = "heal"         // restore A↔B (cut and flakiness, both directions)
	HealOneWay  Kind = "heal-oneway"  // restore only A→B
	FlakyLink   Kind = "flaky"        // degrade A↔B with Flaky params; zero params heal it
	FlakyOneWay Kind = "flaky-oneway" // degrade only A→B
	Isolate     Kind = "isolate"      // cut cub A off from every cub and the controller: split brain
	Rejoin      Kind = "rejoin"       // heal every link of cub A
	HealAll     Kind = "heal-all"     // clear every link fault on the switch
	DropData    Kind = "drop-data"    // drop block deliveries from cub A (or All) with Prob; 0 heals
	SlowDisk    Kind = "disk-slow"    // gray fail-slow: disk Disk on cub A at Factor× service time
	ErrorDisk   Kind = "disk-error"   // reads of disk Disk on cub A fail with Prob
	StickDisk   Kind = "disk-stick"   // wedge disk Disk's queue on cub A until a HealDisk
	HealDisk    Kind = "disk-heal"    // clear every gray fault of disk Disk on cub A

	RestripeStart     Kind = "restripe-start"     // restripe online to A cubs; later steps may name cubs up to A
	CrashDomain       Kind = "crash-domain"       // crash every cub of failure domain A (A checked at apply time)
	RestartDomain     Kind = "restart-domain"     // restart every cub of failure domain A
	CrashController   Kind = "crash-controller"   // kill the controller; admitted streams play on, admissions retry
	RestartController Kind = "restart-controller" // next controller incarnation: epoch-fenced, state scavenged from the cubs
)

// All, as Step.A for DropData, applies the probability to every cub.
const All = -1

// Step is one timed action in a scenario. At is the offset from the
// start of the run; A and B are cub indices (B unused for single-node
// kinds).
type Step struct {
	At      time.Duration
	Kind    Kind
	A, B    int
	Disk    int                // FailDisk and the gray disk kinds
	Flaky   netsim.FlakyParams // FlakyLink / FlakyOneWay only
	Prob    float64            // DropData / ErrorDisk
	Factor  float64            // SlowDisk only: service-time multiplier, ≥ 1
	Require Guard              // a precondition checked when the step applies; "" for none
}

// Guard names a precondition a step asserts at apply time. A step whose
// guard does not hold still acts, but the run records a violation: its
// timing no longer tests the interplay the schedule was written for.
type Guard string

const (
	Restriping Guard = "restriping" // an elastic restripe is in progress
	CopyPhase  Guard = "copy-phase" // the restripe is copying (the takeover re-arms only this phase)
	Parked     Guard = "parked"     // the governor holds parked streams
)

// guards holds each Guard's invariant name and test; holds also says
// what it saw, for the violation.
var guards = map[Guard]struct {
	invariant string
	holds     func(System) (bool, string)
}{
	Restriping: {"restripe-precondition", func(s System) (bool, string) {
		p := s.RestripePhase()
		return p.Active(), fmt.Sprintf("restripe phase %q", p)
	}},
	CopyPhase: {"restripe-precondition", func(s System) (bool, string) {
		p := s.RestripePhase()
		return p == core.RestripeCopy, fmt.Sprintf("restripe phase %q", p)
	}},
	Parked: {"controller-precondition", func(s System) (bool, string) {
		n := s.ParkedStreams()
		return n > 0, fmt.Sprintf("%d parked streams", n)
	}},
}

// operand is what a kind's Step.A and Step.B name, and so how Validate
// bounds them.
type operand int

const (
	none     operand = iota // the switch or the controller
	cub                     // A: a cub
	cubOrAll                // A: a cub, or All
	link                    // A and B: two distinct cubs
	domain                  // A: a failure domain, range-checked at apply time
	cubCount                // A: an array size ≥ 2, raising the cub bound for later steps
)

// row is everything the engine knows about one step kind.
type row struct {
	names operand
	check func(Step) error // parameter check; nil when the kind has none
	apply func(*Runner, Step)
}

// kinds is the one table of step kinds.
var kinds = map[Kind]row{
	CrashCub:   {cub, nil, onCub(System.CrashCub, true)},
	RestartCub: {cub, nil, onCub(System.RestartCub, false)},
	FailCub:    {cub, nil, onCub(System.FailCub, true)},
	ReviveCub:  {cub, nil, onCub(System.ReviveCub, false)},
	FailDisk:   {cub, nil, func(r *Runner, st Step) { r.Sys.FailDisk(st.A, st.Disk) }},

	CutLink:    {link, nil, onLink((*netsim.Network).Cut)},
	CutOneWay:  {link, nil, onLink((*netsim.Network).CutOneWay)},
	HealLink:   {link, nil, onLink((*netsim.Network).Heal)},
	HealOneWay: {link, nil, onLink((*netsim.Network).HealOneWay)},
	FlakyLink: {link, nil, func(r *Runner, st Step) {
		r.Sys.Net().SetFlaky(msg.NodeID(st.A), msg.NodeID(st.B), st.Flaky)
	}},
	FlakyOneWay: {link, nil, func(r *Runner, st Step) {
		r.Sys.Net().SetFlakyOneWay(msg.NodeID(st.A), msg.NodeID(st.B), st.Flaky)
	}},
	Isolate: {cub, nil, func(r *Runner, st Step) { r.allLinks(st.A, (*netsim.Network).Cut) }},
	Rejoin:  {cub, nil, func(r *Runner, st Step) { r.allLinks(st.A, (*netsim.Network).Heal) }},
	HealAll: {none, nil, func(r *Runner, _ Step) { r.Sys.Net().HealAllLinks() }},
	DropData: {cubOrAll, func(st Step) error {
		if st.Prob < 0 || st.Prob > 1 {
			return fmt.Errorf("drop probability %v", st.Prob)
		}
		return nil
	}, func(r *Runner, st Step) { r.setDropProb(st.A, st.Prob) }},

	SlowDisk: {cub, func(st Step) error {
		if st.Factor < 1 {
			return fmt.Errorf("slow factor %v below 1 (use %s to heal)", st.Factor, HealDisk)
		}
		return nil
	}, grayFault(func(f *disk.Faults, st Step) { f.SlowFactor = st.Factor })},
	ErrorDisk: {cub, func(st Step) error {
		if st.Prob <= 0 || st.Prob > 1 {
			return fmt.Errorf("error probability %v outside (0,1] (use %s to heal)", st.Prob, HealDisk)
		}
		return nil
	}, grayFault(func(f *disk.Faults, st Step) { f.ErrProb = st.Prob })},
	StickDisk: {cub, nil, grayFault(func(f *disk.Faults, _ Step) { f.Stuck = true })},
	HealDisk:  {cub, nil, grayFault(func(f *disk.Faults, _ Step) { *f = disk.Faults{} })},

	RestripeStart: {cubCount, nil, func(r *Runner, st Step) {
		if err := r.Sys.StartRestripe(st.A); err != nil {
			r.violate("restripe-precondition", "restripe to %d cubs refused: %v", st.A, err)
		}
	}},
	CrashDomain:       {domain, nil, onDomain("crash", System.CrashDomain, true)},
	RestartDomain:     {domain, nil, onDomain("restart", System.RestartDomain, false)},
	CrashController:   {none, nil, func(r *Runner, _ Step) { r.Sys.CrashController() }},
	RestartController: {none, nil, func(r *Runner, _ Step) { r.Sys.RestartController() }},
}

// onCub applies a cub operation to cub A and marks it down or up.
func onCub(op func(System, int), down bool) func(*Runner, Step) {
	return func(r *Runner, st Step) {
		op(r.Sys, st.A)
		r.setDown(st.A, down)
	}
}

// onDomain applies a domain operation to domain A and marks its members
// down or up; a refusal is a domain-precondition violation.
func onDomain(verb string, op func(System, int) ([]int, error), down bool) func(*Runner, Step) {
	return func(r *Runner, st Step) {
		members, err := op(r.Sys, st.A)
		if err != nil {
			r.violate("domain-precondition", "%s of domain %d refused: %v", verb, st.A, err)
		}
		for _, c := range members {
			r.setDown(c, down)
		}
	}
}

// onLink applies a link operation to A→B (both directions for the
// symmetric ones).
func onLink(op func(*netsim.Network, msg.NodeID, msg.NodeID)) func(*Runner, Step) {
	return func(r *Runner, st Step) { op(r.Sys.Net(), msg.NodeID(st.A), msg.NodeID(st.B)) }
}

// grayFault edits the gray-fault state of disk Disk on cub A. The disk
// counts as an outstanding fault until its state is healthy again.
func grayFault(edit func(*disk.Faults, Step)) func(*Runner, Step) {
	return func(r *Runner, st Step) {
		dk := r.Sys.Disk(st.A, st.Disk)
		f := dk.Faults()
		edit(&f, st)
		dk.SetFaults(f)
		if k := [2]int{st.A, st.Disk}; f == (disk.Faults{}) {
			delete(r.grayDisks, k)
		} else {
			r.grayDisks[k] = true
		}
	}
}

// Scenario is a named, seeded fault schedule.
type Scenario struct {
	Name string
	// Seed drives the runner's private rng (data-drop coin flips). Link
	// flakiness draws from the simulator's own rng, so the pair
	// (cluster seed, scenario seed) fully determines a run.
	Seed int64
	// Duration is the total virtual time the runner drives the system,
	// including the tail after the last step.
	Duration time.Duration
	// Settle is how long after the last outstanding fault clears before
	// the quiet-state invariants (mirror conservation, convergence)
	// re-engage; zero takes DefaultSettle.
	Settle time.Duration
	// Tick is the invariant-check interval; zero takes DefaultTick.
	Tick  time.Duration
	Steps []Step
}

const (
	// DefaultTick is the invariant-check interval when Scenario.Tick is
	// zero: ten checks per simulated second catches transient double
	// occupancy without dominating run time.
	DefaultTick = 100 * time.Millisecond
	// DefaultSettle is the post-heal grace period when Scenario.Settle is
	// zero. It must cover a deadman timeout plus a couple of forward
	// intervals so refutation and mirror retirement can complete before
	// the quiet invariants start failing runs.
	DefaultSettle = 5 * time.Second
)

// orDefault returns d when it is positive and def otherwise.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Validate checks the scenario against a cluster of numCubs cubs, in
// schedule order. A restripe-start step raises the cub-index bound for
// every later step: a grow to N cubs makes cubs numCubs..N-1 real
// targets (and a shrink never lowers the bound — retired cubs still
// exist to be crashed or partitioned, which is exactly what the linger
// window defends).
func (s Scenario) Validate(numCubs int) error {
	if s.Duration <= 0 {
		return fmt.Errorf("chaos: scenario %q has no duration", s.Name)
	}
	bound := numCubs
	for _, st := range s.sortedSteps() {
		if err := st.validate(s.Duration, &bound); err != nil {
			return fmt.Errorf("chaos: step %s at %v: %w", st.Kind, st.At, err)
		}
	}
	return nil
}

// validate checks one step against its row, widening *bound for a
// restripe-start.
func (st Step) validate(dur time.Duration, bound *int) error {
	if st.At < 0 || st.At > dur {
		return fmt.Errorf("outside run of %v", dur)
	}
	row, ok := kinds[st.Kind]
	if !ok {
		return errors.New("unknown kind")
	}
	if _, ok := guards[st.Require]; st.Require != "" && !ok {
		return fmt.Errorf("unknown precondition %q", st.Require)
	}
	if row.check != nil {
		if err := row.check(st); err != nil {
			return err
		}
	}
	isCub := func(c int) bool { return c >= 0 && c < *bound }
	switch row.names {
	case cub, cubOrAll:
		if !isCub(st.A) && !(row.names == cubOrAll && st.A == All) {
			return fmt.Errorf("names cub %d of %d", st.A, *bound)
		}
	case link:
		if !isCub(st.A) || !isCub(st.B) {
			return fmt.Errorf("names link %d-%d of %d cubs", st.A, st.B, *bound)
		}
		if st.A == st.B {
			return fmt.Errorf("links cub %d to itself", st.A)
		}
	case domain:
		if st.A < 0 {
			return fmt.Errorf("names domain %d", st.A)
		}
	case cubCount:
		if st.A < 2 {
			return fmt.Errorf("targets %d cubs", st.A)
		}
		*bound = max(*bound, st.A)
	}
	return nil
}

// sortedSteps returns the steps ordered by At, original order preserved
// among equals so scenarios read top to bottom.
func (s Scenario) sortedSteps() []Step {
	out := make([]Step, len(s.Steps))
	copy(out, s.Steps)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// --- step constructors, so scenarios read as schedules ---

// At prefixes a group of steps with a common offset.
func At(at time.Duration, steps ...Step) []Step {
	out := make([]Step, len(steps))
	for i, st := range steps {
		st.At = at
		out[i] = st
	}
	return out
}

// Crash returns a CrashCub step (At filled by the caller or chaos.At).
func Crash(cub int) Step { return Step{Kind: CrashCub, A: cub} }

// Restart returns a RestartCub step.
func Restart(cub int) Step { return Step{Kind: RestartCub, A: cub} }

// Fail returns a FailCub step.
func Fail(cub int) Step { return Step{Kind: FailCub, A: cub} }

// Revive returns a ReviveCub step.
func Revive(cub int) Step { return Step{Kind: ReviveCub, A: cub} }

// DiskFail returns a FailDisk step.
func DiskFail(cub, disk int) Step { return Step{Kind: FailDisk, A: cub, Disk: disk} }

// Cut returns a symmetric CutLink step.
func Cut(a, b int) Step { return Step{Kind: CutLink, A: a, B: b} }

// CutTo returns an asymmetric CutOneWay step (a can no longer reach b).
func CutTo(a, b int) Step { return Step{Kind: CutOneWay, A: a, B: b} }

// Heal returns a symmetric HealLink step.
func Heal(a, b int) Step { return Step{Kind: HealLink, A: a, B: b} }

// Flaky returns a symmetric FlakyLink step.
func Flaky(a, b int, p netsim.FlakyParams) Step { return Step{Kind: FlakyLink, A: a, B: b, Flaky: p} }

// IsolateCub returns an Isolate step.
func IsolateCub(cub int) Step { return Step{Kind: Isolate, A: cub} }

// RejoinCub returns a Rejoin step.
func RejoinCub(cub int) Step { return Step{Kind: Rejoin, A: cub} }

// DataLoss returns a DropData step (cub == All for every sender).
func DataLoss(cub int, prob float64) Step { return Step{Kind: DropData, A: cub, Prob: prob} }

// DiskSlow returns a SlowDisk step: disk runs at factor× nominal time.
func DiskSlow(cub, disk int, factor float64) Step {
	return Step{Kind: SlowDisk, A: cub, Disk: disk, Factor: factor}
}

// DiskErrors returns an ErrorDisk step: reads fail with probability prob.
func DiskErrors(cub, disk int, prob float64) Step {
	return Step{Kind: ErrorDisk, A: cub, Disk: disk, Prob: prob}
}

// DiskStick returns a StickDisk step: the disk queue wedges solid.
func DiskStick(cub, disk int) Step { return Step{Kind: StickDisk, A: cub, Disk: disk} }

// DiskHeal returns a HealDisk step clearing all gray faults on the disk.
func DiskHeal(cub, disk int) Step { return Step{Kind: HealDisk, A: cub, Disk: disk} }

// Restripe returns a RestripeStart step growing or shrinking the array
// to targetCubs.
func Restripe(targetCubs int) Step { return Step{Kind: RestripeStart, A: targetCubs} }

// CrashMidRestripe returns a CrashCub step that requires a restripe in
// progress. Pair with Restart.
func CrashMidRestripe(cub int) Step { return Step{Kind: CrashCub, A: cub, Require: Restriping} }

// IsolateMidRestripe returns an Isolate step that requires a restripe in
// progress. Pair with RejoinCub.
func IsolateMidRestripe(cub int) Step { return Step{Kind: Isolate, A: cub, Require: Restriping} }

// DiskSlowMidRestripe returns a SlowDisk step that requires a restripe in
// progress: the move scheduler must re-route the disk's pending copies
// when the health monitor quarantines it. Pair with DiskHeal.
func DiskSlowMidRestripe(cub, disk int, factor float64) Step {
	return Step{Kind: SlowDisk, A: cub, Disk: disk, Factor: factor, Require: Restriping}
}

// MultiCrash returns CrashCub steps for cubs first..first+count-1 at one
// instant, which the runner applies with no virtual time between them —
// the correlated failure a shared power strip produces.
func MultiCrash(first, count int) []Step { return each(CrashCub, first, count) }

// MultiRestart returns RestartCub steps for cubs first..first+count-1 at
// one instant.
func MultiRestart(first, count int) []Step { return each(RestartCub, first, count) }

// each returns k steps for cubs first..first+count-1.
func each(k Kind, first, count int) []Step {
	out := make([]Step, count)
	for i := range out {
		out[i] = Step{Kind: k, A: first + i}
	}
	return out
}

// DomainCrash returns a CrashDomain step killing failure domain d.
func DomainCrash(d int) Step { return Step{Kind: CrashDomain, A: d} }

// DomainRestart returns a RestartDomain step restarting failure domain d.
func DomainRestart(d int) Step { return Step{Kind: RestartDomain, A: d} }

// CtlCrash returns a CrashController step.
func CtlCrash() Step { return Step{Kind: CrashController} }

// CtlRestart returns a RestartController step (epoch bump + scavenge).
func CtlRestart() Step { return Step{Kind: RestartController} }

// CtlCrashMidRestripe returns a CrashController step that requires an
// elastic restripe in its copy phase: the takeover must re-arm the
// interrupted move plan.
func CtlCrashMidRestripe() Step { return Step{Kind: CrashController, Require: CopyPhase} }

// CtlCrashWhileParked returns a CrashController step that requires
// parked streams: the takeover must scavenge the park tickets and resume
// each stream exactly once.
func CtlCrashWhileParked() Step { return Step{Kind: CrashController, Require: Parked} }

// Cascade expands to count single-cub crash steps for cubs
// first..first+count-1, the k-th firing at at + k·gap — the rolling
// correlated failure of a rack losing cooling rather than power.
func Cascade(at time.Duration, first, count int, gap time.Duration) []Step {
	out := each(CrashCub, first, count)
	for k := range out {
		out[k].At = at + time.Duration(k)*gap
	}
	return out
}

// Concat joins step groups built with At into one schedule.
func Concat(groups ...[]Step) []Step {
	var out []Step
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
