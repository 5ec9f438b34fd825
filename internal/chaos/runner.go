package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// System is the cluster the runner drives. The root tiger package
// adapts *tiger.Cluster to it; tests substitute fakes.
type System interface {
	NumCubs() int
	Net() *netsim.Network
	RunFor(d time.Duration)
	Now() sim.Time

	CrashCub(i int)
	RestartCub(i int)
	FailCub(i int)
	ReviveCub(i int)
	FailDisk(cub, disk int)
	// Disk returns cub's idx-th local drive; gray faults are edits of its
	// Faults.
	Disk(cub, idx int) *disk.Disk

	// StartRestripe begins an online restripe to targetCubs cubs.
	StartRestripe(targetCubs int) error
	// RestripePhase reports the elastic restripe's current phase.
	RestripePhase() core.RestripePhase

	// CrashDomain and RestartDomain return the member cubs they acted on.
	CrashDomain(d int) ([]int, error)
	RestartDomain(d int) ([]int, error)

	CrashController()
	RestartController()
	ControllerDown() bool
	ParkedStreams() int
}

// Invariant is one property checked every tick. Check receives quiet =
// true once no fault is outstanding and the scenario's settle period has
// elapsed; properties that only hold at rest (mirror-load conservation,
// view convergence) must return nil while quiet is false.
type Invariant struct {
	Name  string
	Check func(quiet bool) error
}

// Violation records one failed invariant check.
type Violation struct {
	At        sim.Time
	Invariant string
	Err       string
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario   string
	Ticks      int  // invariant sweeps performed
	QuietTicks int  // sweeps with quiet == true
	QuietAtEnd bool // no fault outstanding when the run finished
	// Outstanding names every fault still active at the end of the run,
	// one entry per fault ("cub 3 down", "gray fault on cub 1 disk 2",
	// ...); empty exactly when QuietAtEnd.
	Outstanding []string
	Violations  []Violation
}

// Ok reports whether the run completed with no invariant violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report and a summary error otherwise.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	v := r.Violations[0]
	return fmt.Errorf("chaos: scenario %q: %d invariant violations (first: %s at %v: %s)",
		r.Scenario, len(r.Violations), v.Invariant, v.At, v.Err)
}

// Runner executes one Scenario against one System.
type Runner struct {
	Sys        System
	Scenario   Scenario
	Invariants []Invariant
	// OnTick, if set, fires after each invariant sweep; sweeps and
	// experiments use it to probe recovery progress.
	OnTick func(now sim.Time, quiet bool)
	// OnViolation, if set, fires the moment any violation is recorded —
	// before the run finishes — so a flight recorder can capture the
	// causal context while it is still in the bounded buffers.
	OnViolation func(v Violation)

	rng       *rand.Rand      // scenario-seeded; data-drop coin flips only
	dropProb  map[int]float64 // cub index (or All) → drop probability
	downCubs  map[int]bool    // crashed or failed cubs without a matching repair
	grayDisks map[[2]int]bool // {cub, disk} with a gray fault not yet healed
	lastCure  sim.Time        // when the last outstanding fault cleared
	rep       *Report         // the run in progress
}

// NewRunner builds a runner; it validates the scenario against the
// system immediately so malformed schedules fail before any virtual time
// passes.
func NewRunner(sys System, sc Scenario, invs []Invariant) (*Runner, error) {
	if err := sc.Validate(sys.NumCubs()); err != nil {
		return nil, err
	}
	return &Runner{
		Sys:        sys,
		Scenario:   sc,
		Invariants: invs,
		rng:        rand.New(rand.NewSource(sc.Seed)),
		dropProb:   make(map[int]float64),
		downCubs:   make(map[int]bool),
		grayDisks:  make(map[[2]int]bool),
	}, nil
}

// dropData is installed as the network's DropData hook while any
// drop-data probability is set. Draws come from the runner's private
// rng in simulator event order, so runs replay identically.
func (r *Runner) dropData(from msg.NodeID, d netsim.BlockDelivery) bool {
	p, ok := r.dropProb[int(from)]
	if !ok {
		p = r.dropProb[All]
	}
	return p > 0 && r.rng.Float64() < p
}

func (r *Runner) setDropProb(cub int, p float64) {
	if p == 0 {
		delete(r.dropProb, cub)
	} else {
		r.dropProb[cub] = p
	}
	net := r.Sys.Net()
	if len(r.dropProb) == 0 {
		net.DropData = nil
	} else if net.DropData == nil {
		net.DropData = r.dropData
	}
}

// violate records a violation of invariant now and notifies OnViolation.
func (r *Runner) violate(invariant, format string, a ...any) {
	v := Violation{At: r.Sys.Now(), Invariant: invariant, Err: fmt.Sprintf(format, a...)}
	r.rep.Violations = append(r.rep.Violations, v)
	if r.OnViolation != nil {
		r.OnViolation(v)
	}
}

func (r *Runner) setDown(cub int, down bool) {
	if down {
		r.downCubs[cub] = true
	} else {
		delete(r.downCubs, cub)
	}
}

// allLinks applies op to every link of cub a: to each other cub and to
// the controller.
func (r *Runner) allLinks(a int, op func(*netsim.Network, msg.NodeID, msg.NodeID)) {
	net := r.Sys.Net()
	for i := 0; i < r.Sys.NumCubs(); i++ {
		if i != a {
			op(net, msg.NodeID(a), msg.NodeID(i))
		}
	}
	op(net, msg.NodeID(a), msg.Controller)
}

// apply executes one step now: its guard, if it has one, then its row.
func (r *Runner) apply(st Step) {
	if g, ok := guards[st.Require]; ok {
		if held, saw := g.holds(r.Sys); !held {
			r.violate(g.invariant, "step %s at %v requires %s, saw %s", st.Kind, st.At, st.Require, saw)
		}
	}
	kinds[st.Kind].apply(r, st)
	r.lastCure = r.Sys.Now()
}

// outstanding names every active fault, one string per fault in
// deterministic order, for Report.Outstanding and the quiet gate. Disk
// failures are excluded: they are permanent by design (the paper has no
// disk revive) and the system is expected to reach a new steady state
// around them; invariants that care consult the system directly. Gray
// disk faults do count — unlike FailDisk they are healable, and a
// scenario is not quiet until its slow/flaky/stuck disks are healed. An
// in-progress elastic restripe also counts: the system is between
// steady states until the old generation is dropped.
func (r *Runner) outstanding() []string {
	var out []string
	for _, c := range sortedInts(r.downCubs) {
		out = append(out, fmt.Sprintf("cub %d down", c))
	}
	if r.Sys.ControllerDown() {
		out = append(out, "controller down")
	}
	for _, c := range sortedInts(r.dropProb) {
		if c == All {
			out = append(out, fmt.Sprintf("data drop p=%.3g on all cubs", r.dropProb[c]))
		} else {
			out = append(out, fmt.Sprintf("data drop p=%.3g on cub %d", r.dropProb[c], c))
		}
	}
	keys := make([][2]int, 0, len(r.grayDisks))
	for k := range r.grayDisks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		out = append(out, fmt.Sprintf("gray fault on cub %d disk %d", k[0], k[1]))
	}
	if n := r.Sys.Net().FaultedLinks(); n > 0 {
		out = append(out, fmt.Sprintf("%d faulted links", n))
	}
	if p := r.Sys.RestripePhase(); p.Active() {
		out = append(out, fmt.Sprintf("restripe in phase %q", p))
	}
	return out
}

// sortedInts returns the keys of an int-keyed map in ascending order.
func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// quiet reports whether the quiet-state invariants should engage: no
// outstanding fault, and Settle elapsed since the last fault cleared.
// Faults can clear between scheduled steps (a restripe finishing, links
// healing), so the clock restarts at every tick that still sees one.
func (r *Runner) quiet(now sim.Time) bool {
	if len(r.outstanding()) > 0 {
		r.lastCure = now
		return false
	}
	return now.Sub(r.lastCure) >= orDefault(r.Scenario.Settle, DefaultSettle)
}

func (r *Runner) sweep(now sim.Time) {
	q := r.quiet(now)
	r.rep.Ticks++
	if q {
		r.rep.QuietTicks++
	}
	for _, inv := range r.Invariants {
		if err := inv.Check(q); err != nil {
			r.violate(inv.Name, "%v", err)
		}
	}
	if r.OnTick != nil {
		r.OnTick(now, q)
	}
}

// Run drives the system through the scenario: virtual time advances in
// tick-sized slices, due steps are applied in schedule order, and every
// invariant is checked each tick (and once more at the end). The report
// collects all violations; Run itself errors only on harness misuse.
func (r *Runner) Run() (*Report, error) {
	sc := r.Scenario
	steps := sc.sortedSteps()
	tick := orDefault(sc.Tick, DefaultTick)
	start := r.Sys.Now()
	end := start.Add(sc.Duration)
	nextTick := start.Add(tick)
	rep := &Report{Scenario: sc.Name}
	r.rep = rep
	r.lastCure = start

	i := 0
	lastSweep := sim.Time(-1)
	for {
		now := r.Sys.Now()
		next := end
		if i < len(steps) {
			if at := start.Add(steps[i].At); at < next {
				next = at
			}
		}
		if nextTick < next {
			next = nextTick
		}
		if d := next.Sub(now); d > 0 {
			r.Sys.RunFor(d)
		}
		now = r.Sys.Now()
		for i < len(steps) && start.Add(steps[i].At) <= now {
			r.apply(steps[i])
			i++
		}
		if now >= nextTick {
			r.sweep(now)
			lastSweep = now
			nextTick = nextTick.Add(tick)
		}
		if now >= end {
			break
		}
	}
	if r.Sys.Now() != lastSweep {
		r.sweep(r.Sys.Now())
	}
	rep.Outstanding = r.outstanding()
	rep.QuietAtEnd = len(rep.Outstanding) == 0
	// Leave the network clean for whatever runs next.
	if len(r.dropProb) > 0 {
		r.dropProb = make(map[int]float64)
		r.Sys.Net().DropData = nil
	}
	return rep, nil
}
