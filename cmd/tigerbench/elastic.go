package main

import (
	"fmt"
	"time"

	"tiger"
	"tiger/internal/chaos"
	"tiger/internal/core"
	"tiger/internal/sim"
)

// The `-exp elastic` experiment: grow and shrink the array while serving
// full load, with chaos arms that crash, partition, or gray-degrade
// machines mid-restripe. Every arm runs under the double-service oracle
// and the standard invariant set, and is gated on zero stream loss, zero
// double serves and zero violations.

// elasticGrowBy is how many cubs the grow and shrink legs add/remove.
const elasticGrowBy = 2

// elasticArm is one chaos arm of the elastic sweep, run growing and
// then shrinking. The restripe always starts at 2 s; strike schedules
// the arm's faults on victim from at on. Grow arms strike at 10 s,
// mid-copy, and aim at the newest cub — the one every move is racing
// toward. Shrink arms strike at 240 s, during the linger window (with
// the 120 s pinned linger the old generation is drained, ~220 s at this
// load, but the retiring cub is still fenced and monitored), when a
// crash or partition of the retiring cub must not resurrect its retired
// generation. Disk-slow degrades a busy source cub's drive mid-copy in
// both directions, so the health monitor's quarantine and the
// coordinator's re-route path compose.
type elasticArm struct {
	name   string
	strike func(at time.Duration, victim int) []chaos.Step
}

var elasticArms = []elasticArm{
	{"clean", func(time.Duration, int) []chaos.Step { return nil }},
	{"crash", func(at time.Duration, victim int) []chaos.Step {
		return chaos.Concat(
			chaos.At(at, chaos.CrashMidRestripe(victim)),
			chaos.At(at+15*time.Second, chaos.Restart(victim)))
	}},
	{"partition", func(at time.Duration, victim int) []chaos.Step {
		return chaos.Concat(
			chaos.At(at, chaos.IsolateMidRestripe(victim)),
			chaos.At(at+30*time.Second, chaos.RejoinCub(victim)))
	}},
	{"disk-slow", func(time.Duration, int) []chaos.Step {
		return chaos.Concat(
			chaos.At(10*time.Second, chaos.DiskSlowMidRestripe(3, 0, 2.0)),
			chaos.At(40*time.Second, chaos.DiskHeal(3, 0)))
	}},
}

// elasticSample is one point of a capacity-ramp trace: active streams
// and restripe phase at T seconds after the scenario started.
type elasticSample struct {
	T      float64
	Phase  string
	Active int
}

// elasticPoint is one arm of the elastic sweep in one direction.
type elasticPoint struct {
	Dir        string // "grow" | "shrink"
	Arm        string // "clean" | "crash" | "partition" | "disk-slow"
	FromCubs   int
	TargetCubs int

	CapacityBefore int
	CapacityAfter  int
	StreamsBefore  int // active when the scenario started (full load)
	ActiveAfter    int // active after re-ramping to the new capacity

	// Move-plan progress, from the coordinator and the cubs.
	Moves           int
	Committed       int
	Rerouted        int64
	Nacks           int64
	MoveBytes       int64
	DeferredReplays int

	// Phase durations in virtual seconds.
	CopySec   float64
	DrainSec  float64
	LingerSec float64
	TotalSec  float64
	MoveMBps  float64 // plan bytes over the copy phase

	// Delivery deltas across the whole run (ramp excluded).
	BlocksOK     int64
	BlocksLost   int64 // must be 0
	MirrorBlocks int64

	DoubleServes int // must be 0
	Violations   int // invariant violations, including restripe preconditions
	FinalPhase   string

	Ramp []elasticSample

	// With -attr: mover interference shows up in the disk rows.
	traced
}

// runElasticSweep runs the arms that names selects (all when empty),
// growing and then shrinking. Each point builds a fresh cluster at the
// paper's shape, ramps it to full capacity with short files, runs its
// chaos scenario around a live restripe, drives the restripe to
// completion, ramps into the new shape's capacity, and is gated on its
// zero columns. enableAttr traces each point (startTrace).
func runElasticSweep(o tiger.Options, names []string, enableAttr bool) ([]elasticPoint, error) {
	var arms []arm[elasticPoint]
	for _, dir := range []string{"grow", "shrink"} {
		for _, a := range elasticArms {
			arms = append(arms, arm[elasticPoint]{a.name, func(o tiger.Options) (elasticPoint, error) {
				p, err := runElasticArm(o, dir, a, enableAttr)
				if err != nil {
					err = fmt.Errorf("%s: %w", dir, err)
				}
				return p, err
			}})
		}
	}
	return runArms(o, arms, names)
}

func runElasticArm(o tiger.Options, dir string, a elasticArm, enableAttr bool) (elasticPoint, error) {
	opt := shortFiles(o)
	target, at, victim := opt.Cubs+elasticGrowBy, 10*time.Second, opt.Cubs+elasticGrowBy-1
	dur := 180 * time.Second
	if dir == "shrink" {
		target, at, victim = opt.Cubs-elasticGrowBy, 240*time.Second, opt.Cubs-1
		dur = 300 * time.Second
		// Pin the linger so the late-strike arms land inside it.
		opt.RestripeLinger = 120 * time.Second
	}
	c, err := tiger.New(opt)
	if err != nil {
		return elasticPoint{}, err
	}
	startTrace(c, enableAttr)
	if err := c.RampTo(c.Capacity()); err != nil {
		return elasticPoint{}, err
	}
	c.RunFor(10 * time.Second)

	h := tiger.NewChaosHarness(c)
	defer h.Close()
	r, err := h.Runner(chaos.Scenario{
		Name:     fmt.Sprintf("elastic-%s-%s", dir, a.name),
		Seed:     opt.Seed,
		Duration: dur,
		Steps:    chaos.Concat(chaos.At(2*time.Second, chaos.Restripe(target)), a.strike(at, victim)),
	})
	if err != nil {
		return elasticPoint{}, err
	}
	pt := elasticPoint{
		Dir:            dir,
		Arm:            a.name,
		FromCubs:       opt.Cubs,
		TargetCubs:     target,
		CapacityBefore: c.Capacity(),
		StreamsBefore:  c.Active(),
	}
	t0 := c.Now()
	const sampleEvery = 5 * time.Second
	nextSample := time.Duration(0)
	sample := func() {
		pt.Ramp = append(pt.Ramp, elasticSample{
			T:      c.Now().Sub(t0).Seconds(),
			Phase:  c.RestripePhase().String(),
			Active: c.Active(),
		})
	}
	r.OnTick = func(now sim.Time, quiet bool) {
		if el := now.Sub(t0); el >= nextSample {
			sample()
			nextSample = el + sampleEvery
		}
	}

	w := snapshot(c)
	rep, err := r.Run()
	if err != nil {
		return pt, err
	}

	// The scenario duration bounds the fault schedule, not the
	// restripe: drive the cluster until the phase machine reports
	// done (or give up and record where it stuck).
	for lim := 0; c.RestripePhase() != core.RestripeDone && lim < 300; lim++ {
		c.RunFor(time.Second)
	}

	// Ramp into the new shape. Admission headroom opens as the last
	// old-generation streams finish, so retry around refusals.
	for try := 0; try < 30; try++ {
		if err := c.RampTo(c.Capacity()); err == nil {
			break
		}
		c.RunFor(2 * time.Second)
	}
	c.RunFor(10 * time.Second)
	sample()

	d := w.delta(c)
	in := c.RestripeInfo()
	pt.CapacityAfter = c.Capacity()
	pt.ActiveAfter = c.Active()
	pt.Moves = in.Moves
	pt.Committed = in.Coord.Committed
	pt.Rerouted = in.Coord.Rerouted
	pt.Nacks = d.cubs.MovesNacked
	pt.MoveBytes = in.Bytes
	pt.DeferredReplays = in.DeferredReplays
	if in.CopyDone > 0 {
		pt.CopySec = in.CopyDone.Sub(in.CopyStart).Seconds()
		if pt.CopySec > 0 {
			pt.MoveMBps = float64(in.Bytes) / 1e6 / pt.CopySec
		}
	}
	if in.DrainDone > 0 && in.CopyDone > 0 {
		pt.DrainSec = in.DrainDone.Sub(in.CopyDone).Seconds()
	}
	if in.Finished > 0 {
		if in.DrainDone > 0 {
			pt.LingerSec = in.Finished.Sub(in.DrainDone).Seconds()
		}
		pt.TotalSec = in.Finished.Sub(in.CopyStart).Seconds()
	}
	pt.BlocksOK, pt.BlocksLost, pt.MirrorBlocks = d.ok, d.lost, d.mirror
	pt.DoubleServes = h.DoubleServes()
	pt.Violations = len(rep.Violations)
	pt.FinalPhase = c.RestripePhase().String()
	pt.collect(c)
	return pt, zeroColumns(pt.BlocksLost, 0, pt.DoubleServes, pt.Violations)
}

// elastic prints and gates the online-restripe sweep: grow and shrink
// the array under full load, with chaos arms striking mid-restripe. The
// headline numbers are the zero columns: no stream loses a block and no
// block is double-served in any arm, including a crash of the newest
// cub mid-copy and a partition of a retiring cub during its linger
// window.
func elastic(o tiger.Options) error {
	header("Elastic: online restripe sweep (grow and shrink while serving)",
		"every admitted stream keeps playing through the copy, cutover and drain")
	pts, err := runElasticSweep(o, splitArms(*armsFlag), *attrFlag)
	fmt.Printf("%7s %10s %6s %6s %7s %8s %7s %7s %8s %8s %7s %8s %8s %6s\n",
		"dir", "arm", "cubs", "moves", "reroute", "copy", "drain", "total", "MB/s", "lost", "doubles", "viol", "active", "cap")
	for _, p := range pts {
		if p.Dir == "" {
			continue // arm aborted before setup (its error is reported below)
		}
		fmt.Printf("%7s %10s %2d->%-3d %6d %7d %7.1fs %6.0fs %6.0fs %8.1f %8d %7d %8d %8d %6d\n",
			p.Dir, p.Arm, p.FromCubs, p.TargetCubs, p.Moves, p.Rerouted,
			p.CopySec, p.DrainSec, p.TotalSec, p.MoveMBps,
			p.BlocksLost, p.DoubleServes, p.Violations, p.ActiveAfter, p.CapacityAfter)
	}
	for _, p := range pts {
		p.render(p.Dir+" "+p.Arm, "elastic")
	}
	if err != nil {
		return err
	}
	return writeJSON("elastic", pts)
}
