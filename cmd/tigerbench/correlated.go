package main

import (
	"fmt"
	"time"

	"tiger"
	"tiger/internal/msg"
)

// Correlated-failure survival experiment (`-exp correlated`). Declustered
// mirroring survives any single cub loss; this sweep measures what
// happens beyond that guarantee. Each arm loads a fresh cluster to 100%
// of rated capacity with the degradation governor enabled, kills a
// chosen cub set simultaneously, holds the outage, restarts, and gates:
//
//   - zero client-visible block loss — survivors are mirror-served and
//     endangered streams are parked before any deadline passes;
//   - park count bounded by the layout-derived exposure (streams whose
//     play trajectory crosses the unservable disks during the outage);
//   - every parked stream resumes exactly once after the rejoin, and the
//     cluster converges (no death beliefs, mirror load drained).
//
// The arms walk the failure geometry: one cub (mirrors cover
// everything), a scattered pair (outside each other's decluster span —
// still fully covered), an adjacent pair (the victim's decluster span is
// breached: its four strided disks are unservable), a whole failure
// domain (rack loss: three interior cubs exhausted, twelve disks), and
// the adjacent pair again on a 200-cub sharded cluster.

// correlatedPoint is one arm's outcome.
type correlatedPoint struct {
	Arm        string
	Cubs       int
	Shards     int
	DomainSize int
	Streams    int   // active streams at crash time
	Down       []int // cubs killed
	Unservable int   // disks with no live copy during the full outage
	OutageSec  float64

	ParkBound int   // layout-derived cap on justified parks
	Parks     int64 // governor park decisions
	Resumes   int64 // re-admissions (plus parks resolved at EOF)
	ParkAcks  int64 // distinct instances acked by cubs
	ParkedEnd int   // parked streams left at end (must be 0)
	QueueEnd  int   // re-admission queue left at end (must be 0)

	BlocksOK     int64
	BlocksLost   int64 // must be 0
	MirrorBlocks int64
	ServerMisses int64
	DoubleServes int
	Violations   int
	Converged    bool
	DrainSec     float64 // restart to converged-and-drained
}

type corrArm struct {
	name   string
	cubs   int
	domain int // >= 0: crash this whole failure domain
	down   []int
	outage time.Duration
}

// runCorrelated runs the correlated-failure sweep's arms that names
// selects (all when empty) and enforces their gates.
func runCorrelated(o tiger.Options, names []string) ([]correlatedPoint, error) {
	var arms []arm[correlatedPoint]
	for _, a := range []corrArm{
		{name: "single", cubs: 14, domain: -1, down: []int{5}, outage: 6 * time.Second},
		{name: "scattered-pair", cubs: 14, domain: -1, down: []int{2, 9}, outage: 6 * time.Second},
		{name: "adjacent-pair", cubs: 14, domain: -1, down: []int{5, 6}, outage: 6 * time.Second},
		{name: "whole-domain", cubs: 14, domain: 1, outage: 6 * time.Second},
		{name: "adjacent-pair-200", cubs: 200, domain: -1, down: []int{99, 100}, outage: 6 * time.Second},
	} {
		arms = append(arms, arm[correlatedPoint]{a.name, func(o tiger.Options) (correlatedPoint, error) {
			return runCorrelatedArm(o, a)
		}})
	}
	return runArms(o, arms, names)
}

func runCorrelatedArm(o tiger.Options, a corrArm) (correlatedPoint, error) {
	oo := faultOnly(o, a.cubs)
	oo.DomainSize = 4
	oo.Governor.Enable = true

	c, err := tiger.New(oo)
	if err != nil {
		return correlatedPoint{}, err
	}
	p := correlatedPoint{
		Arm:        a.name,
		Cubs:       a.cubs,
		Shards:     c.Shards(),
		DomainSize: oo.DomainSize,
		OutageSec:  a.outage.Seconds(),
	}
	h := tiger.NewChaosHarness(c)
	defer h.Close()

	if err := c.RampTo(c.Capacity()); err != nil {
		return p, err
	}
	c.RunFor(60 * time.Second) // let the flash-ramp insertions land; reach steady state

	w := snapshot(c)
	p.Streams = c.Active()

	// The unservable set the layout predicts for the full down set, and
	// the park bound it implies. This mirrors the governor's own sweep
	// geometry exactly: a stream at play position p is parked when any
	// disk in [p-1, p+look] is unservable (and streams advance one disk
	// per block play, so over the outage the window a trajectory must
	// dodge stretches to [p-1, p+look+outageBlocks]), or -- at the crash
	// instant -- when any disk in [p-1, p+lookState] lost its in-flight
	// states with a dead forwarding pair. The expected park count is the
	// uniform-occupancy mass of the union of those per-disk position
	// windows; EOF-replay churn re-admits a few streams into the danger
	// window mid-outage, covered by the margin.
	down := a.down
	if a.domain >= 0 {
		for _, z := range c.Cfg.Layout.CubsOfDomain(a.domain) {
			down = append(down, int(z))
		}
	}
	deadSet := make(map[msg.NodeID]bool, len(down))
	for _, i := range down {
		deadSet[msg.NodeID(i)] = true
	}
	unservable := c.Cfg.Layout.UnservableDisks(func(z msg.NodeID) bool { return deadSet[z] })
	p.Unservable = len(unservable)
	p.Down = down
	{
		nd := c.Cfg.Layout.NumDisks()
		look := c.Cfg.Governor.GuardBlocks + c.Cfg.Governor.Horizon
		lookState := int(c.Cfg.MaxVStateLead/c.Cfg.Sched.BlockPlay) + c.Cfg.Governor.GuardBlocks
		outBlocks := int(a.outage / c.Cfg.Sched.BlockPlay)
		endangered := make(map[int]bool)
		for _, u := range unservable {
			for j := -1; j <= look+outBlocks; j++ {
				endangered[((u-j)%nd+nd)%nd] = true
			}
		}
		for z := range deadSet {
			pred := msg.NodeID((int(z) - 1 + c.Cfg.Layout.Cubs) % c.Cfg.Layout.Cubs)
			if !deadSet[pred] {
				continue
			}
			for _, d := range c.Cfg.Layout.DisksOfCub(z) {
				for j := -1; j <= lookState; j++ {
					endangered[((d-j)%nd+nd)%nd] = true
				}
			}
		}
		if len(endangered) > 0 {
			bound := (p.Streams*len(endangered) + nd - 1) / nd
			p.ParkBound = bound + bound/8 + 8
		}
	}

	if a.domain >= 0 {
		if _, err := c.CrashDomain(a.domain); err != nil {
			return p, err
		}
	} else {
		for _, i := range a.down {
			c.CrashCub(i)
		}
	}
	c.RunFor(a.outage)

	if a.domain >= 0 {
		if _, err := c.RestartDomain(a.domain); err != nil {
			return p, err
		}
	} else {
		for _, i := range a.down {
			c.RestartCub(i)
		}
	}

	// Run until the governor has drained its queue and the cluster is
	// back to a clean steady state (no death beliefs, mirror load
	// retired), then a settle tail: re-admitted streams must play
	// cleanly too.
	p.DrainSec = drain(c, h, 0)
	c.RunFor(15 * time.Second)

	gs := c.Controller.GovernorStats()
	p.Parks = gs.Parks
	p.Resumes = gs.Resumes
	p.ParkAcks = gs.Acks
	p.ParkedEnd = gs.Parked
	p.QueueEnd = gs.QueueLen
	d := w.delta(c)
	p.BlocksOK, p.BlocksLost, p.MirrorBlocks = d.ok, d.lost, d.mirror
	p.ServerMisses = d.cubs.ServerMisses
	p.DoubleServes = h.DoubleServes()
	p.Violations = d.violations
	p.Converged = h.Converged()

	// Gates. When the decluster span is breached the governor parks every
	// endangered stream, and a parked stream finishes cleanly and resumes
	// at its delivered watermark — so the exhausted arms must lose
	// nothing at all. Under full mirror coverage no stream parks, and the
	// only irreducible loss is the blocks mid-transfer on the dying cubs'
	// links at the crash instant: mirrors take over future blocks, but a
	// send already in flight dies with the machine (the paper's "brief
	// glitch"). Allow that residue and nothing more.
	// At the rated point each drive launches a send every
	// BlockPlay/streamsPerDisk and a block transfer lasts about twice
	// that spacing, so at most ~2 sends per drive are mid-flight when
	// the machine dies.
	lossCap := int64(0)
	if p.Unservable == 0 {
		lossCap = int64(2 * oo.DisksPerCub * len(down))
	}
	if err := zeroColumns(p.BlocksLost, lossCap, p.DoubleServes, p.Violations); err != nil {
		return p, err
	}
	if p.Unservable == 0 && p.Parks != 0 {
		return p, fmt.Errorf("%d parks with full mirror coverage (must be 0)", p.Parks)
	}
	if p.Unservable > 0 && p.Parks > int64(p.ParkBound) {
		return p, fmt.Errorf("%d parks exceed the layout-derived bound %d", p.Parks, p.ParkBound)
	}
	if p.ParkedEnd != 0 || p.QueueEnd != 0 {
		return p, fmt.Errorf("%d parked / %d queued streams left after the rejoin", p.ParkedEnd, p.QueueEnd)
	}
	if p.Resumes != p.Parks {
		return p, fmt.Errorf("%d resumes for %d parks (each parked stream must resume exactly once)", p.Resumes, p.Parks)
	}
	if !p.Converged {
		return p, fmt.Errorf("cluster did not converge within %v of the restart", drainCap)
	}
	return p, nil
}

// correlated prints and gates the correlated-failure sweep.
func correlated(o tiger.Options) error {
	header("Correlated failures: domains, mirror exhaustion, graceful degradation",
		"beyond single-failure coverage: survivors lose nothing, endangered streams park and resume")
	pts, err := runCorrelated(o, splitArms(*armsFlag))
	fmt.Printf("%18s %5s %7s %8s %7s %6s %6s %7s %5s %7s %8s %6s\n",
		"arm", "cubs", "shards", "streams", "unserv", "parks", "bound", "resumes", "lost",
		"doubles", "drain_s", "conv")
	for _, p := range pts {
		if p.Cubs == 0 {
			continue // arm aborted before setup (its error is reported below)
		}
		fmt.Printf("%18s %5d %7d %8d %7d %6d %6d %7d %5d %7d %8.1f %6v\n",
			p.Arm, p.Cubs, p.Shards, p.Streams, p.Unservable, p.Parks, p.ParkBound,
			p.Resumes, p.BlocksLost, p.DoubleServes, p.DrainSec, p.Converged)
	}
	if err != nil {
		return err
	}
	return writeJSON("correlated", pts)
}
