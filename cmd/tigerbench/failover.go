package main

import (
	"fmt"
	"time"

	"tiger"
)

// Controller-failover experiment (`-exp failover`). The controller is
// the last centralized piece of Tiger; DESIGN §17 makes its death
// survivable by fencing the dead incarnation with an epoch and
// rebuilding the new incarnation's state from a scavenge of the cubs —
// who, holding the distributed schedule, never stopped serving. Each arm
// loads a fresh cluster, crashes the controller in a chosen regime (idle
// serving, mid-restripe, streams parked by the governor), holds the
// outage, restarts, and gates:
//
//   - streams active at crash time lose zero blocks and are never
//     double-served: deliveries ride the distributed schedule and the
//     takeover fold rebuilds records without re-admitting;
//   - takeover time is bounded by one scavenge round trip when every
//     cub answers, plus the deadman timeout when one cannot;
//   - the mid-restripe arm re-arms the interrupted copy and completes
//     it; the parked arm rebuilds the parked set from cub tickets and
//     resumes each stream exactly once after the cubs rejoin.

// failoverPoint is one arm's outcome.
type failoverPoint struct {
	Arm       string
	Cubs      int
	Streams   int     // active streams at controller-crash time
	LoadFrac  float64 // fraction of rated capacity ramped
	OutageSec float64

	// Takeover mechanics.
	TakeoverSec     float64 // restart to state-rebuilt (scavenge closed)
	TakeoverBound   float64 // the gate: RTT margin, + deadman if a cub is dead
	Epoch           int64   // controller epoch after the takeover (must be 2)
	ScavengesServed int64   // cub inventory replies (one per live cub)
	ScavengedPlays  int64   // play records rebuilt from inventories
	ScavengedParks  int64   // park tickets recovered from cub retention
	CtlDeclaredDead int64   // cubs whose controller deadman fired mid-outage
	CtlStaleDrops   int64   // stale-epoch orders fenced after the takeover

	// Client admission retries around the outage (stream.go backoff).
	RetryStarts   int   // retrying admissions injected during the outage
	RetryAdmitted int   // of those, admitted after the takeover
	StartRetries  int64 // backoff attempts across the arm
	StartAbandons int64 // clients that gave up (must be 0)

	// Parked-arm bookkeeping (zero elsewhere).
	ParkedAtCrash int   // governor-parked streams when the controller died
	Parks         int64 // park decisions across the incident
	Resumes       int64 // must equal Parks: exactly-once resume
	ParkedEnd     int   // must be 0
	QueueEnd      int   // must be 0

	// Mid-restripe-arm bookkeeping (zero elsewhere).
	Moves      int    // move plan size
	Committed  int    // must equal Moves at the end
	FinalPhase string `json:",omitempty"`

	BlocksOK     int64
	BlocksLost   int64 // must be 0
	MirrorBlocks int64
	DoubleServes int // must be 0
	Violations   int // must be 0
	ActiveAfter  int
	Converged    bool
	DrainSec     float64 // parked arm: restart-of-cubs to drained
}

type failArm struct {
	name    string
	mode    string  // "idle" | "restripe" | "parked"
	load    float64 // fraction of rated capacity
	outage  time.Duration
	retries int // retrying admissions injected during the outage
}

// runFailover runs the controller-failover sweep's arms that names
// selects (all when empty) and enforces their gates.
func runFailover(o tiger.Options, names []string) ([]failoverPoint, error) {
	var arms []arm[failoverPoint]
	for _, a := range []failArm{
		{name: "idle-light-3s", mode: "idle", load: 0.5, outage: 3 * time.Second, retries: 4},
		{name: "idle-full-3s", mode: "idle", load: 1.0, outage: 3 * time.Second},
		{name: "idle-full-12s", mode: "idle", load: 1.0, outage: 12 * time.Second},
		{name: "mid-restripe", mode: "restripe", load: 1.0, outage: 5 * time.Second},
		{name: "parked", mode: "parked", load: 1.0, outage: 5 * time.Second},
	} {
		arms = append(arms, arm[failoverPoint]{a.name, func(o tiger.Options) (failoverPoint, error) {
			return runFailoverArm(o, a)
		}})
	}
	return runArms(o, arms, names)
}

func runFailoverArm(o tiger.Options, a failArm) (failoverPoint, error) {
	oo := faultOnly(o, o.Cubs)
	switch a.mode {
	case "restripe":
		// Short files so the old generation drains on experiment
		// timescales, exactly as the elastic sweep runs.
		oo = shortFiles(oo)
	case "parked":
		oo.DomainSize = 4
		oo.Governor.Enable = true
	}

	c, err := tiger.New(oo)
	if err != nil {
		return failoverPoint{}, err
	}
	p := failoverPoint{
		Arm:       a.name,
		Cubs:      oo.Cubs,
		LoadFrac:  a.load,
		OutageSec: a.outage.Seconds(),
	}
	h := tiger.NewChaosHarness(c)
	defer h.Close()

	target := int(a.load * float64(c.Capacity()))
	if err := c.RampTo(target); err != nil {
		return p, err
	}
	c.RunFor(60 * time.Second) // let the flash-ramp insertions land; reach steady state

	w := snapshot(c)
	retries0, abandons0 := c.StartRetryStats()
	active0 := c.Active() // pre-incident population, before any preamble parks streams

	// Arm-specific preamble: get the cluster into the regime the
	// controller must die in.
	deadCubs := 0
	switch a.mode {
	case "restripe":
		if err := c.StartRestripe(oo.Cubs + elasticGrowBy); err != nil {
			return p, err
		}
		c.RunFor(5 * time.Second)
		if ph := c.RestripePhase(); ph != tiger.RestripeCopy {
			return p, fmt.Errorf("restripe already past copy (%q); crash window missed", ph)
		}
	case "parked":
		// An adjacent pair breaches the victim's decluster span: some
		// disks lose every copy and the governor parks the endangered
		// streams. The controller dies holding that parked set.
		c.CrashCub(5)
		c.CrashCub(6)
		deadCubs = 2
		c.RunFor(3 * time.Second)
		p.ParkedAtCrash = c.ParkedStreams()
		if p.ParkedAtCrash == 0 {
			return p, fmt.Errorf("no streams parked before the controller crash; the arm is vacuous")
		}
	}

	p.Streams = c.Active()
	c.CrashController()

	// Inject retrying admissions mid-outage on arms with headroom: the
	// client backoff must carry them across the takeover.
	admitted := 0
	for i := 0; i < a.retries; i++ {
		if err := c.PlayRetrying(tiger.FileID(i%oo.NumFiles), 0, func(*tiger.Stream) { admitted++ }); err != nil {
			return p, fmt.Errorf("retrying start returned a hard error: %w", err)
		}
	}
	p.RetryStarts = a.retries

	c.RunFor(a.outage)
	c.RestartController()
	c.RunFor(3 * time.Second) // one scavenge round trip, or the deadman closeout

	if c.Controller.Scavenging() {
		return p, fmt.Errorf("scavenge still open %v after the restart", 3*time.Second)
	}
	st := c.Controller.Stats()
	if st.Takeovers != 1 {
		return p, fmt.Errorf("takeovers = %d, want 1", st.Takeovers)
	}
	p.TakeoverSec = c.Controller.TakeoverTimes().Max()
	bound := 2 * time.Second // one scavenge round trip, with margin
	if deadCubs > 0 {
		bound += c.Cfg.DeadmanTimeout // a dead cub never answers; the fold closes out
	}
	p.TakeoverBound = bound.Seconds()
	p.Epoch = int64(c.Controller.Epoch())
	p.ScavengedPlays = st.ScavengedPlays
	p.ScavengedParks = st.ScavengedParks

	// Arm-specific recovery: drive the regime back to a clean steady
	// state before reading the end-to-end deltas.
	switch a.mode {
	case "idle":
		// Let the injected admissions finish their backoff schedule.
		for i := 0; i < 30 && admitted < a.retries; i++ {
			c.RunFor(time.Second)
		}
		c.RunFor(10 * time.Second)
	case "restripe":
		if !c.Controller.RestripeStats().Active {
			return p, fmt.Errorf("takeover did not re-arm the interrupted restripe")
		}
		for lim := 0; c.RestripePhase() != tiger.RestripeDone && lim < 600; lim++ {
			c.RunFor(time.Second)
		}
		p.FinalPhase = c.RestripePhase()
		in := c.RestripeInfo()
		p.Moves, p.Committed = in.Moves, in.Coord.Committed
		if p.FinalPhase != tiger.RestripeDone {
			return p, fmt.Errorf("restripe never completed after the takeover (phase %q)", p.FinalPhase)
		}
		if p.Committed != p.Moves {
			return p, fmt.Errorf("%d of %d moves committed after the takeover", p.Committed, p.Moves)
		}
	case "parked":
		if int(st.ScavengedParks) != p.ParkedAtCrash {
			return p, fmt.Errorf("scavenged %d park tickets, want %d", st.ScavengedParks, p.ParkedAtCrash)
		}
		if got := c.ParkedStreams(); got < p.ParkedAtCrash {
			// At least the scavenged set: at full load the governor keeps
			// parking organically as the endangered window slides, so more
			// is fine — fewer means tickets were dropped in the takeover.
			return p, fmt.Errorf("rebuilt parked set has %d streams, want at least %d", got, p.ParkedAtCrash)
		}
		if c.Controller.GovernorStats().Unservable == 0 {
			return p, fmt.Errorf("takeover lost the unservable set; tickets would drain into dead disks")
		}
		c.RestartCub(5)
		c.RunFor(5 * time.Second)
		c.RestartCub(6)
		// Drain until parked streams resume, death beliefs clear and
		// mirror load retires — and the whole pre-incident population
		// plays again, not just an empty ticket queue: re-admitted streams
		// trickle through slot insertion for a while after their resume
		// at full load.
		p.DrainSec = drain(c, h, active0)
		c.RunFor(15 * time.Second)
		gs := c.Controller.GovernorStats()
		p.Parks, p.Resumes = gs.Parks, gs.Resumes
		p.ParkedEnd, p.QueueEnd = gs.Parked, gs.QueueLen
		if p.ParkedEnd != 0 || p.QueueEnd != 0 {
			return p, fmt.Errorf("%d parked / %d queued streams left after the rejoin", p.ParkedEnd, p.QueueEnd)
		}
		if p.Resumes != p.Parks {
			return p, fmt.Errorf("%d resumes for %d parks (each scavenged ticket must resume exactly once)", p.Resumes, p.Parks)
		}
		for i, cub := range c.Cubs {
			if n := cub.ParkedTickets(); n != 0 {
				return p, fmt.Errorf("cub %d still retains %d park tickets after the resumes", i, n)
			}
		}
	}

	d := w.delta(c)
	p.ScavengesServed = d.cubs.ScavengesServed
	p.CtlDeclaredDead = d.cubs.CtlDeclaredDead
	p.CtlStaleDrops = d.cubs.CtlStaleDrops
	retries1, abandons1 := c.StartRetryStats()
	p.StartRetries = retries1 - retries0
	p.StartAbandons = abandons1 - abandons0
	p.RetryAdmitted = admitted
	p.BlocksOK, p.BlocksLost, p.MirrorBlocks = d.ok, d.lost, d.mirror
	p.DoubleServes = h.DoubleServes()
	p.Violations = d.violations
	p.ActiveAfter = c.Active()
	p.Converged = h.Converged()

	// Gates common to every arm. The cubs ARE the schedule: admitted
	// streams must play through the outage untouched, so even the parked
	// arm — where two cubs died and the decluster span is breached — may
	// lose nothing (the governor parks endangered streams before any
	// deadline passes, and parked streams resume at their watermark).
	if err := zeroColumns(p.BlocksLost, 0, p.DoubleServes, p.Violations); err != nil {
		return p, err
	}
	if p.Epoch != 2 {
		return p, fmt.Errorf("controller epoch = %d after one takeover, want 2", p.Epoch)
	}
	if p.TakeoverSec > p.TakeoverBound {
		return p, fmt.Errorf("takeover took %.2fs, bound %.2fs (one scavenge RTT + deadman)", p.TakeoverSec, p.TakeoverBound)
	}
	if a.mode != "restripe" { // a restripe changes the cub population mid-arm
		if want := int64(len(c.Cubs) - deadCubs); p.ScavengesServed != want {
			return p, fmt.Errorf("scavenges served = %d, want %d (one per live cub)", p.ScavengesServed, want)
		}
	} else if p.ScavengesServed < int64(oo.Cubs) {
		return p, fmt.Errorf("scavenges served = %d, want at least %d", p.ScavengesServed, oo.Cubs)
	}
	if p.StartAbandons != 0 {
		return p, fmt.Errorf("%d admissions abandoned across a short outage (must be 0)", p.StartAbandons)
	}
	if p.RetryAdmitted != p.RetryStarts {
		return p, fmt.Errorf("%d of %d retrying admissions admitted after the takeover", p.RetryAdmitted, p.RetryStarts)
	}
	if a.retries > 0 && p.StartRetries == 0 {
		return p, fmt.Errorf("retrying admissions admitted without any backoff attempt during the outage")
	}
	if a.outage > c.Cfg.DeadmanTimeout+2*c.Cfg.HeartbeatInterval && p.CtlDeclaredDead == 0 {
		return p, fmt.Errorf("no cub declared the controller dead across a %v outage", a.outage)
	}
	// Every crash-time stream survived and none was double-admitted: for
	// the fixed-population arms the active count must come back exactly
	// (long files: no EOF churn inside the measurement window).
	if a.mode != "restripe" {
		want := p.Streams + admitted
		if a.mode == "parked" {
			// The crash-time active count excludes the parked streams; after
			// the rejoin every one of them has resumed, so the whole
			// pre-incident population must be back.
			want = active0 + admitted
		}
		if p.ActiveAfter != want {
			return p, fmt.Errorf("active = %d after the takeover, want %d", p.ActiveAfter, want)
		}
	}
	if !p.Converged {
		return p, fmt.Errorf("cluster did not converge after the incident")
	}
	return p, nil
}

// failover prints and gates the controller-failover sweep.
func failover(o tiger.Options) error {
	header("Controller failover: epoch-fenced takeover, scavenged rebuild",
		"the cubs are the schedule; admitted streams play through the outage untouched")
	pts, err := runFailover(o, splitArms(*armsFlag))
	fmt.Printf("%15s %5s %8s %8s %9s %6s %6s %6s %8s %5s %8s %5s %7s %6s\n",
		"arm", "load", "streams", "outage", "takeover", "scav", "plays", "parks",
		"retries", "lost", "doubles", "viol", "active", "conv")
	for _, p := range pts {
		if p.Cubs == 0 {
			continue // arm aborted before setup (its error is reported below)
		}
		fmt.Printf("%15s %5.2f %8d %7.0fs %8.2fs %6d %6d %6d %8d %5d %8d %5d %7d %6v\n",
			p.Arm, p.LoadFrac, p.Streams, p.OutageSec, p.TakeoverSec,
			p.ScavengesServed, p.ScavengedPlays, p.ScavengedParks,
			p.StartRetries, p.BlocksLost, p.DoubleServes, p.Violations,
			p.ActiveAfter, p.Converged)
	}
	if err != nil {
		return err
	}
	return writeJSON("failover", pts)
}
