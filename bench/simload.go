package main

import (
	"runtime"
	"time"

	"tiger"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/obs/attr"
)

// startGrace is how long beyond one schedule cycle a viewer may wait for
// its first block before the start counts as late (simulated workloads;
// tcp uses a quarter of it, its blocks being a quarter as long). A full
// schedule makes a start wait for the one free slot to come round, which
// can take the whole cycle: 56 s on 14 cubs, 224 s on 56. A flat 30 s
// limit cut through that tail and moved start_ok_frac 2-4 % with the seed.
const startGrace = 30 * time.Second

// victim is the cub churn-fail-14 crashes and restarts.
const victim = 5

// stepRefEvents is the reference-loop events per reading: ~5 ms before
// each step of a slice.
const stepRefEvents = 15_000

// simSpec describes one simulated workload. Work is fixed in virtual
// time: slices × slice at the nominal run length, scaled by -seconds.
type simSpec struct {
	options func(seed int64) tiger.Options
	load    float64 // share of rated capacity to ramp to
	setups  int     // build+ramp+settle repetitions; the quickest is setup_s
	settle  time.Duration
	slice   time.Duration
	slices  int // at the nominal run length
	// steps is the equal parts a slice is run in, a reading of the
	// reference loop before each: what slows this host changes within a
	// slice, and six readings inside it track that where one before it
	// does not (README, findings 1).
	steps int
	crash bool
	// chains bounds each node's causal-chain log in the traced pass; 0 is
	// the program's default. The package test lowers it: merging 15 full
	// logs (Cluster.CausalChains) takes 1.5 s.
	chains int
}

var simSpecs = map[string]simSpec{
	// The paper's system at rated load: a closed loop of 602 viewers on
	// hour-long files, so the window holds no start, stop, EOF or fault.
	"steady-14": {
		options: func(seed int64) tiger.Options { o := tiger.DefaultOptions(); o.Seed = seed; return o },
		load:    1, setups: 6, settle: 60 * time.Second, slice: 30 * time.Second, slices: 80, steps: 6,
	},
	// Same hardware, one-minute files at 90 % load: every EOF is a stop
	// and a start (~9/s), and cub 5 crashes and comes back mid-window.
	"churn-fail-14": {
		options: func(seed int64) tiger.Options {
			o := tiger.DefaultOptions()
			o.Seed = seed
			o.FileBlocks = 60
			return o
		},
		load: 0.9, setups: 10, settle: 60 * time.Second, slice: 30 * time.Second, slices: 100, steps: 6,
		crash: true,
	},
	// Four times the hardware on the sharded engine, configured as
	// tiger.RunScaleCapacity configures its points: no client drops, no
	// disk blips, a file per disk. One worker, because two workers on
	// this host's two cores do not repeat (README, probe findings).
	"sharded-56": {
		options: func(seed int64) tiger.Options {
			o := tiger.DefaultOptions()
			o.Seed = seed
			o.Cubs = 56
			o.NumFiles = 224
			o.ClientDropProb = 0
			o.DiskParams.BlipProb = 0
			o.RampSpacing = 5 * time.Millisecond
			o.Shards = 2
			o.ShardWorkers = 1
			return o
		},
		load: 1, setups: 3, settle: 30 * time.Second, slice: 5 * time.Second, slices: 80, steps: 5,
	},
}

// simCounters is a snapshot of every cumulative counter the benchmark
// reads through the cluster's public accessors.
type simCounters struct {
	at               time.Duration // virtual time
	ok, lost, mirror int64
	events           uint64
	cub              cubTotals
	ctlBytes, ctlMsg int64
	starts           int64
	diskBusy         map[int]time.Duration
}

// cubTotals are the core.CubStats fields the per-layer metrics use.
type cubTotals struct {
	statesRecv, statesDup, statesLate, conflicts int64
	deschedRecv, deschedDup, inserts, startsDup  int64
	mirrorsMade, piecesSent, serverMisses        int64
}

func takeCounters(c *tiger.Cluster) simCounters {
	s := simCounters{at: time.Duration(c.Now()), events: c.EventsProcessed(),
		diskBusy: map[int]time.Duration{}}
	s.ok, s.lost, s.mirror = c.ViewerTotals()
	t := c.TotalCubStats()
	s.cub = cubTotals{t.StatesRecv, t.StatesDup, t.StatesLate, t.Conflicts,
		t.DeschedRecv, t.DeschedDup, t.Inserts, t.StartsDup,
		t.MirrorsMade, t.PiecesSent, t.ServerMisses}
	add := func(ns netsim.Stats) { s.ctlBytes += ns.CtlBytes; s.ctlMsg += ns.CtlMsgs }
	add(c.Net.NodeStats(msg.Controller))
	for _, cub := range c.Cubs {
		add(c.Net.NodeStats(cub.ID()))
		for id, d := range cub.Disks() {
			s.diskBusy[id] = d.Stats().BusyTotal
		}
	}
	s.starts = startsRequested(c)
	return s
}

// startsRequested counts every start the controller was asked for,
// admitted or refused.
func startsRequested(c *tiger.Cluster) int64 {
	cs := c.Controller.Stats()
	return cs.Starts + cs.Rejected
}

// sliceRec is one equal virtual-time slice of the measured window.
type sliceRec struct {
	cpu   time.Duration
	refNs float64 // reference loop, CPU ns per event: mean of the readings inside the slice
	ok    int64
}

// simRun is everything one pass over a simulated workload measured.
type simRun struct {
	spec   simSpec
	target int
	bound  int // Viennot-style resource bound on streams

	liveAfterSettle, activeAfterSettle int
	violations, violationsAtCrash      int // slot-oracle flags: whole pass, and up to the crash
	maxView, cubs                      int

	setupCPU                []float64 // seconds, one per set-up
	stages                  stageCPU  // of the kept cluster
	before, after           simCounters
	slices                  []sliceRec
	mallocs                 uint64
	gcCycles                uint32
	gcCPUFrac               float64
	heapMB                  float64
	winCPU, winWall         time.Duration // summed over the slices
	lossFirst, lossLast     time.Duration // virtual, around the crash
	lossSeen                bool
	restartedAt             time.Duration // virtual time of RestartCub
	rejoinDrain             time.Duration // from then until the victim's mirror load is 0; 0 if not within the slice
	slackMs                 []float64     // traced pass only
	startLat                []float64     // seconds, whole run
	requested, servedInTime int64
	startLimit              time.Duration
	wrongData               int64
	attrTable               *attr.Table
	chainsEvicted           uint64
}

func scaledSlices(nominal int, seconds float64, runSeconds int, traced bool) int {
	n := int(float64(nominal)*seconds/float64(runSeconds) + 0.5)
	if traced {
		n /= 4 // the traced pass runs a quarter of the measured length
	}
	if n < 4 {
		n = 4
	}
	return n
}

// stageCPU is the process CPU seconds of each stage of one set-up.
type stageCPU struct{ build, ramp, settle float64 }

func (s stageCPU) total() float64 { return s.build + s.ramp + s.settle }

// buildSim makes one cluster at its settled operating point.
func buildSim(spec simSpec, o tiger.Options, traced bool, sl *spanLog, parent int) (*tiger.Cluster, int, stageCPU, error) {
	t0 := cpuTotal()
	_, end := sl.begin("new", parent)
	c, err := tiger.New(o)
	end()
	if err != nil {
		return nil, 0, stageCPU{}, err
	}
	if traced && c.Shards() == 1 {
		// The sharded cluster supports neither; it gets harness spans only.
		c.EnableTrace(65536)
		c.EnableCausalTrace(spec.chains, 0)
	}
	t1 := cpuTotal()
	target := int(spec.load * float64(c.Capacity()))
	_, end = sl.begin("ramp", parent)
	err = c.RampTo(target)
	end()
	if err != nil {
		return nil, 0, stageCPU{}, err
	}
	t2 := cpuTotal()
	_, end = sl.begin("settle", parent)
	c.RunFor(spec.settle)
	end()
	t3 := cpuTotal()
	return c, target, stageCPU{(t1 - t0).Seconds(), (t2 - t1).Seconds(), (t3 - t2).Seconds()}, nil
}

// runSim executes one pass: set-up (setups times, the last cluster kept),
// the sliced measured window, then a drain that lets outstanding starts
// finish.
func runSim(spec simSpec, o tiger.Options, slices, setups int, traced bool, sl *spanLog) (*simRun, error) {
	procs := 1
	if o.Shards > 1 && o.ShardWorkers != 1 {
		procs = o.Shards // only the traced pass's parallel-wall comparison
	}
	runtime.GOMAXPROCS(procs)
	r := &simRun{spec: spec}
	var c *tiger.Cluster
	for i := 0; i < setups; i++ {
		c = nil
		runtime.GC() // each set-up starts from the same heap
		id, end := sl.begin("setup", 0)
		built, target, stages, err := buildSim(spec, o, traced, sl, id)
		end()
		if err != nil {
			return nil, err
		}
		c, r.target, r.stages = built, target, stages
		r.setupCPU = append(r.setupCPU, stages.total())
	}
	ref := newRefLoop()
	r.bound = resourceBound(c)
	r.liveAfterSettle, r.activeAfterSettle = len(c.Streams()), c.Active()

	var wrapped map[msg.InstanceID]bool
	if traced {
		wrapped = map[msg.InstanceID]bool{}
	}
	crashAt, restartAt := -1, -1
	if spec.crash {
		crashAt = slices * 30 / 100
		restartAt = slices * 34 / 100
		if restartAt <= crashAt {
			restartAt = crashAt + 1
		}
	}

	winID, winEnd := sl.begin("window", 0)
	r.before = takeCounters(c)
	m0 := memStats()
	prevOK := r.before.ok
	for i := 0; i < slices; i++ {
		if traced {
			r.wrapSlack(c, wrapped)
		}
		if i == crashAt {
			r.violationsAtCrash = c.InvariantViolations()
			_, end := sl.begin("crash", winID)
			c.CrashCub(victim)
			end()
		}
		if i == restartAt {
			_, end := sl.begin("restart", winID)
			c.RestartCub(victim)
			end()
			r.restartedAt = time.Duration(c.Now())
		}
		var refNs float64
		var cpu, wall time.Duration
		_, end := sl.begin("slice", winID)
		for s := 0; s < spec.steps; s++ {
			refNs += ref.nsPerEvent(stepRefEvents) / float64(spec.steps)
			cpu0, wall0 := cpuTotal(), time.Now()
			if spec.crash && i >= crashAt && i <= restartAt {
				r.stepWatching(c, spec.slice/time.Duration(spec.steps), i == restartAt)
			} else {
				c.RunFor(spec.slice / time.Duration(spec.steps))
			}
			cpu += cpuTotal() - cpu0 // the reference loop's own time stays out
			wall += time.Since(wall0)
		}
		end()
		ok, _, _ := c.ViewerTotals()
		r.winCPU += cpu
		r.winWall += wall
		r.slices = append(r.slices, sliceRec{cpu: cpu, refNs: refNs, ok: ok - prevOK})
		prevOK = ok
	}
	m1 := memStats()
	r.after = takeCounters(c)
	winEnd()
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcCPUFrac = m1.GCCPUFraction
	ref = nil // its 17 MiB are the benchmark's, not the program's
	r.heapMB = liveHeapMB()

	// Drain: no further replays, then virtual time until every start
	// requested so far has its first block, or a full schedule cycle (the
	// longest a start can wait for its slot) has passed.
	for _, s := range c.Streams() {
		s.OnEOF = nil
	}
	_, end := sl.begin("drain", 0)
	r.startLimit = c.Cfg.Sched.CycleLen() + startGrace
	for waited := time.Duration(0); waited < r.startLimit &&
		int64(c.StartupLatency.Count()) < startsRequested(c); waited += startGrace / 6 {
		c.RunFor(startGrace / 6)
	}
	end()
	r.requested = startsRequested(c)
	r.startLat = c.StartupLatency.Values()
	for _, v := range r.startLat {
		if v <= r.startLimit.Seconds() {
			r.servedInTime++
		}
	}
	for _, s := range c.Streams() {
		r.wrongData += s.Viewer.Stats().WrongData
	}
	if traced && c.CausalTraceEnabled() {
		r.attrTable = attr.Build(c.CausalChains())
		r.chainsEvicted, _ = c.ChainDrops()
	}
	r.violations, r.maxView, r.cubs = c.InvariantViolations(), c.MaxViewSize(), len(c.Cubs)
	if !spec.crash {
		r.violationsAtCrash = r.violations
	}
	return r, nil
}

// resourceBound is min(disk bound with no mirror reservation, NIC bound),
// computed as tiger's runScalePoint computes it.
func resourceBound(c *tiger.Cluster) int {
	o := c.Opt
	disks := o.Cubs * o.DisksPerCub
	bound := disk.PlanCapacity(o.DiskParams, disks, c.Cfg.BlockSize, o.BlockPlay, 0).Streams
	if nic := int(float64(o.Cubs) * o.NetParams.NICRate * 8 / float64(o.StreamBitrate)); nic < bound {
		bound = nic
	}
	return bound
}

// stepWatching advances d in quarter-second steps while the victim is down
// or has just come back. Down, it notes the first and last step in which a
// viewer declared a block lost: the paper's "about 8 seconds between the
// earliest and latest lost block". Back, it notes when the mirror load the
// ring carried for the victim is handed back.
func (r *simRun) stepWatching(c *tiger.Cluster, d time.Duration, restarted bool) {
	const step = 250 * time.Millisecond
	_, lost, _ := c.ViewerTotals()
	for done := time.Duration(0); done < d; done += step {
		c.RunFor(step)
		at := time.Duration(c.Now())
		if restarted {
			if r.rejoinDrain == 0 && c.MirrorLoadFor(victim) == 0 {
				r.rejoinDrain = at - r.restartedAt
			}
			continue
		}
		if _, now, _ := c.ViewerTotals(); now != lost {
			if !r.lossSeen {
				r.lossFirst, r.lossSeen = at, true
			}
			r.lossLast = at
			lost = now
		}
	}
}

// wrapSlack chains a recorder onto each live viewer's timed-delivery
// callback (traced pass only). Streams born after the last slice
// boundary are picked up at the next one.
func (r *simRun) wrapSlack(c *tiger.Cluster, wrapped map[msg.InstanceID]bool) {
	for inst, s := range c.Streams() {
		if wrapped[inst] {
			continue
		}
		wrapped[inst] = true
		prev := s.Viewer.OnTimedDelivery
		s.Viewer.OnTimedDelivery = func(d netsim.BlockDelivery, slack time.Duration) {
			if prev != nil {
				prev(d, slack)
			}
			r.slackMs = append(r.slackMs, float64(slack)/float64(time.Millisecond))
		}
	}
}

// blocks is the number of blocks delivered on time in the window.
func (r *simRun) blocks() float64 { return float64(r.after.ok - r.before.ok) }

// cpuUsPerBlock is the process CPU per on-time block over the slices. As
// measured (raw) it is their lower quartile: what the host adds, it only
// adds. Calibrated, each slice is divided by the reference loop's cost
// inside it and scaled to that cost on a quiet host; a ratio of two noisy
// readings errs both ways, so its summary is the median.
func (r *simRun) cpuUsPerBlock() (raw, calibrated float64) {
	var rawPer, calPer []float64
	for _, s := range r.slices {
		if s.ok > 0 && s.refNs > 0 {
			v := us(s.cpu) / float64(s.ok)
			rawPer = append(rawPer, v)
			calPer = append(calPer, v/s.refNs*refLoopNs)
		}
	}
	return quietValue(rawPer), median(calPer)
}

func (r *simRun) refNs() float64 {
	p := make([]float64, len(r.slices))
	for i, s := range r.slices {
		p[i] = s.refNs
	}
	return median(p)
}

// ctlBytes is the control-plane bytes every node sent over the window.
func (r *simRun) ctlBytes() float64 { return float64(r.after.ctlBytes - r.before.ctlBytes) }

// gate applies the workload-level correctness checks.
func (r *simRun) gate(res *result) {
	// Up to the crash only. After CrashCub the oracle also hears the dead
	// cub's own timers insert its queued starts and flags each such slot
	// once per schedule cycle from then on, and the rejoin leaves a few
	// core.conflicts on some seeds (README, findings). Both are reported
	// per layer; after a crash the gate rests on what the viewers saw.
	if r.violationsAtCrash != 0 {
		res.fail("%d slot-conflict invariant violations", r.violationsAtCrash)
	}
	if n := r.after.cub.conflicts; n != 0 && !r.spec.crash {
		res.fail("cubs saw %d states for slots held by another instance", n)
	}
	if r.wrongData != 0 {
		res.fail("viewers received %d blocks of the wrong file or position", r.wrongData)
	}
	// Loss budget: 1 block in 1000 (the paper measured 1 in 180 000), plus,
	// for the crash, half a block per stream: the dead cub's share of the
	// streams each lose the few blocks due before the deadman fires.
	lost, due := r.after.lost-r.before.lost, r.after.ok-r.before.ok+r.after.lost-r.before.lost
	budget := due / 1000
	if r.spec.crash {
		budget += int64(r.target / 2)
	}
	if lost > budget {
		res.fail("%d of %d blocks lost, budget %d", lost, due, budget)
	}
	if r.liveAfterSettle != r.target {
		res.fail("%d streams live after settle, want %d", r.liveAfterSettle, r.target)
	}
	if r.activeAfterSettle > r.target {
		res.fail("%d streams active after settle, more than the %d requested", r.activeAfterSettle, r.target)
	}
	if r.blocks() <= 0 {
		res.fail("no block was delivered in the measured window")
	}
}

// endToEnd fills the metrics a Tiger operator or a user of the simulator
// would quote.
func (r *simRun) endToEnd(res *result) {
	blocks := r.blocks()
	due := blocks + float64(r.after.lost-r.before.lost)
	raw, cal := r.cpuUsPerBlock()
	res.set("setup_s", quantile(r.setupCPU, 0))
	res.set("cpu_us_per_block", cal)
	res.set("allocs_per_block", ratio(float64(r.mallocs), blocks))
	res.set("heap_mb", r.heapMB)
	res.set("delivered_frac", ratio(blocks, due))
	res.set("start_ok_frac", ratio(float64(r.servedInTime), float64(r.requested)))
	res.set("capacity_frac", ratio(float64(r.liveAfterSettle), float64(r.bound)))
	res.Attempted = r.requested
	res.Failed = r.requested - int64(len(r.startLat)) // refused, or never served
	res.note("blocks due %d, delivered on time %d, lost %d; starts requested %d, served %d, within %v %d",
		int64(due), int64(blocks), r.after.lost-r.before.lost, r.requested, len(r.startLat), r.startLimit, r.servedInTime)
	res.note("cpu_us_per_block as measured %.4f, reference loop %.1f ns per event (the calibrated value is at %.0f ns); set-ups %.3f s",
		raw, r.refNs(), refLoopNs, r.setupCPU)
}
