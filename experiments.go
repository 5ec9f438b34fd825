package tiger

import (
	"fmt"
	"time"

	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/metrics"
	"tiger/internal/msg"
	"tiger/internal/netsched"
	"tiger/internal/obs/attr"
)

// This file regenerates the paper's evaluation (§5): Figures 8-10, the
// in-text loss-rate and reconfiguration numbers, the §3.3 scalability
// argument, and the ablations DESIGN.md lists. Each experiment returns
// structured results; cmd/tigerbench prints them as the paper's tables.

// RampSpec controls a load-ramp experiment.
type RampSpec struct {
	Step      int           // streams added per step (paper: 30)
	Settle    time.Duration // wait before sampling each step (paper: >=50s)
	Max       int           // stop at this many streams; 0 = system capacity
	HoldAtMax time.Duration // extra steady-state time at the final load
}

// PaperRamp reproduces §5's procedure.
func PaperRamp() RampSpec {
	return RampSpec{Step: 30, Settle: 50 * time.Second}
}

// QuickRamp is a scaled-down ramp for benchmarks and tests.
func QuickRamp() RampSpec {
	return RampSpec{Step: 120, Settle: 10 * time.Second}
}

// LoadCurveResult is the outcome of a Figure 8/9-style run.
type LoadCurveResult struct {
	Capacity int
	Failed   bool
	Samples  []LoadSample

	BlocksOK     int64
	BlocksLost   int64
	MirrorBlocks int64
	ServerMisses int64
	LossRate     float64 // "1 in N"; 0 when lossless

	StartupPoints []StartupPoint
	Violations    int
	CubStats      core.CubStats
}

// RunLoadCurve ramps a system to capacity, sampling the Figure 8/9 load
// factors at each step. failCub >= 0 keeps that cub failed for the whole
// run (Figure 9).
func RunLoadCurve(o Options, failCub int, ramp RampSpec) (*LoadCurveResult, error) {
	c, err := New(o)
	if err != nil {
		return nil, err
	}
	res := &LoadCurveResult{Capacity: c.Capacity(), Failed: failCub >= 0}

	sampler := NewSampler(c)
	if failCub >= 0 {
		c.FailCub(failCub)
		// Let the deadman fire before offering load, as the paper's
		// failed-mode test had the cub down for the entire run.
		c.RunFor(c.Cfg.DeadmanTimeout + 2*time.Second)
		mirror := (failCub + 1) % o.Cubs
		sampler.ProbeCub = mirror
		sampler.MirrorCub = mirror
		sampler.Sample() // reset the window
	}

	max := ramp.Max
	if max <= 0 || max > c.Capacity() {
		max = c.Capacity()
	}
	for target := ramp.Step; ; target += ramp.Step {
		if target > max {
			target = max
		}
		if err := c.RampTo(target); err != nil {
			return nil, err
		}
		sampler.Sample() // discard the ramp-transient window
		c.RunFor(ramp.Settle)
		s := sampler.Sample()
		res.Samples = append(res.Samples, s)
		if target == max {
			break
		}
	}
	if ramp.HoldAtMax > 0 {
		c.RunFor(ramp.HoldAtMax)
		res.Samples = append(res.Samples, sampler.Sample())
	}

	res.BlocksOK, res.BlocksLost, res.MirrorBlocks = c.ViewerTotals()
	res.ServerMisses = c.TotalCubStats().ServerMisses
	if res.BlocksLost > 0 {
		res.LossRate = float64(res.BlocksOK+res.BlocksLost) / float64(res.BlocksLost)
	}
	res.StartupPoints = append(res.StartupPoints, c.StartupPoints...)
	res.Violations = c.InvariantViolations()
	res.CubStats = c.TotalCubStats()
	return res, nil
}

// RunFigure8 reproduces Figure 8: load factors versus streams, no
// failures.
func RunFigure8(o Options, ramp RampSpec) (*LoadCurveResult, error) {
	return RunLoadCurve(o, -1, ramp)
}

// RunFigure9 reproduces Figure 9: the same ramp with one cub failed for
// the entire run.
func RunFigure9(o Options, ramp RampSpec) (*LoadCurveResult, error) {
	return RunLoadCurve(o, 5, ramp)
}

// Figure10Result pools stream-start latencies against schedule load.
type Figure10Result struct {
	Points []StartupPoint
	// Bucketed means, 5%-load buckets, for the heavy line in the figure.
	BucketLoad []float64
	BucketMean []time.Duration
	MeanAt95   time.Duration
	Floor      time.Duration
	Over20s    int
}

// RunFigure10 reproduces Figure 10 by pooling the starts of a non-failed
// and a failed ramp, as the paper did (4050 starts across both tests).
func RunFigure10(o Options, ramp RampSpec) (*Figure10Result, error) {
	a, err := RunFigure8(o, ramp)
	if err != nil {
		return nil, err
	}
	o2 := o
	o2.Seed = o.Seed + 1000
	b, err := RunFigure9(o2, ramp)
	if err != nil {
		return nil, err
	}
	res := &Figure10Result{Points: append(a.StartupPoints, b.StartupPoints...)}

	const bucketW = 0.05
	type agg struct {
		sum time.Duration
		n   int
	}
	buckets := map[int]*agg{}
	var floor metrics.Summary
	var high metrics.Summary
	for _, p := range res.Points {
		i := int(p.Load / bucketW)
		a := buckets[i]
		if a == nil {
			a = &agg{}
			buckets[i] = a
		}
		a.sum += p.Latency
		a.n++
		if p.Load < 0.5 {
			floor.AddDuration(p.Latency)
		}
		if p.Load >= 0.90 && p.Load < 0.97 {
			high.AddDuration(p.Latency)
		}
		if p.Latency > 20*time.Second {
			res.Over20s++
		}
	}
	for i := 0; i <= int(1/bucketW)+1; i++ {
		if a, ok := buckets[i]; ok {
			res.BucketLoad = append(res.BucketLoad, float64(i)*bucketW+bucketW/2)
			res.BucketMean = append(res.BucketMean, a.sum/time.Duration(a.n))
		}
	}
	res.Floor = time.Duration(floor.Mean() * float64(time.Second))
	res.MeanAt95 = time.Duration(high.Mean() * float64(time.Second))
	return res, nil
}

// LossRateResult is one steady-state loss measurement (the in-text
// numbers of §5).
type LossRateResult struct {
	Name         string
	Duration     time.Duration
	Streams      int
	BlocksOK     int64
	BlocksLost   int64
	ServerMisses int64
	LossRate     float64 // "1 in N"

	// Attribution and Flight are filled by RunLossRatesAttr: the
	// per-component slack-consumption table for the run's traced blocks,
	// and the flight-recorder dumps of any that missed.
	Attribution *attr.Table  `json:"attribution,omitempty"`
	Flight      []FlightDump `json:"flight,omitempty"`
}

// RunLossRates measures end-to-end loss at full load over the given
// steady-state duration, unfailed and with one cub failed (the paper's
// two experiments: ~1 in 180,000 unfailed; ~1 in 40,000 during the
// failed-mode hour).
func RunLossRates(o Options, hold time.Duration) ([]LossRateResult, error) {
	return RunLossRatesAttr(o, hold, false)
}

// RunLossRatesAttr is RunLossRates with optional slack attribution:
// when enableAttr is set, each mode runs with causal tracing and the
// flight recorder on, and its result carries the per-component
// slack-consumption table plus flight dumps for any missed blocks.
func RunLossRatesAttr(o Options, hold time.Duration, enableAttr bool) ([]LossRateResult, error) {
	modes := []bool{false, true}
	out := make([]LossRateResult, len(modes))
	err := forEachPoint(len(modes), func(i int) error {
		failed := modes[i]
		c, err := New(o)
		if err != nil {
			return err
		}
		if enableAttr {
			c.EnableTrace(4096)
			c.EnableCausalTrace(0, 0)
			c.EnableFlightRecorder(0)
		}
		if failed {
			c.FailCub(5)
			c.RunFor(c.Cfg.DeadmanTimeout + 2*time.Second)
		}
		if err := c.RampTo(c.Capacity()); err != nil {
			return err
		}
		c.RunFor(90 * time.Second) // let the final insertions land; reach steady state
		okBase, lostBase, _ := c.ViewerTotals()
		missBase := c.TotalCubStats().ServerMisses
		c.RunFor(hold)
		ok, lost, _ := c.ViewerTotals()
		miss := c.TotalCubStats().ServerMisses

		r := LossRateResult{
			Duration:     hold,
			Streams:      c.Active(),
			BlocksOK:     ok - okBase,
			BlocksLost:   lost - lostBase,
			ServerMisses: miss - missBase,
		}
		if failed {
			r.Name = "one cub failed, full load"
		} else {
			r.Name = "unfailed, full load"
		}
		if r.BlocksLost > 0 {
			r.LossRate = float64(r.BlocksOK+r.BlocksLost) / float64(r.BlocksLost)
		}
		if enableAttr {
			r.Attribution = attr.Build(c.CausalChains())
			if fr := c.FlightRecorder(); fr != nil {
				r.Flight = fr.Dumps()
			}
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReconfigResult measures recovery from a power-cut failure (§5's final
// measurement: "about 8 seconds between the earliest and latest lost
// block" at 50% load).
type ReconfigResult struct {
	Streams     int
	LostBlocks  int64
	LossSpan    time.Duration
	DetectedIn  time.Duration // first deadman declaration after the cut
	MirrorCatch int64         // blocks assembled from mirrors afterwards
}

// RunReconfig loads the system to half capacity, cuts power to a cub,
// and measures the window between the earliest and latest lost block.
func RunReconfig(o Options) (*ReconfigResult, error) {
	o.ClientDropProb = 0 // isolate failure-induced loss
	c, err := New(o)
	if err != nil {
		return nil, err
	}
	if err := c.RampTo(c.Capacity() / 2); err != nil {
		return nil, err
	}
	c.RunFor(30 * time.Second)
	if c.Loss.Total() != 0 {
		return nil, fmt.Errorf("reconfig: %d losses before the failure", c.Loss.Total())
	}
	cut := c.Now()
	c.FailCub(5)
	c.RunFor(90 * time.Second)

	_, lost, mirror := c.ViewerTotals()
	res := &ReconfigResult{
		Streams:     c.Active(),
		LostBlocks:  lost,
		LossSpan:    c.Loss.LossSpan(),
		MirrorCatch: mirror,
	}
	// Detection time: first DeadDeclared transition is not timestamped;
	// approximate with the deadman timeout, which dominates it.
	res.DetectedIn = c.Cfg.DeadmanTimeout
	_ = cut
	return res, nil
}

// ScalePoint is one system size in the §3.3 scalability comparison.
type ScalePoint struct {
	Cubs            int
	Streams         int
	PerCubCtlBps    float64 // measured distributed control traffic
	CentralizedBps  float64 // computed central-controller send rate
	MaxViewEntries  int
	ControllerLoad  float64
	MeanCubCPU      float64
	SchedulerEvents int64 // total inserts performed
}

// RunScalability measures per-cub control traffic at ~70% load across
// system sizes and compares it with the §3.3 estimate of what a central
// controller would have to send (one ~100-byte block instruction per
// block served).
func RunScalability(o Options, cubCounts []int, settle time.Duration) ([]ScalePoint, error) {
	out := make([]ScalePoint, len(cubCounts))
	vsSize := (&msg.ViewerState{}).Size()
	err := forEachPoint(len(cubCounts), func(i int) error {
		oo := o
		oo.Cubs = cubCounts[i]
		c, err := New(oo)
		if err != nil {
			return err
		}
		target := c.Capacity() * 7 / 10
		if err := c.RampTo(target); err != nil {
			return err
		}
		c.RunFor(settle)
		sampler := NewSampler(c)
		c.RunFor(settle)
		s := sampler.Sample()
		out[i] = ScalePoint{
			Cubs:            cubCounts[i],
			Streams:         c.Active(),
			PerCubCtlBps:    s.CtlTrafficBps,
			CentralizedBps:  float64(c.Active()) * float64(vsSize) / c.Cfg.Sched.BlockPlay.Seconds(),
			MaxViewEntries:  s.MaxViewEntries,
			ControllerLoad:  s.CtrlCPU,
			MeanCubCPU:      s.CubCPU,
			SchedulerEvents: c.TotalCubStats().Inserts,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardingAblation compares double versus single forwarding of viewer
// states after a cub failure (ablation A1; §4.1.1's design rationale).
type ForwardingAblation struct {
	DoubleLost  int64
	SingleLost  int64
	DoubleCtl   float64 // per-cub control bytes/s, steady state
	SingleCtl   float64
	Streams     int
	RunDuration time.Duration
}

// RunAblationForwarding measures both variants under an identical
// failure scenario.
func RunAblationForwarding(o Options) (*ForwardingAblation, error) {
	res := &ForwardingAblation{RunDuration: 60 * time.Second}
	for _, single := range []bool{false, true} {
		oo := o
		oo.SingleForward = single
		oo.ClientDropProb = 0
		c, err := New(oo)
		if err != nil {
			return nil, err
		}
		if err := c.RampTo(c.Capacity() / 2); err != nil {
			return nil, err
		}
		c.RunFor(20 * time.Second)
		sampler := NewSampler(c)
		c.RunFor(10 * time.Second)
		ctl := sampler.Sample().CtlTrafficBps
		c.FailCub(5)
		c.RunFor(res.RunDuration)
		_, lost, _ := c.ViewerTotals()
		res.Streams = c.Active()
		if single {
			res.SingleLost = lost
			res.SingleCtl = ctl
		} else {
			res.DoubleLost = lost
			res.DoubleCtl = ctl
		}
	}
	return res, nil
}

// DeclusterPoint is one row of the decluster-factor trade-off (§2.3).
type DeclusterPoint struct {
	Decluster        int
	Capacity         int     // planned streams
	ReservedFraction float64 // bandwidth held back for failure mode
	VulnerableSpan   int     // disks whose second failure loses data
	MirrorDiskLoad   float64 // measured covering-disk duty at full load
	BlocksLost       int64
}

// RunAblationDecluster sweeps the decluster factor, reporting the §2.3
// trade-off between failover bandwidth reservation and vulnerability,
// plus measured failed-mode disk duty.
func RunAblationDecluster(o Options, factors []int, hold time.Duration) ([]DeclusterPoint, error) {
	out := make([]DeclusterPoint, len(factors))
	err := forEachPoint(len(factors), func(i int) error {
		oo := o
		oo.Decluster = factors[i]
		oo.ClientDropProb = 0
		c, err := New(oo)
		if err != nil {
			return err
		}
		p := DeclusterPoint{
			Decluster:        factors[i],
			Capacity:         c.Capacity(),
			ReservedFraction: c.Cfg.Layout.FailoverBandwidthFraction(),
			VulnerableSpan:   c.Cfg.Layout.VulnerabilitySpan(),
		}
		c.FailCub(5)
		c.RunFor(c.Cfg.DeadmanTimeout + 2*time.Second)
		sampler := NewSampler(c)
		sampler.MirrorCub = 6
		sampler.ProbeCub = 6
		if err := c.RampTo(c.Capacity()); err != nil {
			return err
		}
		sampler.Sample() // discard the ramp window; measure steady state
		c.RunFor(hold)
		s := sampler.Sample()
		p.MirrorDiskLoad = s.MirrorDiskLoad
		_, p.BlocksLost, _ = c.ViewerTotals()
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LeadPoint is one row of the viewer-state lead sweep (ablation A3).
type LeadPoint struct {
	MinLead, MaxLead time.Duration
	CtlMsgsPerSec    float64 // per-cub control messages (batching efficiency)
	CtlBps           float64
	MaxViewEntries   int
	BlocksLost       int64
}

// RunAblationLead sweeps min/maxVStateLead, showing the batching-versus-
// state-size trade-off of §4.1.1.
func RunAblationLead(o Options, pairs [][2]time.Duration, hold time.Duration) ([]LeadPoint, error) {
	out := make([]LeadPoint, len(pairs))
	err := forEachPoint(len(pairs), func(i int) error {
		pr := pairs[i]
		oo := o
		oo.MinVStateLead = pr[0]
		oo.MaxVStateLead = pr[1]
		oo.ClientDropProb = 0
		c, err := New(oo)
		if err != nil {
			return err
		}
		if err := c.RampTo(c.Capacity() * 8 / 10); err != nil {
			return err
		}
		c.RunFor(15 * time.Second)
		before := c.Net.NodeStats(0)
		beforeAt := c.Now()
		c.RunFor(hold)
		after := c.Net.NodeStats(0)
		wall := c.Now().Sub(beforeAt).Seconds()
		_, lost, _ := c.ViewerTotals()
		out[i] = LeadPoint{
			MinLead:        pr[0],
			MaxLead:        pr[1],
			CtlMsgsPerSec:  float64(after.CtlMsgs-before.CtlMsgs) / wall,
			CtlBps:         float64(after.CtlBytes-before.CtlBytes) / wall,
			MaxViewEntries: c.MaxViewSize(),
			BlocksLost:     lost,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FragmentationPoint is one row of the network-schedule quantization
// ablation (A4; §3.2).
type FragmentationPoint struct {
	Quantum       time.Duration
	Admitted      int
	Utilization   float64
	Fragmentation float64 // free-but-unusable fraction at 2 Mbit/s
}

// RunAblationFragmentation fills a network schedule with arrivals at
// either arbitrary (1 ms grid) or quantized start times and reports how
// many streams fit (§3.2: quantizing to blockPlay/decluster keeps
// fragmentation acceptable).
func RunAblationFragmentation(cubs int, nicBps int64, quanta []time.Duration, seed int64) ([]FragmentationPoint, error) {
	out := make([]FragmentationPoint, len(quanta))
	err := forEachPoint(len(quanta), func(pi int) error {
		q := quanta[pi]
		s, err := netsched.New(cubs, time.Second, nicBps)
		if err != nil {
			return err
		}
		rng := newDetRand(seed)
		admitted := 0
		for i := 0; i < 10000; i++ {
			arrival := time.Duration(rng.Int63n(int64(s.Cycle())))
			bitrate := int64(1_000_000 + rng.Int63n(5_000_000))
			searchQ := q
			if searchQ <= 0 {
				searchQ = time.Millisecond
			} else {
				arrival = arrival / searchQ * searchQ
			}
			start, ok := s.FindStart(arrival, bitrate, searchQ)
			if !ok {
				break
			}
			if err := s.Insert(netsched.Entry{
				Instance: msg.InstanceID(i + 1),
				Start:    start,
				Bitrate:  bitrate,
				State:    netsched.Committed,
			}); err != nil {
				break
			}
			admitted++
		}
		out[pi] = FragmentationPoint{
			Quantum:       q,
			Admitted:      admitted,
			Utilization:   s.Utilization(),
			Fragmentation: s.FragmentationLoss(2_000_000, 10*time.Millisecond),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RecoveryResult measures a crash–restart–reintegration cycle: the
// covering load the ring accumulated while the cub was down, how long
// the rejoin handshake took, and how long the handed-back mirror load
// took to drain to zero.
type RecoveryResult struct {
	Streams             int
	MirrorLoadAtRestart int           // mirror entries covering the victim at restart
	DrainTime           time.Duration // restart until zero residual mirror load
	Drained             bool          // false if the cap was hit first
	ViewTransferred     int64
	MirrorsRetired      int64
	StaleEpochDrops     int64
	RejoinTime          time.Duration // handshake duration (recovery histogram mean)
	Violations          int
}

// RunRecovery loads the system to the given stream count (half capacity
// when zero), crashes a cub for crashFor, cold-restarts it, and measures
// the reintegration.
func RunRecovery(o Options, streams int, crashFor time.Duration) (*RecoveryResult, error) {
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		return nil, err
	}
	if streams <= 0 || streams > c.Capacity() {
		streams = c.Capacity() / 2
	}
	if err := c.RampTo(streams); err != nil {
		return nil, err
	}
	c.RunFor(30 * time.Second)

	const victim = 5
	c.CrashCub(victim)
	c.RunFor(crashFor)
	res := &RecoveryResult{
		Streams:             c.Active(),
		MirrorLoadAtRestart: c.MirrorLoadFor(victim),
	}

	c.RestartCub(victim)
	restartAt := c.Now()
	const step = 500 * time.Millisecond
	const drainCap = 2 * time.Minute
	for c.MirrorLoadFor(victim) > 0 && c.Now().Sub(restartAt) < drainCap {
		c.RunFor(step)
	}
	res.Drained = c.MirrorLoadFor(victim) == 0
	res.DrainTime = c.Now().Sub(restartAt)

	cs := c.TotalCubStats()
	res.ViewTransferred = cs.ViewTransferred
	res.MirrorsRetired = cs.MirrorsRetired
	res.StaleEpochDrops = cs.StaleEpochDrops
	res.RejoinTime = time.Duration(c.Cubs[victim].RecoveryTimes().Mean() * float64(time.Second))
	res.Violations = c.InvariantViolations()
	return res, nil
}

// CapacityTable returns the planning numbers the paper quotes for its
// hardware (56 disks, 0.25 MB blocks): ~10.75 streams/disk, 602 total.
func CapacityTable(o Options) disk.Capacity {
	return disk.PlanCapacity(o.DiskParams,
		o.Cubs*o.DisksPerCub, o.BlockSize, o.BlockPlay, o.Decluster)
}

// newDetRand returns a deterministic random source for experiments that
// do not run inside a cluster.
func newDetRand(seed int64) *detRand {
	return &detRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

type detRand struct{ state uint64 }

// Int63n returns a uniform value in [0, n) from a splitmix-style stream;
// enough for workload generation, no crypto claims.
func (r *detRand) Int63n(n int64) int64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	v := int64(z >> 1)
	return v % n
}

// FlashCrowdResult measures the paper's motivating scenario (§2.2): a
// premiere where every viewer requests the same file at the same
// moment. Striping guarantees no hotspot once streams run; the schedule
// enforces equitemporal spacing by delaying starts, all of which are
// funnelled through the single disk holding the file's first block.
type FlashCrowdResult struct {
	Viewers      int
	Admitted     int
	FirstStart   time.Duration // earliest start latency
	LastStart    time.Duration // latest: the spacing delay the paper describes
	AdmitRate    float64       // starts per second ~ one disk's slot-window rate
	BlocksOK     int64
	BlocksLost   int64
	MaxDiskDuty  float64 // hottest disk during playback
	MeanDiskDuty float64
}

// RunFlashCrowd starts viewers simultaneously on one title and measures
// how Tiger spaces them out and whether any component hotspots.
func RunFlashCrowd(o Options, viewers int, watch time.Duration) (*FlashCrowdResult, error) {
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		return nil, err
	}
	if viewers > c.Capacity() {
		viewers = c.Capacity()
	}
	res := &FlashCrowdResult{Viewers: viewers}
	for i := 0; i < viewers; i++ {
		if _, err := c.Play(0, 0); err != nil {
			return nil, err
		}
	}
	// Give every start time to land: the single first-block disk admits
	// roughly one viewer per block service time.
	deadline := time.Duration(float64(viewers)*c.Cfg.Sched.BlockService.Seconds()*2+60) * time.Second
	c.RunFor(deadline)
	res.Admitted = c.Active()

	var first, last time.Duration
	for i, p := range c.StartupPoints {
		if i == 0 || p.Latency < first {
			first = p.Latency
		}
		if p.Latency > last {
			last = p.Latency
		}
	}
	res.FirstStart, res.LastStart = first, last
	if span := (last - first).Seconds(); span > 0 {
		res.AdmitRate = float64(res.Admitted-1) / span
	}

	// Measure disk balance during playback: striping must spread the
	// single-title load over every disk.
	type snap struct{ busy time.Duration }
	before := map[int]snap{}
	for _, cub := range c.Cubs {
		for id, d := range cub.Disks() {
			before[id] = snap{d.Stats().BusyTotal}
		}
	}
	beforeAt := c.Now()
	c.RunFor(watch)
	wall := c.Now().Sub(beforeAt)
	var sum, max float64
	n := 0
	for _, cub := range c.Cubs {
		for id, d := range cub.Disks() {
			duty := metrics.Load(before[id].busy, d.Stats().BusyTotal, wall)
			sum += duty
			if duty > max {
				max = duty
			}
			n++
		}
	}
	res.MeanDiskDuty = sum / float64(n)
	res.MaxDiskDuty = max
	res.BlocksOK, res.BlocksLost, _ = c.ViewerTotals()
	return res, nil
}
