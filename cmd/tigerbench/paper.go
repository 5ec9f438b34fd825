package main

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"tiger"
	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/metrics"
	"tiger/internal/msg"
)

// The paper's evaluation (§5): Figures 8-10, the in-text loss-rate and
// reconfiguration numbers and the §3.3 scalability argument, plus the
// flash crowd of §2.2 and the crash-recovery cycle the paper never
// measured. Each run* function returns structured results; the printer
// beside it renders the paper's table.

// rampSpec controls a load-ramp experiment, which ends at capacity.
type rampSpec struct {
	Step   int           // streams added per step (paper: 30)
	Settle time.Duration // wait before sampling each step (paper: >=50s)
}

// paperRamp reproduces §5's procedure.
func paperRamp() rampSpec {
	return rampSpec{Step: 30, Settle: 50 * time.Second}
}

// quickRamp is a scaled-down ramp for benchmarks and tests.
func quickRamp() rampSpec {
	return rampSpec{Step: 120, Settle: 10 * time.Second}
}

// loadCurveResult is the outcome of a Figure 8/9-style run.
type loadCurveResult struct {
	Capacity int
	Failed   bool
	Samples  []tiger.LoadSample

	BlocksOK     int64
	BlocksLost   int64
	MirrorBlocks int64
	ServerMisses int64
	LossRate     float64 // "1 in N"; 0 when lossless

	StartupPoints []tiger.StartupPoint
	Violations    int
	CubStats      core.CubStats
}

// runLoadCurve ramps a system to capacity, sampling the Figure 8/9 load
// factors at each step. failCub >= 0 keeps that cub failed for the whole
// run (Figure 9).
func runLoadCurve(o tiger.Options, failCub int, ramp rampSpec) (*loadCurveResult, error) {
	c, err := tiger.New(o)
	if err != nil {
		return nil, err
	}
	res := &loadCurveResult{Capacity: c.Capacity(), Failed: failCub >= 0}

	sampler := tiger.NewSampler(c)
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

	max := c.Capacity()
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

// figure10Result pools stream-start latencies against schedule load.
type figure10Result struct {
	Points []tiger.StartupPoint
	// Bucketed means, 5%-load buckets, for the heavy line in the figure.
	BucketLoad []float64
	BucketMean []time.Duration
	MeanAt95   time.Duration
	Floor      time.Duration
	Over20s    int
}

// runFigure10 reproduces Figure 10 by pooling the starts of a non-failed
// and a failed ramp, as the paper did (4050 starts across both tests).
func runFigure10(o tiger.Options, ramp rampSpec) (*figure10Result, error) {
	a, err := runLoadCurve(o, -1, ramp)
	if err != nil {
		return nil, err
	}
	o2 := o
	o2.Seed = o.Seed + 1000
	b, err := runLoadCurve(o2, 5, ramp)
	if err != nil {
		return nil, err
	}
	res := &figure10Result{Points: append(a.StartupPoints, b.StartupPoints...)}

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

// lossRateResult is one steady-state loss measurement (the in-text
// numbers of §5).
type lossRateResult struct {
	Name         string
	Duration     time.Duration
	Streams      int
	BlocksOK     int64
	BlocksLost   int64
	ServerMisses int64
	LossRate     float64 // "1 in N"

	traced
}

// runLossRates measures end-to-end loss at full load over the given
// steady-state duration, unfailed and with one cub failed (the paper's
// two experiments: ~1 in 180,000 unfailed; ~1 in 40,000 during the
// failed-mode hour). enableAttr traces each mode (startTrace).
func runLossRates(o tiger.Options, hold time.Duration, enableAttr bool) ([]lossRateResult, error) {
	modes := []bool{false, true}
	out := make([]lossRateResult, len(modes))
	err := forEachPoint(len(modes), func(i int) error {
		failed := modes[i]
		c, err := tiger.New(o)
		if err != nil {
			return err
		}
		startTrace(c, enableAttr)
		if failed {
			c.FailCub(5)
			c.RunFor(c.Cfg.DeadmanTimeout + 2*time.Second)
		}
		if err := c.RampTo(c.Capacity()); err != nil {
			return err
		}
		c.RunFor(90 * time.Second) // let the final insertions land; reach steady state
		w := snapshot(c)
		c.RunFor(hold)
		d := w.delta(c)

		r := lossRateResult{
			Duration:     hold,
			Streams:      c.Active(),
			BlocksOK:     d.ok,
			BlocksLost:   d.lost,
			ServerMisses: d.cubs.ServerMisses,
		}
		if failed {
			r.Name = "one cub failed, full load"
		} else {
			r.Name = "unfailed, full load"
		}
		if r.BlocksLost > 0 {
			r.LossRate = float64(r.BlocksOK+r.BlocksLost) / float64(r.BlocksLost)
		}
		r.collect(c)
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reconfigResult measures recovery from a power-cut failure (§5's final
// measurement: "about 8 seconds between the earliest and latest lost
// block" at 50% load).
type reconfigResult struct {
	Streams     int
	LostBlocks  int64
	LossSpan    time.Duration
	DetectedIn  time.Duration // first deadman declaration after the cut
	MirrorCatch int64         // blocks assembled from mirrors afterwards
}

// runReconfig loads the system to half capacity, cuts power to a cub,
// and measures the window between the earliest and latest lost block.
func runReconfig(o tiger.Options) (*reconfigResult, error) {
	o.ClientDropProb = 0 // isolate failure-induced loss
	c, err := tiger.New(o)
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
	c.FailCub(5)
	c.RunFor(90 * time.Second)

	_, lost, mirror := c.ViewerTotals()
	return &reconfigResult{
		Streams:     c.Active(),
		LostBlocks:  lost,
		LossSpan:    c.Loss.LossSpan(),
		MirrorCatch: mirror,
		// The first death declaration is not timestamped; the deadman
		// timeout dominates it.
		DetectedIn: c.Cfg.DeadmanTimeout,
	}, nil
}

// scalePoint is one system size in the §3.3 scalability comparison.
type scalePoint struct {
	Cubs            int
	Streams         int
	PerCubCtlBps    float64 // measured distributed control traffic
	CentralizedBps  float64 // computed central-controller send rate
	MaxViewEntries  int
	ControllerLoad  float64
	MeanCubCPU      float64
	SchedulerEvents int64 // total inserts performed
}

// runScalability measures per-cub control traffic at ~70% load across
// system sizes and compares it with the §3.3 estimate of what a central
// controller would have to send (one ~100-byte block instruction per
// block served).
func runScalability(o tiger.Options, cubCounts []int, settle time.Duration) ([]scalePoint, error) {
	out := make([]scalePoint, len(cubCounts))
	vsSize := (&msg.ViewerState{}).Size()
	err := forEachPoint(len(cubCounts), func(i int) error {
		oo := o
		oo.Cubs = cubCounts[i]
		c, err := tiger.New(oo)
		if err != nil {
			return err
		}
		target := c.Capacity() * 7 / 10
		if err := c.RampTo(target); err != nil {
			return err
		}
		c.RunFor(settle)
		sampler := tiger.NewSampler(c)
		c.RunFor(settle)
		s := sampler.Sample()
		out[i] = scalePoint{
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

// capacityTable returns the planning numbers the paper quotes for its
// hardware (56 disks, 0.25 MB blocks): ~10.75 streams/disk, 602 total.
func capacityTable(o tiger.Options) disk.Capacity {
	return disk.PlanCapacity(o.DiskParams,
		o.Cubs*o.DisksPerCub, o.BlockSize, o.BlockPlay, o.Decluster)
}

// flashCrowdResult measures the paper's motivating scenario (§2.2): a
// premiere where every viewer requests the same file at the same
// moment. Striping guarantees no hotspot once streams run; the schedule
// enforces equitemporal spacing by delaying starts, all of which are
// funnelled through the single disk holding the file's first block.
type flashCrowdResult struct {
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

// runFlashCrowd starts viewers simultaneously on one title and measures
// how Tiger spaces them out and whether any component hotspots.
func runFlashCrowd(o tiger.Options, viewers int, watch time.Duration) (*flashCrowdResult, error) {
	o.ClientDropProb = 0
	c, err := tiger.New(o)
	if err != nil {
		return nil, err
	}
	if viewers > c.Capacity() {
		viewers = c.Capacity()
	}
	res := &flashCrowdResult{Viewers: viewers}
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
	busy := func() map[int]time.Duration {
		m := map[int]time.Duration{}
		for _, cub := range c.Cubs {
			for id, d := range cub.Disks() {
				m[id] = d.Stats().BusyTotal
			}
		}
		return m
	}
	before := busy()
	beforeAt := c.Now()
	c.RunFor(watch)
	wall := c.Now().Sub(beforeAt)
	after := busy()
	// Sum in disk order: a float sum in map order differs in its last
	// digits from run to run.
	ids := make([]int, 0, len(after))
	for id := range after {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var sum, max float64
	for _, id := range ids {
		duty := metrics.Load(before[id], after[id], wall)
		sum += duty
		if duty > max {
			max = duty
		}
	}
	res.MeanDiskDuty = sum / float64(len(ids))
	res.MaxDiskDuty = max
	res.BlocksOK, res.BlocksLost, _ = c.ViewerTotals()
	return res, nil
}

func capacity(o tiger.Options) error {
	header("Capacity plan (§5 configuration)",
		"56 disks, 0.25 MB blocks, decluster 4 -> ~10.75 streams/disk, 602 streams")
	c := capacityTable(o)
	fmt.Printf("  block service time : %v\n", c.BlockService)
	fmt.Printf("  streams per disk   : %.3f\n", c.StreamsPerDisk)
	fmt.Printf("  system capacity    : %d streams\n", c.Streams)
	fmt.Printf("  schedule length    : %v (%d slots)\n",
		time.Duration(o.Cubs*o.DisksPerCub)*o.BlockPlay, c.Streams)
	return writeJSON("capacity", c)
}

func loadCurve(o tiger.Options, failCub int, ramp rampSpec) error {
	if failCub >= 0 {
		header("Figure 9: Tiger loads with one cub failed",
			"mirror disks >95% duty; control ~2x unfailed, <=21 KB/s; cub CPU <=85%; 13.4 MB/s sends")
	} else {
		header("Figure 8: Tiger loads with no cubs failed",
			"cub CPU linear in streams; controller flat; control traffic in the KB/s range")
	}
	res, err := runLoadCurve(o, failCub, ramp)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %8s %9s %9s %11s %11s %10s\n",
		"streams", "cubCPU%", "ctrlCPU%", "disk%", "mirror%", "ctl KB/s", "send MB/s")
	for _, s := range res.Samples {
		fmt.Printf("%8d %8.1f %9.2f %9.1f %11.1f %11.2f %10.2f\n",
			s.Streams, s.CubCPU*100, s.CtrlCPU*100, s.DiskLoad*100,
			s.MirrorDiskLoad*100, s.CtlTrafficBps/1e3, s.DataRateBps/1e6)
	}
	fmt.Printf("blocks ok=%d lost=%d (server misses %d, mirror-served %d); conflicts=%d\n",
		res.BlocksOK, res.BlocksLost, res.ServerMisses, res.MirrorBlocks, res.Violations)
	if res.LossRate > 0 {
		fmt.Printf("loss rate: 1 in %.0f\n", res.LossRate)
	}
	name := "fig8"
	if failCub >= 0 {
		name = "fig9"
	}
	var rows [][]string
	for _, smp := range res.Samples {
		rows = append(rows, []string{
			strconv.Itoa(smp.Streams), f1(smp.CubCPU), f1(smp.CtrlCPU), f1(smp.DiskLoad),
			f1(smp.MirrorDiskLoad), f1(smp.CtlTrafficBps), f1(smp.DataRateBps),
		})
	}
	if err := writeCSV(name,
		[]string{"streams", "cub_cpu", "ctrl_cpu", "disk_load", "mirror_disk_load", "ctl_bps", "data_bps"},
		rows); err != nil {
		return err
	}
	return writeJSON(name, res)
}

func fig10(o tiger.Options, ramp rampSpec) error {
	header("Figure 10: stream startup latency vs schedule load",
		"~1.8 s floor below 50% load; mean <5 s at 95%; outliers >20 s near 100%")
	res, err := runFigure10(o, ramp)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s\n", "load", "mean start")
	for i := range res.BucketLoad {
		fmt.Printf("%9.0f%% %12v\n", res.BucketLoad[i]*100, res.BucketMean[i].Round(time.Millisecond))
	}
	fmt.Printf("starts=%d  floor=%v  mean@90-97%%=%v  >20s outliers=%d\n",
		len(res.Points), res.Floor.Round(time.Millisecond),
		res.MeanAt95.Round(time.Millisecond), res.Over20s)
	var rows [][]string
	for _, pt := range res.Points {
		rows = append(rows, []string{f1(pt.Load), f1(pt.Latency.Seconds())})
	}
	if err := writeCSV("fig10", []string{"load", "latency_s"}, rows); err != nil {
		return err
	}
	return writeJSON("fig10", res)
}

func loss(o tiger.Options, hold time.Duration) error {
	header(fmt.Sprintf("Loss rates at full load (%v steady state)", hold),
		"unfailed ~1 in 180,000; failed-mode hour ~1 in 40,000")
	rs, err := runLossRates(o, hold, *attrFlag)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %8s %10s %7s %10s %12s\n",
		"scenario", "streams", "blocks", "lost", "srv-miss", "rate")
	for _, r := range rs {
		rate := "lossless"
		if r.LossRate > 0 {
			rate = fmt.Sprintf("1 in %.0f", r.LossRate)
		}
		fmt.Printf("%-28s %8d %10d %7d %10d %12s\n",
			r.Name, r.Streams, r.BlocksOK+r.BlocksLost, r.BlocksLost, r.ServerMisses, rate)
	}
	for _, r := range rs {
		r.render(r.Name, "loss")
	}
	return writeJSON("loss", rs)
}

func reconfig(o tiger.Options) error {
	header("Reconfiguration after a power cut at 50% load",
		"about 8 seconds between the earliest and latest lost block")
	res, err := runReconfig(o)
	if err != nil {
		return err
	}
	fmt.Printf("  streams          : %d\n", res.Streams)
	fmt.Printf("  blocks lost      : %d\n", res.LostBlocks)
	fmt.Printf("  loss window      : %v\n", res.LossSpan.Round(time.Millisecond))
	fmt.Printf("  deadman timeout  : %v\n", res.DetectedIn)
	fmt.Printf("  mirror catches   : %d blocks\n", res.MirrorCatch)
	return writeJSON("reconfig", res)
}

func scale(o tiger.Options) error {
	header("Scalability: distributed vs centralized control (§3.3)",
		"central controller needs MB/s at tens of thousands of streams; per-cub traffic stays flat")
	pts, err := runScalability(o, []int{7, 14, 28, 56}, 15*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %9s %14s %15s %12s %9s\n",
		"cubs", "streams", "per-cub KB/s", "central KB/s", "view size", "ctrlCPU%")
	for _, p := range pts {
		fmt.Printf("%6d %9d %14.2f %15.2f %12d %9.3f\n",
			p.Cubs, p.Streams, p.PerCubCtlBps/1e3, p.CentralizedBps/1e3,
			p.MaxViewEntries, p.ControllerLoad*100)
	}
	// The paper's 1000-cub extrapolation.
	fmt.Printf("extrapolation: 40,000 streams -> central controller sends %.1f MB/s of viewer states\n",
		40000*97/1e6)
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			strconv.Itoa(p.Cubs), strconv.Itoa(p.Streams),
			f1(p.PerCubCtlBps), f1(p.CentralizedBps), strconv.Itoa(p.MaxViewEntries),
		})
	}
	if err := writeCSV("scale_ctl",
		[]string{"cubs", "streams", "per_cub_ctl_bps", "centralized_bps", "view_entries"}, rows); err != nil {
		return err
	}
	return writeJSON("scale_ctl", pts)
}

func flash(o tiger.Options) error {
	header("Flash crowd: every viewer requests the same title (§2.2)",
		"striping prevents hotspots; Tiger delays starts to enforce equitemporal spacing")
	res, err := runFlashCrowd(o, 300, 2*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("  viewers          : %d requested at t=0, %d admitted\n", res.Viewers, res.Admitted)
	fmt.Printf("  start spread     : %v .. %v (%.1f starts/s ~ one disk's slot rate)\n",
		res.FirstStart.Round(time.Millisecond), res.LastStart.Round(time.Millisecond), res.AdmitRate)
	fmt.Printf("  disk duty        : mean %.0f%%, max %.0f%% (no hotspot)\n",
		res.MeanDiskDuty*100, res.MaxDiskDuty*100)
	fmt.Printf("  blocks           : %d delivered, %d lost\n", res.BlocksOK, res.BlocksLost)
	return writeJSON("flash", res)
}
