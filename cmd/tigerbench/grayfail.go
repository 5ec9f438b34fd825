package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tiger"
	"tiger/internal/core"
	"tiger/internal/msg"
)

// The gray-failure experiment behind `-exp grayfail`. The paper's §5
// failure experiment pulls a power cord — a clean fail-stop the deadman
// detector handles. A fail-slow disk is the failure Tiger's detectors
// cannot see: the cub still heartbeats, the disk still completes reads,
// but late, and streams silently lose blocks. The sweep measures that
// loss with and without the health monitor (fail-slow detection, hedged
// mirror reads, quarantine) across a range of slowdown factors.

// grayFailPoint is one row of the gray-failure sweep: one slowdown
// factor under one arm (health monitor on or off).
type grayFailPoint struct {
	Factor  float64 // victim disk service-time multiplier
	Hedge   bool    // health monitor + hedged mirror reads enabled
	Streams int

	// Viewer delivery deltas from fault injection to the end of the hold.
	BlocksOK     int64
	BlocksLost   int64
	LossPct      float64 // lost / (ok + lost), percent
	MirrorBlocks int64

	// Monitor activity over the hold.
	HedgesIssued    int64
	HedgeLocalWins  int64
	HedgeMirrorWins int64
	ServerMisses    int64

	// Detection outcome: whether the victim was ever suspected /
	// quarantined, and how long after injection each transition came.
	Suspected           bool
	Quarantined         bool
	TimeToSuspectSec    float64
	TimeToQuarantineSec float64

	// DoubleServes must stay 0: hedging launches a second copy of a
	// block's service, and the oracle proves the two never collide on
	// the same service key.
	DoubleServes int

	// With -attr, over the fault window: the slow disk's queue and read
	// rows absorb the slack that healthy arms leave to the send stage.
	traced
}

// runGrayFailSweep measures gray-failure tolerance: for each slowdown
// factor it runs two arms — health monitor enabled and disabled — each
// on a fresh cluster. The cluster ramps to streams (full capacity when
// zero: a fail-slow drive only hurts when it has no headroom, like the
// paper's fully loaded §5 runs), settles, then disk 0 of the last cub
// turns fail-slow at the factor; the run holds for hold while polling
// the victim's health state, and records the delivery loss and monitor
// activity over that window. Client-overload drops are disabled so
// every lost block is the slow disk's fault. enableAttr traces each
// point (startTrace).
func runGrayFailSweep(o tiger.Options, streams int, factors []float64, hold time.Duration, enableAttr bool) ([]grayFailPoint, error) {
	o.ClientDropProb = 0
	n := 2 * len(factors)
	out := make([]grayFailPoint, n)
	err := forEachPoint(n, func(i int) error {
		opt := o
		hedge := i%2 == 0
		opt.Health.Disable = !hedge
		c, err := tiger.New(opt)
		if err != nil {
			return err
		}
		startTrace(c, enableAttr)
		target := streams
		if target <= 0 || target > c.Capacity() {
			target = c.Capacity()
		}
		if err := c.RampTo(target); err != nil {
			return err
		}
		c.RunFor(20 * time.Second)

		h := tiger.NewChaosHarness(c)
		defer h.Close()

		// The victim: first disk of the last cub, so its declustered
		// mirror pieces land on cubs 0..Decluster-1 rather than wrapping.
		victim := c.Cfg.Layout.DisksOfCub(msg.NodeID(len(c.Cubs) - 1))[0]

		w := snapshot(c)
		failAt := c.Now()
		c.FailDiskSlow(victim, factors[i/2])

		tts, ttq := time.Duration(-1), time.Duration(-1)
		for c.Now().Sub(failAt) < hold {
			c.RunFor(250 * time.Millisecond)
			switch c.DiskHealth(victim) {
			case core.DiskQuarantined:
				if ttq < 0 {
					ttq = c.Now().Sub(failAt)
				}
				fallthrough
			case core.DiskSuspected:
				if tts < 0 {
					tts = c.Now().Sub(failAt)
				}
			}
		}

		d := w.delta(c)
		p := grayFailPoint{
			Factor:          factors[i/2],
			Hedge:           hedge,
			Streams:         c.Active(),
			BlocksOK:        d.ok,
			BlocksLost:      d.lost,
			MirrorBlocks:    d.mirror,
			HedgesIssued:    d.cubs.HedgesIssued,
			HedgeLocalWins:  d.cubs.HedgeLocalWins,
			HedgeMirrorWins: d.cubs.HedgeMirrorWins,
			ServerMisses:    d.cubs.ServerMisses,
			Suspected:       tts >= 0,
			Quarantined:     ttq >= 0,
			DoubleServes:    h.DoubleServes(),
		}
		if total := p.BlocksOK + p.BlocksLost; total > 0 {
			p.LossPct = 100 * float64(p.BlocksLost) / float64(total)
		}
		if p.Suspected {
			p.TimeToSuspectSec = tts.Seconds()
		}
		if p.Quarantined {
			p.TimeToQuarantineSec = ttq.Seconds()
		}
		p.collect(c)
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// grayfail is the fail-slow sweep: slowdown factor × mitigation arm.
// The fail-stop detectors never fire — the cub heartbeats, the disk
// answers — so without the health monitor every stream touching the
// slow drive silently loses blocks; the sweep shows detection time,
// hedge activity, quarantine, and the resulting loss for both arms.
func grayfail(o tiger.Options) error {
	header("Gray failure: fail-slow disk sweep (detect, hedge, quarantine)",
		"a slow disk defeats fail-stop detection; loss is driven entirely by late reads")
	var factors []float64
	for _, s := range strings.Split(*grayFactorsFlag, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("grayfail: bad factor %q: %v", s, err)
		}
		factors = append(factors, f)
	}
	pts, err := runGrayFailSweep(o, 0, factors, *grayHold, *attrFlag)
	if err != nil {
		return err
	}
	fmt.Printf("%7s %8s %8s %7s %9s %8s %8s %10s %10s %8s\n",
		"factor", "monitor", "lost", "loss%", "hedges", "mirror", "misses", "suspect", "quarant", "doubles")
	for _, p := range pts {
		arm := "off"
		if p.Hedge {
			arm = "on"
		}
		sus, quar := "never", "never"
		if p.Suspected {
			sus = fmt.Sprintf("%.1fs", p.TimeToSuspectSec)
		}
		if p.Quarantined {
			quar = fmt.Sprintf("%.1fs", p.TimeToQuarantineSec)
		}
		fmt.Printf("%7.2f %8s %8d %6.3f%% %9d %8d %8d %10s %10s %8d\n",
			p.Factor, arm, p.BlocksLost, p.LossPct, p.HedgesIssued,
			p.MirrorBlocks, p.ServerMisses, sus, quar, p.DoubleServes)
	}
	for _, p := range pts {
		arm := "monitor off"
		if p.Hedge {
			arm = "monitor on"
		}
		p.render(fmt.Sprintf("factor %.2f, %s", p.Factor, arm), "grayfail")
	}
	return writeJSON("grayfail", pts)
}
