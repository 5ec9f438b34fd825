package main

import (
	"fmt"
	"time"

	"tiger"
	"tiger/internal/msg"
	"tiger/internal/netsched"
)

// The ablations DESIGN.md lists: each isolates one design choice of the
// paper and measures what it buys.

// forwardingAblation compares double versus single forwarding of viewer
// states after a cub failure (ablation A1; §4.1.1's design rationale).
type forwardingAblation struct {
	DoubleLost  int64
	SingleLost  int64
	DoubleCtl   float64 // per-cub control bytes/s, steady state
	SingleCtl   float64
	Streams     int
	RunDuration time.Duration
}

// runAblationForwarding measures both variants under an identical
// failure scenario.
func runAblationForwarding(o tiger.Options) (*forwardingAblation, error) {
	res := &forwardingAblation{RunDuration: 60 * time.Second}
	for _, single := range []bool{false, true} {
		oo := o
		oo.SingleForward = single
		oo.ClientDropProb = 0
		c, err := tiger.New(oo)
		if err != nil {
			return nil, err
		}
		if err := c.RampTo(c.Capacity() / 2); err != nil {
			return nil, err
		}
		c.RunFor(20 * time.Second)
		w := snapshot(c)
		c.RunFor(10 * time.Second)
		ctl := w.load(c, 0, -1).CtlTrafficBps
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

// declusterPoint is one row of the decluster-factor trade-off (§2.3).
type declusterPoint struct {
	Decluster        int
	Capacity         int     // planned streams
	ReservedFraction float64 // bandwidth held back for failure mode
	VulnerableSpan   int     // disks whose second failure loses data
	MirrorDiskLoad   float64 // measured covering-disk duty at full load
	BlocksLost       int64
}

// runAblationDecluster sweeps the decluster factor, reporting the §2.3
// trade-off between failover bandwidth reservation and vulnerability,
// plus measured failed-mode disk duty.
func runAblationDecluster(o tiger.Options, factors []int, hold time.Duration) ([]declusterPoint, error) {
	out := make([]declusterPoint, len(factors))
	err := forEachPoint(len(factors), func(i int) error {
		oo := o
		oo.Decluster = factors[i]
		oo.ClientDropProb = 0
		c, err := tiger.New(oo)
		if err != nil {
			return err
		}
		p := declusterPoint{
			Decluster:        factors[i],
			Capacity:         c.Capacity(),
			ReservedFraction: c.Cfg.Layout.FailoverBandwidthFraction(),
			VulnerableSpan:   c.Cfg.Layout.VulnerabilitySpan(),
		}
		c.FailCub(5)
		c.RunFor(c.Cfg.DeadmanTimeout + 2*time.Second)
		if err := c.RampTo(c.Capacity()); err != nil {
			return err
		}
		w := snapshot(c) // after the ramp: measure steady state
		c.RunFor(hold)
		p.MirrorDiskLoad = w.load(c, 6, 6).MirrorDiskLoad
		_, p.BlocksLost, _ = c.ViewerTotals()
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// leadPoint is one row of the viewer-state lead sweep (ablation A3).
type leadPoint struct {
	MinLead, MaxLead time.Duration
	CtlMsgsPerSec    float64 // per-cub control messages (batching efficiency)
	CtlBps           float64
	MaxViewEntries   int
	BlocksLost       int64
}

// runAblationLead sweeps min/maxVStateLead, showing the batching-versus-
// state-size trade-off of §4.1.1.
func runAblationLead(o tiger.Options, pairs [][2]time.Duration, hold time.Duration) ([]leadPoint, error) {
	out := make([]leadPoint, len(pairs))
	err := forEachPoint(len(pairs), func(i int) error {
		pr := pairs[i]
		oo := o
		oo.MinVStateLead = pr[0]
		oo.MaxVStateLead = pr[1]
		oo.ClientDropProb = 0
		c, err := tiger.New(oo)
		if err != nil {
			return err
		}
		if err := c.RampTo(c.Capacity() * 8 / 10); err != nil {
			return err
		}
		c.RunFor(15 * time.Second)
		w := snapshot(c)
		c.RunFor(hold)
		d := w.delta(c)
		wall, ns := d.at.Sub(w.at).Seconds(), d.net[0]
		_, lost, _ := c.ViewerTotals()
		out[i] = leadPoint{
			MinLead:        pr[0],
			MaxLead:        pr[1],
			CtlMsgsPerSec:  float64(ns.CtlMsgs) / wall,
			CtlBps:         float64(ns.CtlBytes) / wall,
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

// fragmentationPoint is one row of the network-schedule quantization
// ablation (A4; §3.2).
type fragmentationPoint struct {
	Quantum       time.Duration
	Admitted      int
	Utilization   float64
	Fragmentation float64 // free-but-unusable fraction at 2 Mbit/s
}

// runAblationFragmentation fills a network schedule with arrivals at
// either arbitrary (1 ms grid) or quantized start times and reports how
// many streams fit (§3.2: quantizing to blockPlay/decluster keeps
// fragmentation acceptable).
func runAblationFragmentation(cubs int, nicBps int64, quanta []time.Duration, seed int64) ([]fragmentationPoint, error) {
	out := make([]fragmentationPoint, len(quanta))
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
		out[pi] = fragmentationPoint{
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

func ablateFwd(o tiger.Options) error {
	header("Ablation A1: double vs single forwarding (§4.1.1)",
		"single forwarding halves control traffic but loses queued schedule info on failure")
	res, err := runAblationForwarding(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %16s\n", "variant", "blocks lost", "ctl bytes/s")
	fmt.Printf("%-10s %14d %16.0f\n", "double", res.DoubleLost, res.DoubleCtl)
	fmt.Printf("%-10s %14d %16.0f\n", "single", res.SingleLost, res.SingleCtl)
	fmt.Printf("(%d streams, %v after the failure)\n", res.Streams, res.RunDuration)
	return nil
}

func ablateDc(o tiger.Options) error {
	header("Ablation A2: decluster factor trade-off (§2.3)",
		"decluster 4: 1/5 bandwidth reserved, 8 vulnerable disks; decluster 2: 1/3 reserved, span 4")
	pts, err := runAblationDecluster(o, []int{2, 4, 8}, 20*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %10s %10s %7s %13s %7s\n",
		"dc", "capacity", "reserved", "span", "mirror duty%", "lost")
	for _, p := range pts {
		fmt.Printf("%4d %10d %9.1f%% %7d %13.1f %7d\n",
			p.Decluster, p.Capacity, p.ReservedFraction*100, p.VulnerableSpan,
			p.MirrorDiskLoad*100, p.BlocksLost)
	}
	return nil
}

func ablateLead(o tiger.Options) error {
	header("Ablation A3: viewer-state lead sweep (§4.1.1)",
		"typical minVStateLead=4s, maxVStateLead=9s; views bounded by the max lead")
	pairs := [][2]time.Duration{
		{time.Second, 2 * time.Second},
		{2 * time.Second, 5 * time.Second},
		{4 * time.Second, 9 * time.Second},
		{8 * time.Second, 18 * time.Second},
	}
	pts, err := runAblationLead(o, pairs, 20*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %8s %10s %12s %11s %6s\n",
		"min", "max", "msgs/s", "ctl KB/s", "view size", "lost")
	for _, p := range pts {
		fmt.Printf("%8v %8v %10.1f %12.2f %11d %6d\n",
			p.MinLead, p.MaxLead, p.CtlMsgsPerSec, p.CtlBps/1e3, p.MaxViewEntries, p.BlocksLost)
	}
	return nil
}

func ablateFrag() error {
	header("Ablation A4: network-schedule start quantization (§3.2)",
		"fragmentation acceptable when starts are multiples of blockPlay/decluster")
	quanta := []time.Duration{0, 125 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond}
	pts, err := runAblationFragmentation(14, 100_000_000, quanta, 7)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %10s %13s %15s\n", "quantum", "admitted", "utilization", "frag loss")
	for _, p := range pts {
		q := "arbitrary"
		if p.Quantum > 0 {
			q = p.Quantum.String()
		}
		fmt.Printf("%12s %10d %12.1f%% %14.1f%%\n",
			q, p.Admitted, p.Utilization*100, p.Fragmentation*100)
	}
	return nil
}
