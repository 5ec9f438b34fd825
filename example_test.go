package tiger_test

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tiger"
)

// Example builds the paper's reference system (14 cubs x 4 disks, 2
// Mbit/s streams, 0.25 MB blocks, decluster 4), plays one stream, and
// stops it: the deschedule chases the viewer state around the ring until
// no cub's view holds it. The simulator is deterministic, so this
// example's output is exact.
func Example() {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0
	c, err := tiger.New(o)
	if err != nil {
		panic(err)
	}
	plan := c.CapacityPlan()
	fmt.Printf("capacity: %d streams (%.2f per disk), block service %v\n",
		plan.Streams, plan.StreamsPerDisk, plan.BlockService.Round(time.Microsecond))

	s, err := c.Play(0, 0)
	if err != nil {
		panic(err)
	}
	c.RunFor(30 * time.Second)
	st := s.Viewer.Stats()
	fmt.Printf("delivered %d blocks, lost %d\n", st.BlocksOK, st.BlocksLost)
	fmt.Printf("startup latency: %v\n", time.Duration(c.StartupLatency.Mean()*float64(time.Second)).Round(time.Millisecond))

	s.Stop()
	c.RunFor(15 * time.Second)
	drained := true
	for _, cub := range c.Cubs {
		drained = drained && cub.ViewSize() == 0
	}
	fmt.Printf("views drained: %v\n", drained)
	// Output:
	// capacity: 602 streams (10.75 per disk), block service 93.023ms
	// delivered 28 blocks, lost 0
	// startup latency: 1.698s
	// views drained: true
}

// ExampleCluster_FailCub is the paper's power-cut experiment (§5) at
// half load: the deadman declares the cub dead, its successors serve
// every stream from declustered mirrors, and loss is confined to one
// window. The cub is then revived, and a second cub crashes and
// cold-restarts: it rejoins at a new epoch and takes its mirror load
// back.
func ExampleCluster_FailCub() {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0
	c, err := tiger.New(o)
	if err != nil {
		panic(err)
	}
	if err := c.RampTo(c.Capacity() / 2); err != nil {
		panic(err)
	}
	c.RunFor(30 * time.Second)
	_, lost, _ := c.ViewerTotals()
	fmt.Printf("half load: %d streams, lost %d\n", c.Active(), lost)

	c.FailCub(5)
	c.RunFor(10 * time.Second)
	_, lostInWindow, _ := c.ViewerTotals()
	c.RunFor(50 * time.Second)
	_, lost, mirrored := c.ViewerTotals()
	fmt.Printf("power cut: %d streams, loss window under 8s %v, lost after it %d, mirror blocks %v, slot conflicts %d\n",
		c.Active(), c.Loss.LossSpan() < 8*time.Second, lost-lostInWindow, mirrored > 0, c.InvariantViolations())

	sent := c.Cubs[5].Stats().BlocksSent
	c.ReviveCub(5)
	c.RunFor(30 * time.Second)
	fmt.Printf("revived cub serves: %v\n", c.Cubs[5].Stats().BlocksSent > sent)

	c.CrashCub(8)
	c.RunFor(20 * time.Second)
	fmt.Printf("crash: mirror load covers the cub %v\n", c.MirrorLoadFor(8) > 0)
	c.RestartCub(8)
	c.RunFor(20 * time.Second)
	cs := c.TotalCubStats()
	fmt.Printf("restart: rejoins %d, states transferred %v, mirrors retired %v, residual mirror load %d, slot conflicts %d\n",
		cs.Rejoins, cs.ViewTransferred > 0, cs.MirrorsRetired > 0, c.MirrorLoadFor(8), c.InvariantViolations())
	// Output:
	// half load: 301 streams, lost 0
	// power cut: 301 streams, loss window under 8s true, lost after it 0, mirror blocks true, slot conflicts 0
	// revived cub serves: true
	// crash: mirror load covers the cub true
	// restart: rejoins 1, states transferred true, mirrors retired true, residual mirror load 0, slot conflicts 0
}

// Example_admission is a video-on-demand service capped at 90 % load,
// the most the paper recommends: Poisson arrivals pick titles by a Zipf
// popularity and leave after exponential watch times. Admission refuses
// the starts past the cap, nothing is lost, and striping spreads even
// the most popular titles evenly over every disk.
func Example_admission() {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0
	o.AdmitLimit = 0.9
	c, err := tiger.New(o)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(99))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(o.NumFiles-1))

	rejected, peak := 0, 0.0
	var live []*tiger.Stream
	for tick := 0; tick < 300; tick++ {
		// Poisson arrivals, four a second.
		for p := rng.Float64(); p > math.Exp(-4); p *= rng.Float64() {
			s, err := c.Play(tiger.FileID(zipf.Uint64()), 0)
			if err != nil {
				rejected++
				continue
			}
			live = append(live, s)
		}
		// Departures: a four-minute mean watch time.
		keep := live[:0]
		for _, s := range live {
			if s.Done() {
				continue
			}
			if rng.Float64() < 1.0/240 {
				s.Stop()
				continue
			}
			keep = append(keep, s)
		}
		live = keep
		c.RunFor(time.Second)
		peak = math.Max(peak, c.Load())
	}
	_, lost, _ := c.ViewerTotals()
	fmt.Printf("peak load within 90%%: %v, rejected %v, lost %d, slot conflicts %d\n",
		peak <= 0.9, rejected > 0, lost, c.InvariantViolations())
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for _, cub := range c.Cubs {
		for _, d := range cub.Disks() {
			lo, hi = min(lo, d.Stats().BusyTotal), max(hi, d.Stats().BusyTotal)
		}
	}
	fmt.Printf("busiest disk over idlest: %.2f\n", float64(hi)/float64(lo))
	// Output:
	// peak load within 90%: true, rejected true, lost 0, slot conflicts 0
	// busiest disk over idlest: 1.15
}
