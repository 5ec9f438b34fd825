// Failover: run the paper's power-cut experiment interactively. Load the
// system to half capacity, cut power to a cub, and watch the deadman
// protocol, double-forwarded viewer states, and declustered mirrors keep
// the streams alive.
package main

import (
	"fmt"
	"log"
	"time"

	"tiger"
)

func main() {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0 // isolate server-side behaviour
	c, err := tiger.New(o)
	if err != nil {
		log.Fatal(err)
	}

	target := c.Capacity() / 2
	fmt.Printf("ramping to %d of %d streams...\n", target, c.Capacity())
	if err := c.RampTo(target); err != nil {
		log.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	ok0, lost0, _ := c.ViewerTotals()
	fmt.Printf("steady state: %d active streams, %d blocks delivered, %d lost\n",
		c.Active(), ok0, lost0)

	// Power cut. The cub stops sending and receiving mid-schedule; its
	// neighbours notice via the deadman protocol and its successor
	// starts generating mirror viewer states.
	fmt.Printf("\n*** cutting power to cub 5 at t=%v ***\n\n", c.Now())
	c.FailCub(5)

	sampler := tiger.NewSampler(c)
	sampler.ProbeCub = 6 // the mirroring cub, as the paper measured
	sampler.MirrorCub = 6
	for i := 0; i < 6; i++ {
		c.RunFor(10 * time.Second)
		s := sampler.Sample()
		ok, lost, mirror := c.ViewerTotals()
		fmt.Printf("t=%-6v streams=%d mirrorDisk=%4.0f%% ctl=%5.1fKB/s ok=%d lost=%d mirrored=%d\n",
			c.Now(), c.Active(), s.MirrorDiskLoad*100, s.CtlTrafficBps/1e3, ok, lost, mirror)
	}

	_, lost, mirror := c.ViewerTotals()
	fmt.Printf("\nloss window: %v between earliest and latest lost block (paper: ~8 s)\n",
		c.Loss.LossSpan().Round(time.Millisecond))
	fmt.Printf("blocks lost to the failure: %d; blocks served from mirrors since: %d\n",
		lost, mirror)

	cs := c.TotalCubStats()
	fmt.Printf("protocol: %d mirror chains created, %d deadman declarations, %d slot conflicts\n",
		cs.MirrorsMade, cs.DeadDeclared, c.InvariantViolations())

	// Bring the cub back: it rebuilds its view from the gossip within a
	// few lead times and resumes serving primaries.
	fmt.Printf("\n*** restoring cub 5 ***\n")
	before := c.Cubs[5].Stats().BlocksSent
	c.ReviveCub(5)
	c.RunFor(30 * time.Second)
	fmt.Printf("cub 5 served %d blocks since revival\n", c.Cubs[5].Stats().BlocksSent-before)

	// The harsher variant: a machine crash. The cub loses its memory and
	// its in-flight messages, so reviving is not enough — it cold-restarts
	// with a new liveness epoch, rejoins the ring, and takes its mirror
	// load back.
	fmt.Printf("\n*** crashing cub 8 at t=%v ***\n", c.Now())
	c.CrashCub(8)
	c.RunFor(20 * time.Second)
	fmt.Printf("mirror load covering cub 8 while down: %d schedule entries\n", c.MirrorLoadFor(8))

	fmt.Printf("*** cold-restarting cub 8 ***\n")
	c.RestartCub(8)
	c.RunFor(10 * time.Second)
	cs = c.TotalCubStats()
	fmt.Printf("rejoins=%d statesTransferred=%d mirrorsRetired=%d staleEpochDrops=%d\n",
		cs.Rejoins, cs.ViewTransferred, cs.MirrorsRetired, cs.StaleEpochDrops)
	fmt.Printf("residual mirror load for cub 8: %d; reintegration took %v\n",
		c.MirrorLoadFor(8), time.Duration(c.Cubs[8].RecoveryTimes().Mean()*float64(time.Second)).Round(time.Millisecond))
}
