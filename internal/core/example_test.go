package core_test

import (
	"fmt"
	"math/rand"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsched"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// ExampleMBRCub is the multiple-bitrate Tiger's network schedule (§3.2,
// §4.2): entries one block play long and as tall as their bitrate, each
// inserted by a two-phase reservation with the successor cub. A mix of
// audio, SD and HD streams arrives at random cubs of six with 20 Mbit/s
// NICs; the ones no view has room for are refused, and no cub's view
// ever exceeds its NIC.
func ExampleMBRCub() {
	const cubs = 6
	eng := sim.New(7)
	clk := clock.Sim{Eng: eng}
	net := netsim.New(netsim.DefaultParams(), clk, eng.Rand())
	cfg := core.DefaultMBRConfig(cubs)
	cfg.NICBps = 20_000_000

	var nodes []*core.MBRCub
	for i := 0; i < cubs; i++ {
		d := disk.New(i, cfg.DiskParams, clk, rand.New(rand.NewSource(int64(i))))
		n, err := core.NewMBRCub(msg.NodeID(i), cfg, clk, net, d)
		if err != nil {
			panic(err)
		}
		// A stand-in for viewer-state propagation: commits reach all views.
		n.OnCommit = func(e netsched.Entry) {
			for _, other := range nodes {
				if other != n {
					other.CommitRemote(e)
				}
			}
		}
		net.Register(msg.NodeID(i), n)
		nodes = append(nodes, n)
	}

	rates := []int64{384_000, 1_500_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000}
	rng := rand.New(rand.NewSource(42))
	accepted, rejected := 0, 0
	for inst := msg.InstanceID(1); inst <= 40; inst++ {
		br := rates[rng.Intn(len(rates))]
		if nodes[rng.Intn(cubs)].StartPlay(msg.ViewerID(inst), inst, br) {
			accepted++
		} else {
			rejected++
		}
		eng.RunFor(300 * time.Millisecond)
	}
	eng.RunFor(3 * time.Second)

	var commits, remoteRejects, timeouts int64
	fits := true
	for _, n := range nodes {
		st := n.Stats()
		commits, remoteRejects, timeouts = commits+st.Inserts, remoteRejects+st.RemoteRejects, timeouts+st.Timeouts
		s := n.Schedule()
		for off := time.Duration(0); off < s.Cycle(); off += 50 * time.Millisecond {
			fits = fits && s.OccupancyAt(off) <= s.Capacity()
		}
	}
	fmt.Printf("accepted %d, rejected %d\n", accepted, rejected)
	fmt.Printf("commits %d, remote rejects %d, timeouts %d\n", commits, remoteRejects, timeouts)
	fmt.Printf("every view within its NIC at every instant: %v\n", fits)
	// Output:
	// accepted 32, rejected 8
	// commits 32, remote rejects 0, timeouts 0
	// every view within its NIC at every instant: true
}
