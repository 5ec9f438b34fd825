package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tiger"
	"tiger/internal/disk"
)

// scaleCapacityPoint is one cluster size in the warehouse-scale sweep:
// measured capacity and loss at rated load, the Viennot-style resource
// bounds the rated capacity is compared against, and the simulator-cost
// budgets (ns/event, allocs/event, heap/cub) that pin the O(window)
// claim at that scale.
type scaleCapacityPoint struct {
	Cubs   int
	Disks  int
	Shards int // simulation shards used for this point (1 = serial)

	// Capacity versus the theoretical bounds. Rated is Tiger's planned
	// schedule capacity, which reserves disk bandwidth for declustered
	// mirror reads. BoundDisk is the same disks with no failover
	// reservation; BoundNet is the aggregate NIC bandwidth divided by
	// the stream rate. Bound = min(BoundDisk, BoundNet) is the
	// resource-capacity upper bound in the style of Viennot et al.:
	// no distribution scheme can serve more streams than the raw
	// bandwidth supports. CapacityFrac = Rated/Bound is the fraction of
	// that bound Tiger's mirrored schedule promises — the price of
	// single-fault tolerance.
	Rated        int
	BoundDisk    int
	BoundNet     int
	Bound        int
	CapacityFrac float64

	// Service quality over the measured hold at rated load.
	Achieved     int   // streams active at the end of the hold
	BlocksOK     int64 // on-time block deliveries during the hold
	BlocksLost   int64 // late or missing blocks during the hold
	ServerMisses int64 // server-side deadline misses during the hold

	// Simulator-cost budgets over the measured hold.
	Events          uint64  // simulation events executed
	NsPerEvent      float64 // wall nanoseconds per event
	AllocsPerEvent  float64 // heap allocations per event
	HeapBytesPerCub uint64  // live heap per cub after the hold (GC'd)
	MaxViewEntries  int     // largest per-cub view — the O(window) invariant
	WallSeconds     float64 // wall-clock time for settle+hold
}

// runScaleCapacity sweeps cluster sizes, running each at its full rated
// capacity and measuring loss and simulator cost over a hold window.
// Points run sequentially (one large cluster wants the whole machine;
// the parallelism is inside each point, via sharding). settle is run
// after the ramp before measurement begins; hold is the measured
// window.
func runScaleCapacity(o tiger.Options, cubCounts []int, settle, hold time.Duration) ([]scaleCapacityPoint, error) {
	pts := make([]scaleCapacityPoint, 0, len(cubCounts))
	for _, n := range cubCounts {
		p, err := runScalePoint(o, n, settle, hold)
		if err != nil {
			return pts, fmt.Errorf("scale point %d cubs: %w", n, err)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

func runScalePoint(o tiger.Options, cubs int, settle, hold time.Duration) (scaleCapacityPoint, error) {
	oo := faultOnly(o, cubs)
	disks := cubs * oo.DisksPerCub
	c, err := tiger.New(oo)
	if err != nil {
		return scaleCapacityPoint{}, err
	}
	p := scaleCapacityPoint{
		Cubs:   cubs,
		Disks:  disks,
		Shards: c.Shards(),
		Rated:  c.Capacity(),
	}
	// Resource bounds: the same hardware with no failover reservation.
	unmirrored := disk.PlanCapacity(oo.DiskParams, disks, oo.BlockSize, oo.BlockPlay, 0)
	p.BoundDisk = unmirrored.Streams
	p.BoundNet = int(float64(cubs) * oo.NetParams.NICRate * 8 / float64(oo.StreamBitrate))
	p.Bound = min(p.BoundDisk, p.BoundNet)
	if p.Bound > 0 {
		p.CapacityFrac = float64(p.Rated) / float64(p.Bound)
	}

	if err := c.RampTo(p.Rated); err != nil {
		return p, err
	}
	c.RunFor(settle)

	w := snapshot(c)
	ev0 := c.EventsProcessed()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := time.Now()

	c.RunFor(hold)

	wall := time.Since(w0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	d := w.delta(c)
	p.BlocksOK = d.ok
	p.BlocksLost = d.lost
	p.ServerMisses = d.cubs.ServerMisses
	p.Achieved = c.Active()
	p.Events = c.EventsProcessed() - ev0
	if p.Events > 0 {
		p.NsPerEvent = float64(wall.Nanoseconds()) / float64(p.Events)
		p.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(p.Events)
	}
	p.MaxViewEntries = c.MaxViewSize()
	p.WallSeconds = wall.Seconds()

	// Memory footprint: live heap per cub with garbage collected. The
	// whole process is attributed to the cubs — viewers, controller and
	// harness included — so this is a conservative per-node figure.
	runtime.GC()
	var mg runtime.MemStats
	runtime.ReadMemStats(&mg)
	p.HeapBytesPerCub = mg.HeapAlloc / uint64(cubs)
	// The cluster must stay reachable through the heap measurement, or
	// the GC above collects the very footprint being measured.
	runtime.KeepAlive(c)
	return p, nil
}

// scalability is the warehouse-scale sweep: each cluster size runs at
// its full rated capacity on a sharded simulation, and the table
// compares that rated capacity against the resource bounds (Viennot et
// al.: no scheme can beat raw disk or NIC bandwidth) while pinning the
// simulator's per-event cost and per-cub memory footprint.
func scalability(o tiger.Options) error {
	header("Warehouse scale: rated capacity vs resource bounds (Viennot et al.)",
		"capacity tracks d/(d+1) of the disk bound; ns/event and heap/cub stay flat to 1000 cubs")
	var cubCounts []int
	for _, s := range strings.Split(*scaleCubsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -scalecubs entry %q", s)
		}
		cubCounts = append(cubCounts, n)
	}
	pts, err := runScaleCapacity(o, cubCounts, *scaleSettle, *scaleHold)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %6s %7s %8s %9s %6s %9s %6s %7s %9s %9s %6s\n",
		"cubs", "disks", "shards", "rated", "bound", "frac", "streams", "lost", "misses",
		"ns/event", "allocs/ev", "KiB/cub")
	for _, p := range pts {
		fmt.Printf("%6d %6d %7d %8d %9d %6.3f %9d %6d %7d %9.1f %9.3f %6d\n",
			p.Cubs, p.Disks, p.Shards, p.Rated, p.Bound, p.CapacityFrac,
			p.Achieved, p.BlocksLost, p.ServerMisses,
			p.NsPerEvent, p.AllocsPerEvent, p.HeapBytesPerCub/1024)
	}
	last := pts[len(pts)-1]
	fmt.Printf("memory footprint at %d cubs: %d KiB live heap per cub, max view %d entries (O(window), not O(slots)=%d)\n",
		last.Cubs, last.HeapBytesPerCub/1024, last.MaxViewEntries, last.Rated)

	// The sweep is also the acceptance gate: rated load must be lossless,
	// and the per-event budgets (when set) must hold at every size.
	for _, p := range pts {
		if p.BlocksLost != 0 || p.ServerMisses != 0 {
			return fmt.Errorf("%d cubs: %d blocks lost, %d server misses at rated load",
				p.Cubs, p.BlocksLost, p.ServerMisses)
		}
		if *nsEvBudget > 0 && p.NsPerEvent > *nsEvBudget {
			return fmt.Errorf("%d cubs: %.1f ns/event exceeds budget %.1f", p.Cubs, p.NsPerEvent, *nsEvBudget)
		}
		if *allocsBudget > 0 && p.AllocsPerEvent > *allocsBudget {
			return fmt.Errorf("%d cubs: %.3f allocs/event exceeds budget %.3f", p.Cubs, p.AllocsPerEvent, *allocsBudget)
		}
	}

	return writeJSON("scale", pts)
}
