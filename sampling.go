package tiger

import (
	"slices"
	"time"

	"tiger/internal/clock"
	"tiger/internal/metrics"
	"tiger/internal/msg"
	"tiger/internal/sim"
)

func clockOf(c *Cluster) clock.Clock { return clock.Sim{Eng: c.Eng} }

// LoadSample is one measurement window's system load factors — the
// quantities plotted in Figures 8 and 9.
type LoadSample struct {
	At      sim.Time
	Streams int

	CubCPU  float64 // mean CPU load across live cubs
	CtrlCPU float64 // controller CPU load

	DiskLoad       float64 // mean disk duty cycle across live disks
	MirrorDiskLoad float64 // duty cycle of a mirroring cub's disks (failed mode)

	CtlTrafficBps  float64 // control bytes/s from the probe cub to all others
	DataRateBps    float64 // payload bytes/s from the probe cub
	MaxViewEntries int     // largest per-cub view (scalability invariant)
}

// snapshot captures the cumulative counters a Sampler diffs.
type snapshot struct {
	at       sim.Time
	cubBusy  []time.Duration
	ctrlBusy time.Duration
	diskBusy map[int]time.Duration
	ctlBytes map[msg.NodeID]int64
	dataByte map[msg.NodeID]int64
}

// Sampler converts pairs of snapshots into LoadSamples, like the paper's
// 50-second measurement windows.
type Sampler struct {
	c *Cluster
	// ProbeCub is the cub whose outbound control traffic is reported; in
	// failed-mode runs set it to a mirroring cub, as the paper did.
	ProbeCub int
	// MirrorCub identifies a cub covering for a failed peer whose disks'
	// duty cycle is reported as MirrorDiskLoad; -1 when unfailed.
	MirrorCub int

	last snapshot
}

// NewSampler creates a sampler and takes its first snapshot.
func NewSampler(c *Cluster) *Sampler {
	s := &Sampler{c: c, ProbeCub: 0, MirrorCub: -1}
	s.last = s.take()
	return s
}

func (s *Sampler) take() snapshot {
	c := s.c
	sn := snapshot{
		at:       c.Now(),
		diskBusy: make(map[int]time.Duration),
		ctlBytes: make(map[msg.NodeID]int64),
		dataByte: make(map[msg.NodeID]int64),
	}
	for _, cub := range c.Cubs {
		sn.cubBusy = append(sn.cubBusy, cub.CPUBusy())
		for id, d := range cub.Disks() {
			sn.diskBusy[id] = d.Stats().BusyTotal
		}
		ns := c.Net.NodeStats(cub.ID())
		sn.ctlBytes[cub.ID()] = ns.CtlBytes
		sn.dataByte[cub.ID()] = ns.DataBytes
	}
	sn.ctrlBusy = c.Controller.CPUBusy()
	return sn
}

// Sample closes the current window and returns its load factors.
func (s *Sampler) Sample() LoadSample {
	cur := s.take()
	prev := s.last
	s.last = cur
	c := s.c
	wall := cur.at.Sub(prev.at)
	out := LoadSample{At: cur.at, Streams: c.Active()}
	if wall <= 0 {
		return out
	}

	var cpuSum float64
	live := 0
	for i := range c.Cubs {
		if c.Net.Failed(msg.NodeID(i)) {
			continue
		}
		cpuSum += metrics.Load(prev.cubBusy[i], cur.cubBusy[i], wall)
		live++
	}
	if live > 0 {
		out.CubCPU = cpuSum / float64(live)
	}
	out.CtrlCPU = metrics.Load(prev.ctrlBusy, cur.ctrlBusy, wall)

	var diskSum float64
	diskN := 0
	mirrorDisks := map[int]bool{}
	if s.MirrorCub >= 0 {
		for _, d := range c.Cfg.Layout.DisksOfCub(msg.NodeID(s.MirrorCub)) {
			mirrorDisks[d] = true
		}
	}
	var mirrorSum float64
	mirrorN := 0
	// Sum in disk order: a float sum in map order differs in its last
	// digits from run to run.
	ids := make([]int, 0, len(cur.diskBusy))
	for id := range cur.diskBusy {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		cub := c.Cfg.Layout.CubOfDisk(id)
		if c.Net.Failed(cub) {
			continue
		}
		load := metrics.Load(prev.diskBusy[id], cur.diskBusy[id], wall)
		diskSum += load
		diskN++
		if mirrorDisks[id] {
			mirrorSum += load
			mirrorN++
		}
	}
	if diskN > 0 {
		out.DiskLoad = diskSum / float64(diskN)
	}
	if mirrorN > 0 {
		out.MirrorDiskLoad = mirrorSum / float64(mirrorN)
	}

	probe := msg.NodeID(s.ProbeCub)
	out.CtlTrafficBps = float64(cur.ctlBytes[probe]-prev.ctlBytes[probe]) / wall.Seconds()
	out.DataRateBps = float64(cur.dataByte[probe]-prev.dataByte[probe]) / wall.Seconds()
	out.MaxViewEntries = c.MaxViewSize()
	return out
}
