// Package metrics provides the measurement machinery for Tiger
// experiments: a calibrated CPU-cost model (the simulator has no real
// CPUs, but Figures 8-9 plot CPU load), cumulative counters designed to
// be diffed over sampling windows, and an order-statistics summary for
// startup-latency distributions (Figure 10).
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"

	"tiger/internal/sim"
)

// CPUModel holds the per-operation CPU costs used to model node load.
// The defaults are calibrated to the paper's Pentium-133 cubs: most CPU
// time went to packetizing video data ("We believe that most of the CPU
// time was spent packetizing the video data"), so cost is dominated by a
// per-data-byte charge, sized so a cub sending 43 2 Mbit/s streams plus
// its mirroring share runs at just over 80% CPU (§5).
type CPUModel struct {
	PerDataByte time.Duration // packetization cost per payload byte sent
	PerCtlMsg   time.Duration // handling one control message
	PerDiskOp   time.Duration // issuing and completing one disk read
	PerStartReq time.Duration // controller-side handling of a start/stop
}

// DefaultCPUModel returns the Pentium-133 calibration.
func DefaultCPUModel() CPUModel {
	return CPUModel{
		PerDataByte: 62 * time.Nanosecond,
		PerCtlMsg:   100 * time.Microsecond,
		PerDiskOp:   500 * time.Microsecond,
		PerStartReq: 2 * time.Millisecond,
	}
}

// CPU accumulates modelled busy time for one machine.
type CPU struct {
	Model CPUModel
	busy  time.Duration
}

// ChargeData charges the packetization cost for n payload bytes.
func (c *CPU) ChargeData(n int64) {
	c.busy += time.Duration(n) * c.Model.PerDataByte
}

// ChargeCtlMsg charges handling of one control message.
func (c *CPU) ChargeCtlMsg() { c.busy += c.Model.PerCtlMsg }

// ChargeDiskOp charges one disk operation.
func (c *CPU) ChargeDiskOp() { c.busy += c.Model.PerDiskOp }

// ChargeStartReq charges one start/stop request (controller).
func (c *CPU) ChargeStartReq() { c.busy += c.Model.PerStartReq }

// Busy returns cumulative modelled busy time.
func (c *CPU) Busy() time.Duration { return c.busy }

// Load returns busy/wall for a window given two busy snapshots.
func Load(busyStart, busyEnd time.Duration, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	l := float64(busyEnd-busyStart) / float64(wall)
	if l > 1 {
		l = 1 // a real machine saturates at 100%
	}
	return l
}

// Summary is an order-statistics accumulator for latency-style samples.
type Summary struct {
	vals []float64
	// sortedVals caches an ordered copy for Quantile; the raw samples
	// are never reordered, so Values() and interleaved Add calls can
	// never observe a half-sorted slice.
	sortedVals []float64
}

// Add appends a sample.
func (s *Summary) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sortedVals = nil
}

// AddDuration appends a duration sample in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of samples.
func (s *Summary) Count() int { return len(s.vals) }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 {
	var m float64
	for i, v := range s.vals {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 {
	var m float64
	for i, v := range s.vals {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// Quantile returns the p-quantile (0 <= p <= 1) by nearest-rank.
func (s *Summary) Quantile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if s.sortedVals == nil {
		s.sortedVals = make([]float64, len(s.vals))
		copy(s.sortedVals, s.vals)
		sort.Float64s(s.sortedVals)
	}
	idx := int(math.Ceil(p*float64(len(s.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.sortedVals) {
		idx = len(s.sortedVals) - 1
	}
	return s.sortedVals[idx]
}

// CountAbove returns how many samples exceed v.
func (s *Summary) CountAbove(v float64) int {
	n := 0
	for _, x := range s.vals {
		if x > v {
			n++
		}
	}
	return n
}

// Values returns a copy of the raw samples.
func (s *Summary) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// LossLog records undelivered or late blocks, split by who noticed:
// server-side (the disk read missed its send deadline) versus
// client-side (the block never arrived or arrived late), matching the
// paper's two loss-reporting paths (§5).
//
// One log is shared by every cub and viewer in a cluster, so under a
// sharded simulation it is the one piece of state written from several
// shards at once. The recording operations are commutative (counter
// increments and min/max stamps), so a mutex keeps them exact without
// ordering them; readers sample between simulation windows.
type LossLog struct {
	mu           sync.Mutex
	ServerMissed int64 // server failed to place the block on the network
	ClientMissed int64 // client did not see an expected block in time
	FirstLoss    sim.Time
	LastLoss     sim.Time
	haveLoss     bool
}

// RecordServerMiss notes a block the server could not send on time.
func (l *LossLog) RecordServerMiss(at sim.Time) {
	l.mu.Lock()
	l.ServerMissed++
	l.stamp(at)
	l.mu.Unlock()
}

// RecordClientMiss notes a block a client never received in time.
func (l *LossLog) RecordClientMiss(at sim.Time) {
	l.mu.Lock()
	l.ClientMissed++
	l.stamp(at)
	l.mu.Unlock()
}

func (l *LossLog) stamp(at sim.Time) {
	if !l.haveLoss || at < l.FirstLoss {
		l.FirstLoss = at
	}
	if !l.haveLoss || at > l.LastLoss {
		l.LastLoss = at
	}
	l.haveLoss = true
}

// Total returns all lost blocks.
func (l *LossLog) Total() int64 { return l.ServerMissed + l.ClientMissed }

// LossSpan returns the time between the earliest and latest recorded
// loss — the paper's measure of reconfiguration time after a power cut
// ("about 8 seconds between the earliest and latest lost block").
func (l *LossLog) LossSpan() time.Duration {
	if !l.haveLoss {
		return 0
	}
	return l.LastLoss.Sub(l.FirstLoss)
}

// Rate returns losses as "1 in N" given the number of blocks attempted;
// it returns 0 when there were no losses.
func (l *LossLog) Rate(attempted int64) float64 {
	if l.Total() == 0 || attempted == 0 {
		return 0
	}
	return float64(attempted) / float64(l.Total())
}
