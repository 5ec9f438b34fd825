// Package metrics provides the measurement machinery for Tiger
// experiments that the protocol's counters do not: a list of exact
// samples for startup-latency distributions (Figure 10) and the loss log
// shared by every cub and viewer of a cluster.
package metrics

import (
	"sync"
	"time"

	"tiger/internal/sim"
)

// Summary is a list of exact latency-style samples, kept in arrival
// order.
type Summary struct {
	vals []float64
}

// Add appends a sample.
func (s *Summary) Add(v float64) { s.vals = append(s.vals, v) }

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
