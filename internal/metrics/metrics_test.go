package metrics

import (
	"testing"
	"time"

	"tiger/internal/sim"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Mean() != 3 {
		t.Fatalf("stats: count=%d mean=%v", s.Count(), s.Mean())
	}
}

func TestSummaryDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("mean %v", s.Mean())
	}
}

func TestSummaryValuesCopy(t *testing.T) {
	var s Summary
	s.Add(1)
	v := s.Values()
	v[0] = 99
	if s.Mean() != 1 {
		t.Fatal("Values leaked the internal slice")
	}
}

func TestLossLog(t *testing.T) {
	var l LossLog
	if l.Total() != 0 || l.LossSpan() != 0 {
		t.Fatal("empty loss log not zero")
	}
	l.RecordServerMiss(sim.Time(5 * time.Second))
	l.RecordClientMiss(sim.Time(2 * time.Second))
	l.RecordServerMiss(sim.Time(9 * time.Second))
	if l.ServerMissed != 2 || l.ClientMissed != 1 || l.Total() != 3 {
		t.Fatalf("counts server=%d client=%d", l.ServerMissed, l.ClientMissed)
	}
	// §5's reconfiguration metric: earliest to latest lost block.
	if l.LossSpan() != 7*time.Second {
		t.Fatalf("span %v", l.LossSpan())
	}
}
