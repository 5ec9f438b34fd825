package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tiger/internal/sim"
)

func TestCPUCharges(t *testing.T) {
	c := CPU{Model: CPUModel{
		PerDataByte: 10 * time.Nanosecond,
		PerCtlMsg:   time.Microsecond,
		PerDiskOp:   time.Millisecond,
		PerStartReq: time.Second,
	}}
	c.ChargeData(100)
	c.ChargeCtlMsg()
	c.ChargeDiskOp()
	c.ChargeStartReq()
	want := 1000*time.Nanosecond + time.Microsecond + time.Millisecond + time.Second
	if c.Busy() != want {
		t.Fatalf("busy %v, want %v", c.Busy(), want)
	}
}

func TestCPUCalibration(t *testing.T) {
	// §5: a cub sending 43 primary streams plus its mirroring share
	// (13.4 MB/s total) ran at just over 80% CPU and never above 85%.
	m := DefaultCPUModel()
	var c CPU
	c.Model = m
	c.ChargeData(13_400_000) // one second of failed-mode sending
	load := Load(0, c.Busy(), time.Second)
	if load < 0.75 || load > 0.88 {
		t.Fatalf("failed-mode packetization load %.2f, want ~0.83", load)
	}
}

func TestLoadClamps(t *testing.T) {
	if l := Load(0, 2*time.Second, time.Second); l != 1 {
		t.Fatalf("load %v, want clamp to 1", l)
	}
	if l := Load(0, time.Second, 0); l != 0 {
		t.Fatalf("zero window load %v", l)
	}
	if l := Load(time.Second, 3*time.Second, 4*time.Second); l != 0.5 {
		t.Fatalf("load %v, want 0.5", l)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Mean() != 3 || s.Max() != 5 || s.Min() != 1 {
		t.Fatalf("stats: count=%d mean=%v max=%v min=%v", s.Count(), s.Mean(), s.Max(), s.Min())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("p100 %v", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("p0 %v", q)
	}
	if n := s.CountAbove(3.5); n != 2 {
		t.Fatalf("above 3.5: %d", n)
	}
}

func TestSummaryAddAfterQuantile(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort lazily
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("p0 after re-add %v", q)
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

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(vals []float64, pRaw uint8) bool {
		var s Summary
		ok := true
		for _, v := range vals {
			if math.IsNaN(v) {
				ok = false
			}
			s.Add(v)
		}
		if !ok || len(vals) == 0 {
			return true
		}
		p := float64(pRaw) / 255
		q := s.Quantile(p)
		sorted := append([]float64{}, vals...)
		sort.Float64s(sorted)
		return q >= sorted[0] && q <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestLossLog(t *testing.T) {
	var l LossLog
	if l.Total() != 0 || l.LossSpan() != 0 || l.Rate(100) != 0 {
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
	if r := l.Rate(300); r != 100 {
		t.Fatalf("rate %v, want 1 in 100", r)
	}
}

func TestQuantileDoesNotReorderValues(t *testing.T) {
	// Regression: Quantile used to sort the sample slice in place, so
	// Values() (or anything diffing the raw samples) interleaved with
	// Quantile calls could observe a reordered — or mid-sort — slice.
	var s Summary
	in := []float64{5, 1, 4, 2, 3}
	for _, v := range in {
		s.Add(v)
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	got := s.Values()
	for i, v := range in {
		if got[i] != v {
			t.Fatalf("Quantile reordered samples: got %v, want %v", got, in)
		}
	}
	// Interleaved Add invalidates the cached order.
	s.Add(0)
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 after interleaved Add = %v, want 0", q)
	}
	if got := s.Values(); got[len(got)-1] != 0 {
		t.Fatalf("insertion order lost: %v", got)
	}
}

func TestLoadClampsExactlyAtOne(t *testing.T) {
	// busy == wall is 100% exactly; a hair over must clamp back to 1.0.
	if l := Load(0, time.Second, time.Second); l != 1 {
		t.Fatalf("load %v, want exactly 1", l)
	}
	if l := Load(0, time.Second+time.Nanosecond, time.Second); l != 1 {
		t.Fatalf("load %v, want clamp to 1", l)
	}
	if l := Load(0, time.Second-time.Nanosecond, time.Second); l >= 1 {
		t.Fatalf("load %v, want < 1", l)
	}
}
