package tiger

import (
	"testing"
	"time"
)

func TestNewRejectsBadOptions(t *testing.T) {
	cases := map[string]func(*Options){
		"no cubs":        func(o *Options) { o.Cubs = 0 },
		"no disks":       func(o *Options) { o.DisksPerCub = 0 },
		"no size source": func(o *Options) { o.BlockSize = 0; o.StreamBitrate = 0 },
		"decluster":      func(o *Options) { o.Cubs = 2; o.DisksPerCub = 1; o.Decluster = 2 },
		"lead inversion": func(o *Options) { o.MinVStateLead = 10 * time.Second; o.MaxVStateLead = 5 * time.Second },
	}
	for name, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if _, err := New(o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBlockSizeDerivation(t *testing.T) {
	o := DefaultOptions()
	o.BlockSize = 0
	o.StreamBitrate = 4_000_000
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	// 4 Mbit/s for one second = 500 KB blocks.
	if c.Cfg.BlockSize != 500_000 {
		t.Fatalf("derived block size %d", c.Cfg.BlockSize)
	}
}

func TestBitrateDerivation(t *testing.T) {
	o := DefaultOptions()
	o.StreamBitrate = 0
	o.BlockSize = 125_000
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Opt.StreamBitrate != 1_000_000 {
		t.Fatalf("derived bitrate %d", c.Opt.StreamBitrate)
	}
}

func TestUnknownFileRejected(t *testing.T) {
	c, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Play(99, 0); err == nil {
		t.Fatal("unknown file accepted")
	}
}

func TestSamplerWindows(t *testing.T) {
	c, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(c)
	if err := c.RampTo(10); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)
	first := s.Sample()
	if first.Streams != 10 {
		t.Fatalf("streams %d", first.Streams)
	}
	if first.CubCPU <= 0 || first.DiskLoad <= 0 || first.CtlTrafficBps <= 0 {
		t.Fatalf("empty loads: %+v", first)
	}
	// A zero-length window returns zeros rather than dividing by zero.
	empty := s.Sample()
	if empty.CubCPU != 0 || empty.CtlTrafficBps != 0 {
		t.Fatalf("zero window produced loads: %+v", empty)
	}
	// Loads reflect only the new window, not cumulative history.
	c.StopAll()
	c.RunFor(30 * time.Second)
	s.Sample() // reset
	c.RunFor(10 * time.Second)
	idle := s.Sample()
	if idle.CubCPU > 0.01 || idle.DataRateBps > 1 {
		t.Fatalf("idle window shows load: %+v", idle)
	}
}

// TestSamplerSumIsDeterministic closes one window on many copies of a
// sampler: each copy must report the same bits. Summed over the disks in
// map order, the mean duty differs in its last digits between copies.
func TestSamplerSumIsDeterministic(t *testing.T) {
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(300); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	copies := make([]Sampler, 32)
	s := NewSampler(c)
	for i := range copies {
		copies[i] = *s
	}
	c.RunFor(10 * time.Second)
	want := copies[0].Sample()
	for i := range copies[1:] {
		if got := copies[1+i].Sample(); got != want {
			t.Fatalf("copy %d sampled %+v, copy 0 %+v", 1+i, got, want)
		}
	}
}

func TestViewerMachineGrouping(t *testing.T) {
	o := smallOptions()
	o.ViewersPerMachine = 3
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := c.PlayRandom(); err != nil {
			t.Fatal(err)
		}
	}
	// 7 viewers at 3 per machine -> 3 machines.
	if len(c.machines) != 3 {
		t.Fatalf("machines %d, want 3", len(c.machines))
	}
}

func TestNICHeadroomAtFullLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	// §5: "The FORE ATM network cards and system PCI busses are
	// sufficiently capable that the disks are the limiting factor."
	// Even the mirroring cub at full failed load must not overload its
	// modelled NIC.
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	c.FailCub(5)
	c.RunFor(5 * time.Second)
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	for i := 0; i < o.Cubs; i++ {
		st := c.Net.NodeStats(NodeID(i))
		if st.OverloadNs != 0 {
			t.Errorf("cub %d NIC overloaded for %v", i, time.Duration(st.OverloadNs))
		}
		if st.PeakRate > 16.5e6 {
			t.Errorf("cub %d peak send rate %.1f MB/s exceeds the OC-3 model", i, st.PeakRate/1e6)
		}
	}
}
