package main

import (
	"testing"
	"time"
)

func TestRunAblationForwardingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runAblationForwarding(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lost: double=%d single=%d; ctl B/s: double=%.0f single=%.0f",
		res.DoubleLost, res.SingleLost, res.DoubleCtl, res.SingleCtl)
	if res.SingleLost <= res.DoubleLost {
		t.Errorf("single forwarding should lose more blocks on failure")
	}
	if res.SingleCtl >= res.DoubleCtl {
		t.Errorf("single forwarding should send less control traffic")
	}
}

func TestRunAblationDeclusterQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	pts, err := runAblationDecluster(quickOptions(), []int{2, 4, 8}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("dc=%d capacity=%d reserve=%.2f span=%d mirrorDuty=%.2f lost=%d",
			p.Decluster, p.Capacity, p.ReservedFraction, p.VulnerableSpan, p.MirrorDiskLoad, p.BlocksLost)
	}
	// §2.3's trade-off: capacity rises and reserve falls with the
	// decluster factor, at the cost of a wider vulnerability span.
	if !(pts[0].Capacity < pts[1].Capacity && pts[1].Capacity < pts[2].Capacity) {
		t.Error("capacity not increasing with decluster factor")
	}
	if !(pts[0].ReservedFraction > pts[1].ReservedFraction) {
		t.Error("reserve not decreasing")
	}
	if !(pts[0].VulnerableSpan < pts[2].VulnerableSpan) {
		t.Error("vulnerability span not widening")
	}
}

func TestRunAblationLeadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	pairs := [][2]time.Duration{
		{1 * time.Second, 2 * time.Second},
		{4 * time.Second, 9 * time.Second},
		{8 * time.Second, 18 * time.Second},
	}
	pts, err := runAblationLead(quickOptions(), pairs, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("lead %v..%v: %.0f msgs/s %.1f KB/s view=%d lost=%d",
			p.MinLead, p.MaxLead, p.CtlMsgsPerSec, p.CtlBps/1e3, p.MaxViewEntries, p.BlocksLost)
	}
	// A wider lead gap lets cubs batch more states per message.
	if pts[2].CtlMsgsPerSec > pts[0].CtlMsgsPerSec {
		t.Error("wider lead gap should not need more messages")
	}
	// A longer max lead holds more entries per view.
	if pts[2].MaxViewEntries <= pts[0].MaxViewEntries {
		t.Error("view size should grow with the max lead")
	}
}

func TestRunAblationFragmentationQuick(t *testing.T) {
	pts, err := runAblationFragmentation(14, 100_000_000,
		[]time.Duration{0, 250 * time.Millisecond}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("quantum=%v admitted=%d util=%.2f frag=%.2f",
			p.Quantum, p.Admitted, p.Utilization, p.Fragmentation)
	}
	if pts[1].Admitted < pts[0].Admitted {
		t.Errorf("quantized starts admitted fewer streams: %d vs %d",
			pts[1].Admitted, pts[0].Admitted)
	}
}
