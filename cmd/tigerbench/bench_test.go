package main

import (
	"testing"
	"time"
)

// One benchmark per table/figure of the paper's evaluation (see
// DESIGN.md's experiment index). Each iteration performs a scaled-down
// version of the experiment in virtual time and reports the figure's
// headline quantities as custom metrics; tigerbench runs the full-scale
// versions and prints the complete tables.

func benchRamp() rampSpec {
	return rampSpec{Step: 150, Settle: 8 * time.Second}
}

// BenchmarkFigure8 regenerates Figure 8 (loads versus streams, no
// failures).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runLoadCurve(quickOptions(), -1, benchRamp())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Samples[len(res.Samples)-1]
		b.ReportMetric(float64(last.Streams), "streams")
		b.ReportMetric(last.CubCPU*100, "cubCPU%")
		b.ReportMetric(last.CtrlCPU*100, "ctrlCPU%")
		b.ReportMetric(last.DiskLoad*100, "disk%")
		b.ReportMetric(last.CtlTrafficBps/1e3, "ctlKB/s")
	}
}

// BenchmarkFigure9 regenerates Figure 9 (one cub failed for the run).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runLoadCurve(quickOptions(), 5, benchRamp())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Samples[len(res.Samples)-1]
		b.ReportMetric(float64(last.Streams), "streams")
		b.ReportMetric(last.MirrorDiskLoad*100, "mirrorDisk%")
		b.ReportMetric(last.CtlTrafficBps/1e3, "ctlKB/s")
		b.ReportMetric(last.DataRateBps/1e6, "sendMB/s")
	}
}

// BenchmarkFigure10 regenerates Figure 10 (startup latency versus load).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runFigure10(quickOptions(), benchRamp())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Floor.Seconds(), "floor_s")
		b.ReportMetric(res.MeanAt95.Seconds(), "meanHi_s")
		b.ReportMetric(float64(len(res.Points)), "starts")
	}
}

// BenchmarkLossRates regenerates the in-text loss-rate table (T1).
func BenchmarkLossRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := runLossRates(quickOptions(), 60*time.Second, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rs[0].BlocksLost), "lost_unfailed")
		b.ReportMetric(float64(rs[1].BlocksLost), "lost_failed")
		b.ReportMetric(float64(rs[1].BlocksOK), "blocks_failed")
	}
}

// BenchmarkReconfig regenerates the power-cut reconfiguration
// measurement (T2).
func BenchmarkReconfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runReconfig(quickOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LossSpan.Seconds(), "lossSpan_s")
		b.ReportMetric(float64(res.LostBlocks), "lostBlocks")
	}
}

// BenchmarkScalability regenerates the §3.3 centralized-versus-
// distributed control traffic comparison (T3).
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := runScalability(quickOptions(), []int{7, 14, 28}, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		big := pts[len(pts)-1]
		b.ReportMetric(big.PerCubCtlBps/1e3, "perCubKB/s")
		b.ReportMetric(big.CentralizedBps/1e3, "centralKB/s")
		b.ReportMetric(float64(big.MaxViewEntries), "viewEntries")
	}
}

// BenchmarkScaleCapacity runs one scaled-down warehouse-scale point —
// 100 cubs at rated load on a sharded engine — and reports the
// simulator-cost budgets the full sweep pins at 1000 cubs: wall ns and
// heap allocations per simulation event, live heap per cub, and the
// view size that certifies O(window) bookkeeping.
func BenchmarkScaleCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := runScaleCapacity(quickOptions(), []int{100}, 5*time.Second, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		p := pts[0]
		if p.BlocksLost != 0 || p.ServerMisses != 0 {
			b.Fatalf("lost %d blocks, %d server misses at rated load", p.BlocksLost, p.ServerMisses)
		}
		b.ReportMetric(p.NsPerEvent, "ns/event")
		b.ReportMetric(p.AllocsPerEvent, "allocs/event")
		b.ReportMetric(float64(p.HeapBytesPerCub)/1024, "KiB/cub")
		b.ReportMetric(float64(p.MaxViewEntries), "viewEntries")
	}
}

// BenchmarkAblationForwarding regenerates ablation A1 (double versus
// single forwarding).
func BenchmarkAblationForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runAblationForwarding(quickOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DoubleLost), "lost_double")
		b.ReportMetric(float64(res.SingleLost), "lost_single")
	}
}

// BenchmarkAblationDecluster regenerates ablation A2 (decluster factor
// trade-off).
func BenchmarkAblationDecluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := runAblationDecluster(quickOptions(), []int{2, 4, 8}, 15*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].Capacity), "cap_dc2")
		b.ReportMetric(float64(pts[1].Capacity), "cap_dc4")
		b.ReportMetric(float64(pts[2].Capacity), "cap_dc8")
	}
}

// BenchmarkAblationLead regenerates ablation A3 (viewer-state lead
// sweep).
func BenchmarkAblationLead(b *testing.B) {
	pairs := [][2]time.Duration{
		{time.Second, 2 * time.Second},
		{4 * time.Second, 9 * time.Second},
		{8 * time.Second, 18 * time.Second},
	}
	for i := 0; i < b.N; i++ {
		pts, err := runAblationLead(quickOptions(), pairs, 15*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].MaxViewEntries), "view_1s2s")
		b.ReportMetric(float64(pts[2].MaxViewEntries), "view_8s18s")
	}
}

// BenchmarkAblationFragmentation regenerates ablation A4 (start-time
// quantization versus fragmentation, §3.2).
func BenchmarkAblationFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := runAblationFragmentation(14, 100_000_000,
			[]time.Duration{0, 250 * time.Millisecond}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].Admitted), "admit_1ms")
		b.ReportMetric(float64(pts[1].Admitted), "admit_bp/4")
	}
}
