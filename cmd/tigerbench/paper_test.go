package main

import (
	"testing"
	"time"

	"tiger"
)

// quickOptions is the paper configuration with client drops disabled for
// deterministic assertions.
func quickOptions() tiger.Options {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0
	return o
}

func TestRunFigure8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runLoadCurve(quickOptions(), -1, quickRamp())
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity != 602 {
		t.Fatalf("capacity %d", res.Capacity)
	}
	if res.Violations != 0 || res.CubStats.Conflicts != 0 {
		t.Fatalf("protocol anomalies: %d violations, %+v", res.Violations, res.CubStats)
	}
	last := res.Samples[len(res.Samples)-1]
	first := res.Samples[0]
	t.Logf("first: %d streams cpu=%.2f disk=%.2f ctl=%.1fKB/s", first.Streams, first.CubCPU, first.DiskLoad, first.CtlTrafficBps/1e3)
	t.Logf("last:  %d streams cpu=%.2f disk=%.2f ctl=%.1fKB/s ctrl=%.3f", last.Streams, last.CubCPU, last.DiskLoad, last.CtlTrafficBps/1e3, last.CtrlCPU)

	// Figure 8's shape: cub CPU grows roughly linearly with streams...
	if last.CubCPU < 0.55 || last.CubCPU > 0.90 {
		t.Errorf("full-load cub CPU %.2f outside the paper's ballpark", last.CubCPU)
	}
	ratio := (last.CubCPU / float64(last.Streams)) / (first.CubCPU / float64(first.Streams))
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("cub CPU not linear in streams: per-stream ratio %.2f", ratio)
	}
	// ...while the controller's load does not depend on system load.
	if last.CtrlCPU > 0.05 {
		t.Errorf("controller CPU %.3f grew with load", last.CtrlCPU)
	}
	// Control traffic stays in the paper's KB/s regime.
	if last.CtlTrafficBps > 21_000 {
		t.Errorf("control traffic %.0f B/s exceeds the paper's 21 KB/s max", last.CtlTrafficBps)
	}
}

func TestRunFigure9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runLoadCurve(quickOptions(), 5, quickRamp())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1]
	t.Logf("failed-mode last: %d streams cpu=%.2f mirrorDisk=%.2f ctl=%.1fKB/s data=%.1fMB/s",
		last.Streams, last.CubCPU, last.MirrorDiskLoad, last.CtlTrafficBps/1e3, last.DataRateBps/1e6)
	// The paper's headline failed-mode numbers: mirroring disks >90%
	// duty, mirroring cub sending >13.4 MB/s, control <= 21 KB/s.
	if last.MirrorDiskLoad < 0.88 {
		t.Errorf("mirror disk duty %.2f, paper saw >0.95", last.MirrorDiskLoad)
	}
	if last.DataRateBps < 12.5e6 {
		t.Errorf("mirroring cub sends %.1f MB/s, paper saw 13.4", last.DataRateBps/1e6)
	}
	if last.CtlTrafficBps > 21_000 {
		t.Errorf("control traffic %.0f B/s exceeds 21 KB/s", last.CtlTrafficBps)
	}
	if res.MirrorBlocks == 0 {
		t.Error("no mirror-served blocks in failed mode")
	}
	if res.Violations != 0 {
		t.Errorf("slot conflicts: %d", res.Violations)
	}
}

func TestRunFigure10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	o := quickOptions()
	ramp := quickRamp()
	ramp.Step = 60 // finer steps give more high-load start samples
	res, err := runFigure10(o, ramp)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("starts=%d floor=%v meanAt90-97=%v over20s=%d",
		len(res.Points), res.Floor, res.MeanAt95, res.Over20s)
	// The paper: ~1.8 s floor below 50% load; mean under 5 s at 95%.
	if res.Floor < 1500*time.Millisecond || res.Floor > 2300*time.Millisecond {
		t.Errorf("startup floor %v, paper saw ~1.8 s", res.Floor)
	}
	if res.MeanAt95 > 12*time.Second {
		t.Errorf("mean startup at high load %v, paper saw <5 s", res.MeanAt95)
	}
	if res.MeanAt95 < res.Floor {
		t.Errorf("high-load startup %v below the floor %v", res.MeanAt95, res.Floor)
	}
}

func TestRunReconfigQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runReconfig(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("streams=%d lost=%d span=%v mirrors=%d", res.Streams, res.LostBlocks, res.LossSpan, res.MirrorCatch)
	// The paper measured ~8 s between earliest and latest lost block.
	if res.LostBlocks == 0 {
		t.Error("power cut lost nothing; detection latency should cost some blocks")
	}
	if res.LossSpan > 15*time.Second {
		t.Errorf("loss span %v, paper saw ~8 s", res.LossSpan)
	}
	if res.MirrorCatch == 0 {
		t.Error("no mirror catches after reconfiguration")
	}
}

func TestRunScalabilityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	o := quickOptions()
	pts, err := runScalability(o, []int{7, 14, 28}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("cubs=%d streams=%d perCub=%.1fKB/s central=%.1fKB/s view=%d ctrl=%.4f",
			p.Cubs, p.Streams, p.PerCubCtlBps/1e3, p.CentralizedBps/1e3, p.MaxViewEntries, p.ControllerLoad)
	}
	// §3.3's argument: centralized traffic grows with system size while
	// per-cub distributed traffic stays flat.
	if pts[2].CentralizedBps < 3.5*pts[0].CentralizedBps {
		t.Errorf("centralized traffic did not scale with size")
	}
	if pts[2].PerCubCtlBps > 2*pts[0].PerCubCtlBps {
		t.Errorf("per-cub control traffic grew with system size: %.0f -> %.0f",
			pts[0].PerCubCtlBps, pts[2].PerCubCtlBps)
	}
	// Views stay bounded regardless of size.
	if pts[2].MaxViewEntries > 3*pts[0].MaxViewEntries {
		t.Errorf("view size grew with system size")
	}
}

func TestRunFlashCrowdQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	o := quickOptions()
	res, err := runFlashCrowd(o, 150, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("admitted %d/%d over %v..%v (%.1f starts/s); disks mean=%.2f max=%.2f; lost=%d",
		res.Admitted, res.Viewers, res.FirstStart.Round(time.Millisecond),
		res.LastStart.Round(time.Millisecond), res.AdmitRate,
		res.MeanDiskDuty, res.MaxDiskDuty, res.BlocksLost)
	if res.Admitted != res.Viewers {
		t.Errorf("only %d of %d admitted", res.Admitted, res.Viewers)
	}
	// Equitemporal spacing: starts trickle out at roughly the rate one
	// disk's slot windows pass (~10.75/s), because every request funnels
	// through the disk holding the file's first block (§2.2: "Tiger will
	// delay starting streams in order to enforce equitemporal spacing").
	if res.AdmitRate > 12 {
		t.Errorf("admit rate %.1f/s exceeds one disk's slot-window rate (~10.75/s)", res.AdmitRate)
	}
	if res.LastStart < 10*time.Second {
		t.Errorf("spacing delay only %v for 150 viewers on one title", res.LastStart)
	}
	// No overload: the crowd travels the ring as a wave, but no disk is
	// ever asked for more than its per-slot capacity.
	if res.MaxDiskDuty > 0.75 {
		t.Errorf("disk overload: max duty %.2f", res.MaxDiskDuty)
	}
	if res.BlocksLost > 0 {
		t.Errorf("flash crowd lost %d blocks", res.BlocksLost)
	}
}

// TestRunFlashCrowdHundred is the §2.2 scenario at a hundred viewers:
// every one asks for the same title, and Tiger spaces the starts to keep
// the schedule conflict-free without losing a block.
func TestRunFlashCrowdHundred(t *testing.T) {
	res, err := runFlashCrowd(quickOptions(), 100, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != res.Viewers || res.LastStart <= 5*time.Second || res.BlocksLost != 0 {
		t.Fatalf("admitted %d of %d, last start %v, %d blocks lost; want all, past 5s, none",
			res.Admitted, res.Viewers, res.LastStart, res.BlocksLost)
	}
}

func TestRunRecoveryQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runRecovery(quickOptions(), 120, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recovery: mirrorLoad=%d drain=%v rejoin=%v transferred=%d retired=%d",
		res.MirrorLoadAtRestart, res.DrainTime, res.RejoinTime,
		res.ViewTransferred, res.MirrorsRetired)
	if res.MirrorLoadAtRestart == 0 {
		t.Error("no covering load accumulated during the crash")
	}
	if !res.Drained {
		t.Errorf("mirror load never drained (%v cap)", res.DrainTime)
	}
	if res.ViewTransferred == 0 || res.MirrorsRetired == 0 {
		t.Error("reintegration did not transfer or retire anything")
	}
	if res.RejoinTime <= 0 || res.RejoinTime > 5*time.Second {
		t.Errorf("implausible rejoin time %v", res.RejoinTime)
	}
	if res.Violations != 0 {
		t.Errorf("slot conflicts: %d", res.Violations)
	}
}
