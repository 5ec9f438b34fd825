package main

import (
	"fmt"
	"time"

	"tiger"
)

// score runs quick versions of every experiment and grades the measured
// values against the paper's claims — a one-command verification that
// the reproduction still holds.
func score(o tiger.Options) error {
	header("Scorecard: paper claims vs this reproduction",
		"PASS = the claim's shape holds; values are this run's measurements")

	type check struct {
		claim    string
		paper    string
		measured string
		pass     bool
	}
	var checks []check
	add := func(claim, paper, measured string, pass bool) {
		checks = append(checks, check{claim, paper, measured, pass})
	}

	// Capacity plan.
	capa := capacityTable(o)
	add("system capacity", "602 streams, ~10.75/disk",
		fmt.Sprintf("%d streams, %.3f/disk", capa.Streams, capa.StreamsPerDisk),
		capa.Streams == 602)

	// Figures 8 and 9.
	ramp := quickRamp()
	f8, err := runLoadCurve(o, -1, ramp)
	if err != nil {
		return err
	}
	l8 := f8.Samples[len(f8.Samples)-1]
	mid := f8.Samples[len(f8.Samples)/2]
	linear := false
	if mid.Streams > 0 && l8.Streams > 0 {
		r := (l8.CubCPU / float64(l8.Streams)) / (mid.CubCPU / float64(mid.Streams))
		linear = r > 0.8 && r < 1.25
	}
	add("cub CPU linear in streams", "linear to <=85%",
		fmt.Sprintf("%.0f%% at %d streams", l8.CubCPU*100, l8.Streams),
		linear && l8.CubCPU < 0.85)
	add("controller load flat", "independent of streams",
		fmt.Sprintf("%.2f%%", l8.CtrlCPU*100), l8.CtrlCPU < 0.05)
	add("unfailed control traffic", "KB/s regime",
		fmt.Sprintf("%.1f KB/s", l8.CtlTrafficBps/1e3), l8.CtlTrafficBps < 21_000)

	o9 := o
	o9.Seed = o.Seed + 99
	f9, err := runLoadCurve(o9, 5, ramp)
	if err != nil {
		return err
	}
	l9 := f9.Samples[len(f9.Samples)-1]
	add("mirror disks near saturation", ">95% duty",
		fmt.Sprintf("%.0f%%", l9.MirrorDiskLoad*100), l9.MirrorDiskLoad > 0.88)
	add("mirroring cub send rate", ">13.4 MB/s",
		fmt.Sprintf("%.1f MB/s", l9.DataRateBps/1e6), l9.DataRateBps > 12.5e6)
	add("failed-mode control traffic", "~2x unfailed, <21 KB/s",
		fmt.Sprintf("%.1f vs %.1f KB/s", l9.CtlTrafficBps/1e3, l8.CtlTrafficBps/1e3),
		l9.CtlTrafficBps < 21_000 && l9.CtlTrafficBps > 1.4*l8.CtlTrafficBps)
	add("failed-mode survives full load", "all streams served",
		fmt.Sprintf("%d mirror-served blocks, %d lost", f9.MirrorBlocks, f9.BlocksLost),
		f9.MirrorBlocks > 0 && f9.BlocksLost*5000 < f9.BlocksOK)

	// Figure 10.
	f10, err := runFigure10(o, ramp)
	if err != nil {
		return err
	}
	add("startup floor", "~1.8 s below 50% load",
		f10.Floor.Round(time.Millisecond).String(),
		f10.Floor > 1500*time.Millisecond && f10.Floor < 2300*time.Millisecond)
	add("startup grows with load", "outliers >20 s near 100%",
		fmt.Sprintf("mean@hi %v, %d outliers", f10.MeanAt95.Round(time.Millisecond), f10.Over20s),
		f10.MeanAt95 > f10.Floor)

	// Reconfiguration.
	rc, err := runReconfig(o)
	if err != nil {
		return err
	}
	add("power-cut loss window bounded", "~8 s",
		rc.LossSpan.Round(time.Millisecond).String(),
		rc.LostBlocks > 0 && rc.LossSpan < 15*time.Second && rc.MirrorCatch > 0)

	// Scalability.
	sc, err := runScalability(o, []int{7, 28}, 10*time.Second)
	if err != nil {
		return err
	}
	add("per-cub control flat in size", "constant; central grows",
		fmt.Sprintf("%.1f -> %.1f KB/s across 4x size", sc[0].PerCubCtlBps/1e3, sc[1].PerCubCtlBps/1e3),
		sc[1].PerCubCtlBps < 2*sc[0].PerCubCtlBps && sc[1].CentralizedBps > 3*sc[0].CentralizedBps)
	add("views bounded in size", "O(maxLead) entries",
		fmt.Sprintf("%d -> %d entries", sc[0].MaxViewEntries, sc[1].MaxViewEntries),
		sc[1].MaxViewEntries < 3*sc[0].MaxViewEntries)

	// Flash crowd.
	fc, err := runFlashCrowd(o, 150, time.Minute)
	if err != nil {
		return err
	}
	add("flash crowd spaced, no hotspot", "delays enforce spacing; no overload",
		fmt.Sprintf("%.1f starts/s, max disk %.0f%%", fc.AdmitRate, fc.MaxDiskDuty*100),
		fc.Admitted == fc.Viewers && fc.AdmitRate < 12 && fc.MaxDiskDuty < 0.8 && fc.BlocksLost == 0)

	// Forwarding ablation.
	fw, err := runAblationForwarding(o)
	if err != nil {
		return err
	}
	add("double forwarding earns its cost", "single loses queued info",
		fmt.Sprintf("lost %d vs %d", fw.DoubleLost, fw.SingleLost),
		fw.SingleLost > 2*fw.DoubleLost)

	passed := 0
	for _, c := range checks {
		verdict := "FAIL"
		if c.pass {
			verdict = "PASS"
			passed++
		}
		fmt.Printf("%-4s %-34s paper: %-28s measured: %s\n", verdict, c.claim, c.paper, c.measured)
	}
	fmt.Printf("\n%d of %d claims reproduced\n", passed, len(checks))
	if passed != len(checks) {
		return fmt.Errorf("scorecard: %d claims failed", len(checks)-passed)
	}
	return nil
}
