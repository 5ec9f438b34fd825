package main

import (
	"strings"
	"time"

	"tiger/internal/obs/attr"
)

// attrComponents are the rows of attr.Build's table: where a traced
// block's deadline slack went. (A component is named for the hop that
// closes it, so the admit hop, which opens a chain, has no row.)
var attrComponents = []string{"insert-wait", "gossip", "desched",
	"disk-queue", "disk-read", "send-wait", "network", "miss"}

// setAttr reports each component's share of attributed slack and its
// mean per charge. Components the run never charged stay 0.
func setAttr(res *result, t *attr.Table) {
	if t == nil {
		return
	}
	listed := map[string]bool{}
	for _, c := range attrComponents {
		listed[c] = true
	}
	for _, row := range t.Rows {
		if !listed[row.Component] {
			continue // hedge, other: not stages of a healthy block's life
		}
		name := "attr." + strings.ReplaceAll(row.Component, "-", "_")
		res.set(name+"_share", row.Share)
		res.set(name+"_ms_mean", ratio(float64(row.TotalNs), float64(row.Count))/1e6)
	}
}

// setStartQuantiles reports request -> first block in seconds. These are
// per-layer because they move with the seed by more than the bounds the
// issue gave them (README, "Demoted").
func setStartQuantiles(res *result, lat []float64) {
	res.set("start_s_p50", quantile(lat, 0.50))
	res.set("start_s_p95", quantile(lat, 0.95))
	res.set("start_s_p999", quantile(lat, 0.999))
}

func setKernels(res *result, ks map[string]kernelResult) {
	for _, k := range kernels {
		r := ks[k.name]
		if k.name == "msg.kernel.roundtrip" {
			res.set("msg.kernel.allocs_per_roundtrip", r.allocs)
			continue
		}
		res.set(k.name+"_"+k.unit, r.perOp)
		res.set(k.name+"_allocs", r.allocs)
	}
}

// simPerLayer fills the per-layer metrics of a simulated workload from
// the untraced reference pass `ref` and the traced pass `tr`, both at the
// traced length, so that their ratio is the tracing overhead.
func simPerLayer(res *result, ref, tr *simRun, ks map[string]kernelResult) {
	blocks := ref.blocks()
	d := func(a, b int64) float64 { return float64(b - a) }
	bc, ac := ref.before.cub, ref.after.cub
	events := float64(ref.after.events - ref.before.events)
	starts := d(ref.before.starts, ref.after.starts)
	ctlMsgs := d(ref.before.ctlMsg, ref.after.ctlMsg)
	ctlBytes := ref.ctlBytes()
	raw, cal := ref.cpuUsPerBlock()

	res.set("sim.events_per_block", ratio(events, blocks))
	res.set("sim.cpu_ns_per_event", ratio(float64(ref.winCPU.Nanoseconds()), events))

	res.set("core.states_per_block", ratio(d(bc.statesRecv, ac.statesRecv), blocks))
	res.set("core.states_dup_frac", ratio(d(bc.statesDup, ac.statesDup), d(bc.statesRecv, ac.statesRecv)))
	res.set("core.max_view_entries", float64(ref.maxView))
	res.set("core.inserts_per_start", ratio(d(bc.inserts, ac.inserts), starts))
	res.set("core.desched_dup_frac", ratio(d(bc.deschedDup, ac.deschedDup), d(bc.deschedRecv, ac.deschedRecv)))
	res.set("core.starts_dup", d(bc.startsDup, ac.startsDup))
	res.set("core.mirror_pieces_per_block", ratio(d(bc.piecesSent, ac.piecesSent), blocks))
	if ref.lossSeen {
		res.set("core.fail_loss_span_s", (ref.lossLast - ref.lossFirst).Seconds())
	}
	if drain := ref.rejoinDrain; drain != 0 || !ref.spec.crash {
		res.set("core.rejoin_drain_s", drain.Seconds())
	} else {
		res.set("core.rejoin_drain_s", ref.spec.slice.Seconds()) // not handed back within the restart slice
	}
	res.set("core.server_misses", d(bc.serverMisses, ac.serverMisses))
	res.set("core.states_late", d(bc.statesLate, ac.statesLate))
	res.set("core.conflicts", d(bc.conflicts, ac.conflicts))
	res.set("core.mirrors_made", d(bc.mirrorsMade, ac.mirrorsMade))
	res.set("tiger.oracle_flags", float64(ref.violations))

	res.set("tiger.new_s", ref.stages.build)
	res.set("tiger.ramp_s", ref.stages.ramp)
	res.set("tiger.settle_s", ref.stages.settle)
	res.set("tiger.cpu_us_per_block_raw", raw)
	res.set("tiger.ref_loop_ns", ref.refNs())
	res.set("tiger.wall_over_cpu", ratio(ref.winWall.Seconds(), ref.winCPU.Seconds()))
	res.set("tiger.sim_rate_wall", ratio((ref.after.at-ref.before.at).Seconds(), ref.winWall.Seconds()))

	window := ref.after.at - ref.before.at
	var duty []float64
	for id, busy := range ref.after.diskBusy {
		duty = append(duty, ratio(float64(busy-ref.before.diskBusy[id]), float64(window)))
	}
	res.set("disk.duty_mean", mean(duty))
	res.set("disk.duty_max", quantile(duty, 1))

	res.set("netsim.ctl_msgs_per_block", ratio(ctlMsgs, blocks))
	res.set("netsim.ctl_bytes_per_msg", ratio(ctlBytes, ctlMsgs))
	res.set("ctl_bytes_per_block", ratio(ctlBytes, blocks))

	res.set("viewer.slack_ms_p01", quantile(tr.slackMs, 0.01))
	res.set("viewer.slack_ms_p50", quantile(tr.slackMs, 0.50))
	res.set("viewer.mirror_block_frac", ratio(d(ref.before.mirror, ref.after.mirror), blocks))
	res.set("viewer.blocks_lost", d(ref.before.lost, ref.after.lost))
	setStartQuantiles(res, ref.startLat)

	res.set("go.gc_cycles_per_kblock", ratio(float64(ref.gcCycles)*1000, blocks))
	res.set("go.gc_cpu_frac", ref.gcCPUFrac)
	res.set("go.heap_mb_per_cub", ratio(ref.heapMB, float64(ref.cubs)))

	_, trCal := tr.cpuUsPerBlock()
	res.set("obs.trace_overhead_ratio", ratio(trCal, cal))
	res.set("obs.chains_evicted", float64(tr.chainsEvicted))
	setAttr(res, tr.attrTable)
	setKernels(res, ks)

	// The ledger: operations per block (counted) × kernel CPU per
	// operation = estimated µs per block. Each of the disk, netsim and
	// viewer kernels runs one engine event per operation, which the sim
	// row already charges, so it is taken out of theirs. What the rows do
	// not explain is core's (and the harness's): the "other 800 ns".
	engine := ks["sim.kernel.after_run"].perOp
	self := func(kernel string) float64 {
		if v := ks[kernel].perOp - engine; v > 0 {
			return v
		}
		return 0
	}
	sends := d(bc.piecesSent, ac.piecesSent) + blocks // one disk read and one delivery per send
	rows := []struct {
		layer string
		us    float64
	}{
		{"sim", ratio(events, blocks) * engine / 1000},
		{"disk", ratio(sends, blocks) * self("disk.kernel.submit_complete") / 1000},
		{"netsim", ratio(ctlMsgs, blocks) * self("netsim.kernel.send_deliver") / 1000},
		{"viewer", ratio(sends, blocks) * self("viewer.kernel.deliver_block") / 1000},
	}
	residual := 1.0
	for _, row := range rows {
		share := ratio(row.us, raw)
		res.set("ledger."+row.layer+"_us_per_block", row.us)
		res.set("ledger."+row.layer+"_share", share)
		residual -= share
	}
	if residual < 0 {
		residual = 0
	}
	res.set("core.residual_share", residual)
}

// tcpPerLayer fills the per-layer metrics of tcp-loopback the same way.
func tcpPerLayer(res *result, ref, tr *tcpRun, ks map[string]kernelResult) {
	blocks := ref.blocks()
	cpu := ref.user + ref.sys
	res.set("rt.cpu_us_per_block", ref.cpuUsPerBlock())
	res.set("rt.sys_cpu_frac", ratio(ref.sys.Seconds(), cpu.Seconds()))
	res.set("rt.events_per_block", ratio(float64(ref.events), blocks))
	res.set("rt.late_ms_p50", clampZero(quantile(ref.lateMs, 0.50)))
	res.set("rt.late_ms_p99", clampZero(quantile(ref.lateMs, 0.99)))
	res.set("rt.mesh_queue_drops", float64(ref.drops))
	res.set("rt.mesh_reconnects", float64(ref.reconn))
	res.set("rt.generator_lag_ms_p99", clampZero(quantile(ref.lagMs, 0.99)))
	res.set("wire.bytes_per_block", ratio(float64(ref.wireBytes), float64(ref.arrived)))
	res.set("ctl_bytes_per_block", ratio(ref.gossipBytes(), float64(ref.arrived)))

	res.set("core.states_per_block", ratio(float64(ref.cub.StatesRecv), float64(ref.arrived)))
	res.set("core.states_dup_frac", ratio(float64(ref.cub.StatesDup), float64(ref.cub.StatesRecv)))
	res.set("core.inserts_per_start", ratio(float64(ref.cub.Inserts), float64(ref.requested)))
	res.set("core.desched_dup_frac", ratio(float64(ref.cub.DeschedDup), float64(ref.cub.DeschedRecv)))
	res.set("core.starts_dup", float64(ref.cub.StartsDup))
	res.set("core.server_misses", float64(ref.cub.ServerMisses))
	res.set("core.states_late", float64(ref.cub.StatesLate))
	res.set("core.conflicts", float64(ref.cub.Conflicts))
	res.set("core.mirrors_made", float64(ref.cub.MirrorsMade))
	res.set("viewer.blocks_lost", float64(ref.due-ref.ok))
	setStartQuantiles(res, ref.startLat)

	res.set("go.gc_cycles_per_kblock", ratio(float64(ref.gcCycles)*1000, blocks))
	res.set("go.gc_cpu_frac", ref.gcCPU)
	res.set("go.heap_mb_per_cub", ratio(ref.heapMB, float64(ref.sp.cubs)))
	wall := time.Duration(len(ref.slices)) * ref.sp.slice
	res.set("tiger.wall_over_cpu", ratio(wall.Seconds(), cpu.Seconds()))

	res.set("obs.trace_overhead_ratio", ratio(tr.cpuUsPerBlock(), ref.cpuUsPerBlock()))
	res.set("obs.chains_evicted", float64(tr.evicted))
	setAttr(res, tr.attr)
	setKernels(res, ks)
}

// clampZero keeps a lateness percentile printable when blocks run early.
func clampZero(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
