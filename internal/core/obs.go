package core

import (
	"strconv"

	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/obs"
)

// This file wires the protocol to the observability registry
// (internal/obs). Counters and gauges are reported once: the protocol
// paths bump the plain stats structs (CubStats, ControllerStats,
// GovernorStats, disk.Stats) and nothing else, and the registry reads
// them when it is encoded — a Snapshot copies everything a node exports,
// and Collect walks the structs' field tags over that copy. A snapshot
// must be taken where the node's state may be read (between RunFor calls
// under the simulator, on the node's executor under rt); emitting it is
// safe anywhere.
//
// What is still pushed is what a snapshot cannot reconstruct: the
// distributions. A node owns its own (start wait and recovery time on a
// cub, slot wait and takeover time on the controller) from birth, reads
// them itself (RecoveryTimes, TakeoverTimes), and AttachObs exports those
// same instances. The block-lifecycle slack distributions are not the
// node's business: they are a subscriber of its step sink
// (obs.SpanRecorder).

// startWaitBounds bucket the queue-to-insertion wait of start requests
// (seconds). The paper's Figure 10 puts typical slot waits well under a
// second even at high load; the tail buckets catch saturation.
var startWaitBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// AttachObs exports this cub's histograms (labelled cub="N"); safe from
// any goroutine. The cub's counters and gauges need no attachment:
// whoever hosts the cub registers a collector over Snapshot.
func (c *Cub) AttachObs(reg *obs.Registry) {
	ls := obs.Labels{"cub": strconv.Itoa(int(c.id))}
	reg.AddHistogram("tiger_cub_start_wait_seconds", "Queue-to-insertion wait of start requests.", ls, c.startWait)
	reg.AddHistogram("tiger_cub_recovery_seconds", "Restart-to-reintegration time.", ls, c.recovery)
}

// CubSnapshot is a copy of everything one cub exports as counters and
// gauges: its CubStats, the instantaneous sizes every gauge reads, and
// one DiskSnapshot per local drive.
type CubSnapshot struct {
	ID msg.NodeID
	CubStats
	ViewEntries     int   `metric:"tiger_cub_view_entries,gauge" help:"Schedule entries currently in the cub's view."`
	QueuedStarts    int   `metric:"tiger_cub_queued_starts,gauge" help:"Start requests waiting for a free slot."`
	BufferedBytes   int64 `metric:"tiger_cub_buffered_bytes,gauge" help:"Block buffer bytes currently held."`
	Epoch           int32 `metric:"tiger_cub_epoch,gauge" help:"Liveness epoch (bumps on cold restart)."`
	MovesPending    int   `metric:"tiger_cub_moves_pending,gauge" help:"Restripe copy jobs queued on this cub's drives."`
	UnservableDisks int   `metric:"tiger_cub_unservable_disks,gauge" help:"Disks this cub computes mirror-exhausted from its death beliefs."`
	CtlDown         bool  `metric:"tiger_cub_ctl_down,gauge" help:"1 while this cub's deadman believes the controller dead."`
	Disks           []DiskSnapshot
}

// DiskSnapshot is one drive's share of a CubSnapshot, keyed by native
// disk number.
type DiskSnapshot struct {
	Disk int
	disk.Stats
	Queue  int             `metric:"tiger_disk_queue_depth,gauge" help:"Outstanding reads including the one in service."`
	Health DiskHealthState `metric:"tiger_disk_health_state,gauge" help:"Gray-failure monitor state: 0 healthy, 1 suspected, 2 quarantined, 3 failed."`
}

var (
	cubSeries  = obs.SeriesOf(CubSnapshot{})
	diskSeries = obs.SeriesOf(DiskSnapshot{})
	ctlSeries  = obs.SeriesOf(ControllerSnapshot{})
)

// Snapshot copies the cub's exported state. Like every Cub method it
// must run where the cub's state may be changed: bringing the buffer
// pool up to date (settleBuffers) is a write.
func (c *Cub) Snapshot() CubSnapshot {
	s := CubSnapshot{
		ID:              c.id,
		CubStats:        c.stats,
		ViewEntries:     c.view.len(),
		QueuedStarts:    c.queueLen,
		BufferedBytes:   c.BufferedBytes(),
		Epoch:           c.Epoch(),
		MovesPending:    c.MoverPending(),
		UnservableDisks: c.unservable,
		CtlDown:         c.ctlDown,
		Disks:           make([]DiskSnapshot, len(c.drives)),
	}
	for i := range c.drives {
		dr := &c.drives[i]
		s.Disks[i] = DiskSnapshot{Disk: dr.native, Stats: dr.dk.Stats(), Queue: dr.dk.QueueLen(), Health: dr.health.state}
	}
	return s
}

// Collect reports the snapshot as series labelled cub="N" (and disk="D"
// for the per-drive ones). Safe from any goroutine.
func (s CubSnapshot) Collect(emit obs.Emit) {
	cub := strconv.Itoa(int(s.ID))
	cubSeries.Collect(emit, obs.Labels{"cub": cub}.String(), &s)
	for i := range s.Disks {
		d := &s.Disks[i]
		diskSeries.Collect(emit, obs.Labels{"cub": cub, "disk": strconv.Itoa(d.Disk)}.String(), d)
	}
}

// AttachObs exports the controller's histograms; its counters and gauges
// are collected from Snapshot like a cub's.
func (c *Controller) AttachObs(reg *obs.Registry) {
	reg.AddHistogram("tiger_ctrl_slot_wait_seconds", "Request-to-insertion latency seen by the controller.", nil, c.slotWait)
	reg.AddHistogram("tiger_ctrl_takeover_seconds", "Restart-to-rebuilt duration of controller takeovers.", nil, c.takeover)
}

// ControllerSnapshot is a copy of everything the controller exports as
// counters and gauges. The governor's and the restripe coordinator's
// accounting belong to the incarnation, so after a takeover their series
// restart from what the scavenge rebuilt, as the structs themselves do.
type ControllerSnapshot struct {
	ControllerStats
	Governor GovernorStats
	Restripe RestripeStats
	Active   int   `metric:"tiger_ctrl_active_streams,gauge" help:"Currently inserted streams."`
	Epoch    int32 `metric:"tiger_ctrl_epoch,gauge" help:"Controller incarnation epoch (bumps on takeover)."`
}

// Snapshot copies the controller's exported state; it must run where
// the controller's state may be read.
func (c *Controller) Snapshot() ControllerSnapshot {
	return ControllerSnapshot{
		ControllerStats: c.stats,
		Governor:        c.GovernorStats(),
		Restripe:        c.RestripeStats(),
		Active:          c.active,
		Epoch:           c.Epoch(),
	}
}

// Collect reports the snapshot as unlabelled series. Safe from any
// goroutine.
func (s ControllerSnapshot) Collect(emit obs.Emit) { ctlSeries.Collect(emit, "", &s) }
