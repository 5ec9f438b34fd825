// Package core implements Tiger's distributed schedule management (§4 of
// the paper): cubs that hold partial, possibly out-of-date views of a
// global schedule that exists only as a "coherent hallucination", the
// viewer-state gossip that keeps those views coherent, idempotent
// deschedules, slot insertion under time-based ownership, the deadman
// failure detector, and mirror takeover for failed components.
//
// The protocol code is written against clock.Clock and Transport
// interfaces so the identical cub logic runs under the deterministic
// simulator (internal/sim + internal/netsim) and under real time
// (internal/rt).
package core

import (
	"fmt"
	"time"

	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/schedule"
)

// Transport sends control messages between nodes. netsim.Network and the
// real TCP mesh both satisfy it.
type Transport interface {
	Send(from, to msg.NodeID, m msg.Message)
}

// SteadySender is an optional Transport refinement: SendSteady delivers
// like Send but without drawing from the transport's shared jitter
// stream, so periodic liveness traffic (the controller heartbeat) cannot
// perturb the randomness alignment of everything else in a simulated
// run. netsim.Network implements it; the TCP mesh just uses Send.
type SteadySender interface {
	SendSteady(from, to msg.NodeID, m msg.Message)
}

// Returner is an optional Transport refinement: Returns reports whether
// a message sent from→to now will be handed back to the sender's Reclaim
// (netsim.Reclaimer), after which the sender may reuse its record.
// netsim.Network implements it; the TCP mesh returns nothing.
type Returner interface {
	Returns(from, to msg.NodeID) bool
}

func returns(net Transport, from, to msg.NodeID) bool {
	r, ok := net.(Returner)
	return ok && r.Returns(from, to)
}

// Config is the static, globally agreed configuration of a Tiger system.
// Every node gets an identical copy; nothing in it is negotiated at run
// time.
type Config struct {
	Layout layout.Config
	Sched  schedule.Params

	BlockSize int64 // bytes per block (single-bitrate system, §2.2)

	// Viewer-state forwarding control (§4.1.1). Cubs keep the schedule
	// updated at least MinVStateLead into the future and never forward
	// viewer states more than MaxVStateLead ahead; the gap lets them
	// batch states into single messages.
	MinVStateLead   time.Duration
	MaxVStateLead   time.Duration
	ForwardInterval time.Duration // batching cadence

	// DescheduleHold is how long deschedule records are retained after
	// the slot they describe has passed the holding cub (§4.1.2).
	DescheduleHold time.Duration

	// ReadAhead is how far before a block's send deadline its disk read
	// is issued ("the disks run at least one block service time ahead of
	// the schedule. Usually, they run a little earlier", §3.1).
	ReadAhead time.Duration

	// Deadman protocol (§2.3).
	HeartbeatInterval time.Duration
	DeadmanTimeout    time.Duration

	// AdmitLimit caps schedule load for new insertions (the controller
	// refuses starts past this fraction of capacity). The paper's code
	// has such a limit, disabled for the §5 experiments; 0 disables it.
	AdmitLimit float64

	// SingleForward disables double forwarding of viewer states: each
	// state goes only to the first living successor. The paper rejected
	// this design because schedule information held only by a cub when
	// it fails is lost until laboriously reconstructed (§4.1.1); the
	// knob exists to reproduce that ablation.
	SingleForward bool

	DiskParams disk.Params

	// Health switches the per-disk gray-failure monitor (DESIGN §12).
	Health HealthParams

	// Governor switches the correlated-failure degradation governor
	// (governor.go). Off unless Governor.Enable is set: parking is a
	// policy choice layered on the protocol, and the fault experiments
	// that predate it measure raw mirror behaviour.
	Governor GovernorParams

	Files map[msg.FileID]layout.File
}

// GovernorParams switch the degradation governor: when correlated
// failures exhaust mirror coverage, the controller parks the fewest
// streams whose play trajectories cross the unservable disks so every
// surviving stream keeps a clean schedule (governor.go, which holds its
// park window and pacing constants).
type GovernorParams struct {
	// Enable turns the governor on. Without it, correlated failures
	// degrade every stream crossing the dead span (the paper's
	// behaviour).
	Enable bool
}

// HealthParams switch the per-disk gray-failure monitor: the EWMA slack
// detector, the healthy → suspected → quarantined state machine, and the
// un-quarantine probe loop (health.go, which holds their constants).
// Disable turns the whole monitor off (the unmitigated ablation arm of
// the grayfail sweep).
type HealthParams struct {
	Disable bool
}

// DefaultTimings fills in the protocol timings left zero, scaled to the
// block play time. At the paper's one-second blocks they are its typical
// constants: vstate leads of 4 and 9 s, a 500 ms forwarding batch, a 3 s
// deschedule hold, 1 s of read-ahead, and the deadman's 500 ms heartbeat
// and 2.5 s timeout.
func (c *Config) DefaultTimings() {
	bp := c.Sched.BlockPlay
	for _, t := range []struct {
		d   *time.Duration
		def time.Duration
	}{
		{&c.MinVStateLead, 4 * bp},
		{&c.MaxVStateLead, 9 * bp},
		{&c.ForwardInterval, bp / 2},
		{&c.DescheduleHold, 3 * bp},
		// One block play of read-ahead: the cubs' 20 MB buffer caches
		// bound how far ahead of the schedule the disks can usefully
		// run, and deeper prefetch only delays late-read detection (§3.1).
		{&c.ReadAhead, bp},
		{&c.HeartbeatInterval, bp / 2},
		{&c.DeadmanTimeout, 5 * bp / 2},
	} {
		if *t.d == 0 {
			*t.d = t.def
		}
	}
}

// Validate checks cross-field consistency.
func (c *Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if err := c.Sched.Validate(); err != nil {
		return err
	}
	if c.Layout.NumDisks() != c.Sched.NumDisks {
		return fmt.Errorf("core: layout has %d disks but schedule has %d",
			c.Layout.NumDisks(), c.Sched.NumDisks)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("core: non-positive block size %d", c.BlockSize)
	}
	if c.MinVStateLead >= c.MaxVStateLead {
		return fmt.Errorf("core: minVStateLead %v must be below maxVStateLead %v",
			c.MinVStateLead, c.MaxVStateLead)
	}
	if c.MinVStateLead <= c.Sched.SchedLead {
		return fmt.Errorf("core: minVStateLead %v must exceed the scheduling lead %v (§4.1.3)",
			c.MinVStateLead, c.Sched.SchedLead)
	}
	// §4.1.3: in the single-bitrate Tiger the block play time must exceed
	// the largest expected inter-cub latency; we cannot check the real
	// network here, but the forwarding machinery additionally needs the
	// batching interval to fit comfortably inside the lead gap.
	if c.ForwardInterval > c.MaxVStateLead-c.MinVStateLead {
		return fmt.Errorf("core: forward interval %v exceeds the vstate lead gap %v",
			c.ForwardInterval, c.MaxVStateLead-c.MinVStateLead)
	}
	if c.ReadAhead < c.Sched.BlockService {
		return fmt.Errorf("core: read-ahead %v below one block service time %v",
			c.ReadAhead, c.Sched.BlockService)
	}
	if c.DeadmanTimeout < 2*c.HeartbeatInterval {
		return fmt.Errorf("core: deadman timeout %v under two heartbeat intervals", c.DeadmanTimeout)
	}
	for id, f := range c.Files {
		if f.ID != id {
			return fmt.Errorf("core: file map key %d does not match file ID %d", id, f.ID)
		}
		if f.Blocks <= 0 {
			return fmt.Errorf("core: file %d has no blocks", id)
		}
		if f.StartDisk < 0 || f.StartDisk >= c.Layout.NumDisks() {
			return fmt.Errorf("core: file %d start disk %d out of range", id, f.StartDisk)
		}
	}
	return nil
}

// MirrorPace returns the pacing interval between declustered mirror
// pieces: block play time divided by the decluster factor (§4.1.1).
func (c *Config) MirrorPace() time.Duration {
	return c.Sched.BlockPlay / time.Duration(c.Layout.Decluster)
}

// MirrorPartSize returns the size of one declustered secondary piece.
func (c *Config) MirrorPartSize() int64 {
	dc := int64(c.Layout.Decluster)
	return (c.BlockSize + dc - 1) / dc
}
