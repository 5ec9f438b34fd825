package core

import (
	"fmt"
	"math/rand"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/obs"
	"tiger/internal/recycle"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// DataPath carries paced block payloads from a cub to viewers. The
// simulated switch (netsim.Network) and the real-time runtime both
// implement it.
type DataPath interface {
	SendBlock(from msg.NodeID, d netsim.BlockDelivery, pace time.Duration)
}

// entry is one record in a cub's view of the schedule: an upcoming send
// from one of this cub's disks.
//
// Records belong to the cub and are reused through its free list, so the
// steady block path allocates nothing: the disk completion, the one
// callback that names an entry, is bound to the record once, when it is
// first allocated, and reads its arguments from it. pins counts what can
// still call back into the record — the outstanding disk read until it
// completes or Cancel reports true, and the completion currently running
// on it. A record returns to the free list only once it has left the
// view and pins is zero. No timer holds an entry: reads and sends fall
// due on the drive's walk (walk.go), which finds them through its list,
// and a dropped entry is on no list.
type entry struct {
	c    *Cub
	key  entryKey
	next *entry // the slot's next entry in the view's chain (entryview.go)
	vs   msg.ViewerState

	duePrev, dueNext *entry   // the drive's walk, in due order
	readAt           sim.Time // when the walk is to start the read

	disk        int // native number of the drive that will serve it (driveOf)
	live        bool
	ready       bool
	forwarded   bool
	hedged      bool   // a mirror chain was launched to cover a suspected disk
	readStarted bool   // the walk's read cursor has passed it
	readID      uint64 // outstanding disk read, cancellable; 0 when none
	buffered    int64  // bytes of buffer pool held for this entry's read

	// The outstanding read's issue time and zone, for its completion
	// (its size is buffered).
	readIssued sim.Time
	readZone   disk.Zone

	pins int

	onReadDone func(done sim.Time, ok bool)
}

// newEntry takes a record from the free list, or allocates one and
// binds its callback, and installs it in the view under key.
func (c *Cub) newEntry(key entryKey, vs msg.ViewerState, disk int) *entry {
	e, ok := c.freeEntries.Get()
	if ok {
		*e = entry{c: c, onReadDone: e.onReadDone}
	} else {
		e = &entry{c: c}
		e.onReadDone = e.readDone
	}
	e.key, e.vs, e.disk, e.live = key, vs, disk, true
	c.view.put(e)
	return e
}

// unpin drops one pin.
func (e *entry) unpin() {
	e.pins--
	e.retire()
}

// retire recycles a record that has left the view once nothing can call
// back into it any more. Only primaries are pooled: mirror pieces exist
// while a component is failed, four or so to every block it would have
// sent, and a pool fed by them would hold the failure's peak long after
// the component is back. Their records go to the collector.
func (e *entry) retire() {
	if e.pins == 0 && !e.live && e.key.part == -1 {
		e.c.freeEntries.Put(e, 0)
	}
}

// drive is everything a cub keeps for one of its spindles. Drives are
// named by cub-local index, c.drives[idx]: disks are numbered cub-minor
// (§2.2), so the index is the one name of a drive that every striping
// generation shares, and the one move messages carry.
type drive struct {
	dk     *disk.Disk
	native int // disk number under the cub's birth generation

	health diskHealth // also whether it is in service (health.go)
	walk   walk       // the drive's entries in due order (walk.go)

	// The mover (mover.go): the FIFO of copy jobs, the copy in service
	// or pacing after it (nil while idle), and the duty-cycle sample its
	// pacing gap is measured from.
	moves      []*mvJob
	copying    *mvJob
	lastBusy   time.Duration
	lastSample sim.Time
	sampled    bool
}

// driveAt resolves a cub-local drive index, nil when it names none: move
// messages carry the index from the network.
func (c *Cub) driveAt(idx int) *drive {
	if idx < 0 || idx >= len(c.drives) {
		return nil
	}
	return &c.drives[idx]
}

// driveOf returns the drive serving an entry.
func (c *Cub) driveOf(e *entry) *drive { return &c.drives[e.disk/c.nativeCubs] }

// driveOfDisk returns this cub's drive that lay numbers gd.
func (c *Cub) driveOfDisk(lay layout.Config, gd int) *drive { return &c.drives[gd/lay.Cubs] }

// descKey identifies a held deschedule record (§4.1.2).
type descKey struct {
	slot     int32
	instance msg.InstanceID
}

// startReq is a queued start-play request (§4.1.3). dkey packs the
// striping generation with the generation-local disk holding the first
// block wanted (genDiskKey).
type startReq struct {
	sp       msg.StartPlay
	dkey     int32
	enqueued sim.Time
}

// CubStats are cumulative protocol counters for one cub, and the only
// place a cub counts: tests and experiments read the struct, and the
// metrics registry collects it through the field tags (obs.go).
type CubStats struct {
	BlocksSent   int64 `metric:"tiger_cub_blocks_sent_total" help:"Primary blocks placed on the network."`
	PiecesSent   int64 `metric:"tiger_cub_pieces_sent_total" help:"Declustered mirror pieces placed on the network."`
	ServerMisses int64 `metric:"tiger_cub_server_misses_total" help:"Scheduled sends that could not be made (late read or late state)."`
	StatesRecv   int64 `metric:"tiger_cub_states_recv_total" help:"Viewer states received."`
	StatesDup    int64 `metric:"tiger_cub_states_dup_total" help:"Duplicate viewer states ignored."`
	StatesLate   int64 `metric:"tiger_cub_states_late_total" help:"Viewer states discarded as too late (§4.1.2)."`
	Conflicts    int64 `metric:"tiger_cub_conflicts_total" help:"States for an occupied slot with another instance (should stay 0)."`
	DeschedRecv  int64 `metric:"tiger_cub_deschedules_total" help:"Deschedule requests received."`
	DeschedDup   int64 `metric:"tiger_cub_deschedules_dup_total" help:"Duplicate deschedule requests ignored (§4.1.2)."`
	Inserts      int64 `metric:"tiger_cub_inserts_total" help:"Slot insertions performed under ownership (§4.1.3)."`
	MirrorsMade  int64 `metric:"tiger_cub_mirrors_made_total" help:"Mirror viewer-state chains created."`
	PiecesLost   int64 `metric:"tiger_cub_pieces_lost_total" help:"Mirror pieces undeliverable (covering cub dead)."`
	// PeakBuffered is a high-water mark: the paper's cubs had 20 MB
	// buffer caches; §3.1 trades buffer usage for tolerance of
	// disk-performance variation.
	PeakBuffered  int64 `metric:"tiger_cub_peak_buffered_bytes,gauge" help:"Peak block buffer bytes held."`
	IndexMisses   int64 `metric:"tiger_cub_index_misses_total" help:"Content index lookups that failed (always a bug)."`
	DeadDeclared  int64 `metric:"tiger_cub_dead_declared_total" help:"Deadman transitions observed."`
	DeathsRefuted int64 `metric:"tiger_cub_deaths_refuted_total" help:"False death declarations withdrawn on proof of life."`
	RedundantRuns int64 `metric:"tiger_cub_redundant_runs_total" help:"Redundant start queues promoted after a failure."`
	StartsDup     int64 `metric:"tiger_cub_starts_dup_total" help:"Duplicate start-play enqueues ignored."`
	GossipBatches int64 `metric:"tiger_cub_gossip_batches_total" help:"Viewer-state gossip batches sent."`
	GossipMsgs    int64 `metric:"tiger_cub_gossip_msgs_total" help:"Messages carried inside gossip batches."`
	MsgsRecv      int64 `metric:"tiger_cub_msgs_recv_total" help:"Control messages delivered, a gossip batch counting once."`
	DiskReads     int64 `metric:"tiger_cub_disk_reads_total" help:"Drive operations issued: block reads, quarantine probes, restripe copies shipped or landed."`

	// Restart and reintegration counters.
	Rejoins         int64 `metric:"tiger_cub_rejoins_total" help:"Cold restarts this cub performed."`
	RejoinsServed   int64 `metric:"tiger_cub_rejoins_served_total" help:"Rejoin requests answered for neighbours."`
	ViewTransferred int64 `metric:"tiger_cub_view_transferred_total" help:"Schedule entries rebuilt from rejoin replies."`
	MirrorsRetired  int64 `metric:"tiger_cub_mirrors_retired_total" help:"Mirror entries handed back to a rejoined primary."`
	StaleEpochDrops int64 `metric:"tiger_cub_stale_epoch_drops_total" help:"Messages discarded for carrying a stale epoch."`

	// Gray-failure tolerance counters (health.go).
	HedgesIssued      int64 `metric:"tiger_cub_hedges_issued_total" help:"Mirror chains launched to hedge reads on suspected disks."`
	HedgeLocalWins    int64 `metric:"tiger_cub_hedge_local_wins_total" help:"Hedged sends where the local read completed in time."`
	HedgeMirrorWins   int64 `metric:"tiger_cub_hedge_mirror_wins_total" help:"Hedged sends covered by the declustered mirror pieces."`
	DiskReadErrors    int64 `metric:"tiger_cub_disk_read_errors_total" help:"Transient read failures reported by local drives."`
	DiskSuspects      int64 `metric:"tiger_cub_disk_suspects_total" help:"Disk health transitions healthy→suspected."`
	DiskRecoveries    int64 `metric:"tiger_cub_disk_recoveries_total" help:"Disk health transitions suspected→healthy."`
	DiskQuarantines   int64 `metric:"tiger_cub_disk_quarantines_total" help:"Disk health transitions suspected→quarantined."`
	DiskUnquarantines int64 `metric:"tiger_cub_disk_unquarantines_total" help:"Quarantines cleared by passing probes."`
	DiskProbes        int64 `metric:"tiger_cub_disk_probes_total" help:"Probe reads issued against quarantined drives."`

	// Live-restripe mover counters (mover.go).
	MovesOut     int64 `metric:"tiger_cub_moves_out_total" help:"Restripe copies read and shipped by this cub."`
	MovesIn      int64 `metric:"tiger_cub_moves_in_total" help:"Restripe copies landed on this cub's drives."`
	MoveBytesOut int64 `metric:"tiger_cub_move_bytes_out_total" help:"Bytes of restripe copies shipped."`
	MoveBytesIn  int64 `metric:"tiger_cub_move_bytes_in_total" help:"Bytes of restripe copies landed."`
	MovesNacked  int64 `metric:"tiger_cub_moves_nacked_total" help:"Move orders refused (source drive failed or quarantined)."`

	// Degradation-governor counters (park.go). Park and Resume orders go
	// to two cubs each (serving cub + successor), so summed across cubs
	// these count messages processed, not streams; the authoritative
	// per-stream counts live in the controller's GovernorStats.
	StreamsParked  int64 `metric:"tiger_cub_parks_total" help:"Governor park orders processed (first sighting per instance)."`
	StreamsResumed int64 `metric:"tiger_cub_resumes_total" help:"Governor resume notices processed."`
	DownAdvisories int64 `metric:"tiger_cub_down_advisories_total" help:"Controller CubDown advisories applied."`

	// Controller-failover counters (scavenge.go).
	CtlStaleDrops   int64 `metric:"tiger_cub_ctl_stale_drops_total" help:"Orders dropped for carrying a dead controller incarnation's epoch."`
	CtlTakeovers    int64 `metric:"tiger_cub_ctl_takeovers_total" help:"Controller epoch bumps observed (takeovers)."`
	CtlDeclaredDead int64 `metric:"tiger_cub_ctl_declared_dead_total" help:"Controller deadman transitions observed."`
	ScavengesServed int64 `metric:"tiger_cub_scavenges_served_total" help:"Takeover scavenge requests answered with an inventory."`
}

// Cub is one content-holding machine of a Tiger system, implementing the
// distributed schedule management protocol of §4. All methods must be
// invoked from the node's executor (the simulator, or the rt runtime's
// per-node goroutine); none of them block.
type Cub struct {
	id   msg.NodeID
	cfg  *Config
	clk  clock.Clock
	net  Transport
	data DataPath
	rng  *rand.Rand

	// The local drives, by cub-local index (drive).
	drives []drive

	// Striping generations (gen.go): the Config of every installed
	// generation. nativeCubs is the cub count of the generation this cub
	// was created under — the basis of its drives' native disk numbers.
	planes     map[int32]*Config
	activeGen  int32
	nativeCubs int

	view        view                 // the schedule entries this cub holds
	freeEntries recycle.List[*entry] // wiped by Restart

	desch tombstones[descKey, struct{}] // held deschedule records (§4.1.2)

	// Pending starts per genDiskKey, and the neighbours' starts held in
	// case their cub dies, in instance order.
	queue          map[int32][]startReq
	redundantStart []startReq
	queueLen       int                                  // total queued starts, all genDiskKeys
	scanning       map[int32]bool                       // ownership scan active per genDiskKey
	scanFns        map[int32]func()                     // scanTick bound to each scanned genDiskKey
	cancelledStart tombstones[msg.InstanceID, struct{}] // acks and cancels seen
	enqueuedStart  tombstones[msg.InstanceID, struct{}] // dedup of start enqueues

	lastSeen     map[msg.NodeID]sim.Time
	believedDead map[msg.NodeID]bool
	monitored    []msg.NodeID

	// Degradation-governor state (park.go).
	parkedInst tombstones[msg.InstanceID, struct{}] // so stale gossip dies on arrival
	govMark    mark                                 // of the controller's CubDown advisories
	unservable int                                  // mirror-exhausted disks, from believedDead

	// Controller-failover state (scavenge.go): the controller epoch's
	// mark, the re-admission tickets of parked streams (the scavengeable
	// half of the governor's state), and the deadman for the controller,
	// armed by its first heartbeat.
	ctl           mark
	parkedTickets tombstones[msg.InstanceID, msg.ScavengedPark]
	ctlLastSeen   sim.Time
	ctlDown       bool

	// Liveness (§2.3's deadman protocol extended with restart fencing).
	// The rejoin round's token is the cub's liveness epoch, bumped on
	// every cold restart and stamped into heartbeats and forwarded viewer
	// states; peers is the mark of each peer's.
	rejoin    round
	peers     marks[msg.NodeID, struct{}]
	startWait *obs.Histogram // queue-to-insertion wait of start requests
	recovery  *obs.Histogram // restart-to-reintegration time

	// Gossip under assembly. fwdPending is the batch per target ever sent
	// to; every viewer state in it is a slot of fwdStates, the one array
	// of states staged since the last flush. A flush hands array, batches
	// and slices to the transport — in flight in the simulator, or queued
	// on a mesh writer — and the cub never rewrites them until the
	// transport hands them back (Reclaim); the rt mesh never does.
	// fwdOut is every flush's sends still out that will come back, and
	// fwdSpare the longest array whose every send came back. The scratch
	// slices make the per-tick collect and per-flush target ordering
	// allocate nothing.
	fwdPending       map[msg.NodeID]*msg.Batch
	fwdQueued        bool // fwdPending holds a message
	fwdStates        []msg.ViewerState
	fwdStatesLen     int
	fwdFlushes       uint64 // flushes so far; names a send's flush in fwdOut
	fwdOut           []gossipSend
	fwdSpare         []msg.ViewerState
	fwdScratch       []*entry
	fwdTargetScratch []msg.NodeID
	hb               heartbeat // the deadman heartbeat's record (deadman.go)

	// Block buffers held as of the last settleBuffers, and the ones out on
	// paced sends, each due back when its send completes. Both are facts
	// about the machine's memory, not view: Restart wipes neither.
	bufBytes    int64
	bufReleases clock.Releases[int64]

	// Live-restripe mover state (mover.go) that is not per drive: the
	// source orders queued or in service, and the landed moves. Volatile
	// — wiped on Restart.
	mover moverState

	stats CubStats
	sink  *trace.Sink // nil until SetSink; where protocol steps are reported

	started bool
	// c.forwardTick and c.heartbeatTick, bound once: a method value made
	// at every re-arm would be an allocation per tick.
	onForward, onHeartbeat func()
}

// NewCub constructs a cub. The caller wires the same Transport/DataPath
// to every node and then calls Start once the whole system is built.
func NewCub(id msg.NodeID, cfg *Config, clk clock.Clock, net Transport, data DataPath, rng *rand.Rand) *Cub {
	diskNums := cfg.Layout.DisksOfCub(id)
	c := &Cub{
		id:         id,
		cfg:        cfg,
		clk:        clk,
		net:        net,
		data:       data,
		rng:        rng,
		drives:     make([]drive, len(diskNums)),
		nativeCubs: cfg.Layout.Cubs,
		// The birth configuration is generation 0 (Rebase relabels it for
		// cubs joining an already-restriped system).
		planes: map[int32]*Config{0: cfg},
		view:   newView(),
		// Hold a deschedule record until no viewer state for its slot
		// could still arrive.
		desch:          newTombstones[descKey, struct{}](clk, cfg.MaxVStateLead+cfg.DescheduleHold+cfg.Sched.BlockPlay),
		queue:          make(map[int32][]startReq),
		scanning:       make(map[int32]bool),
		scanFns:        make(map[int32]func()),
		cancelledStart: newTombstones[msg.InstanceID, struct{}](clk, time.Minute),
		enqueuedStart:  newTombstones[msg.InstanceID, struct{}](clk, time.Minute),
		lastSeen:       make(map[msg.NodeID]sim.Time),
		believedDead:   make(map[msg.NodeID]bool),
		// A resume clears the park tombstone early; the minute bounds the
		// set when the stream never comes back — by then every state of
		// the parked stream has aged past the late-state cutoff anyway.
		parkedInst:    newTombstones[msg.InstanceID, struct{}](clk, time.Minute),
		parkedTickets: newTombstones[msg.InstanceID, msg.ScavengedPark](clk, parkedTicketTTL),
		rejoin:        round{token: 1},
		peers:         make(marks[msg.NodeID, struct{}]),
		startWait:     obs.NewHistogram(startWaitBounds),
		recovery:      obs.NewHistogram(RecoveryBounds),
		fwdPending:    make(map[msg.NodeID]*msg.Batch),
	}
	c.onForward, c.onHeartbeat = c.forwardTick, c.heartbeatTick
	for i, d := range diskNums {
		dr := &c.drives[i]
		dr.dk, dr.native = disk.New(d, cfg.DiskParams, clk, rng), d
		w := &dr.walk
		w.c, w.armedFor, w.onTimer = c, never, w.fire
	}
	c.mover = moverState{queued: make(map[mvKey]bool), done: make(map[mvKey]bool)}
	// Monitor liveness of the cubs we must make decisions about: up to
	// max(2, decluster+1) hops in each ring direction, per generation.
	c.refreshMonitored()
	return c
}

// ID returns the cub's node ID.
func (c *Cub) ID() msg.NodeID { return c.id }

// Stats returns a snapshot of the cub's counters.
func (c *Cub) Stats() CubStats { return c.stats }

// Epoch returns the cub's current liveness epoch. Epochs start at 1 and
// bump on every Restart, so any message stamped with an older epoch is
// provably from a dead incarnation.
func (c *Cub) Epoch() int32 { return int32(c.rejoin.token) }

// SetEpoch installs a persisted epoch; call before Start when bringing a
// cub process back with state recovered from stable storage (the rt
// runtime uses it so a re-launched tigerd resumes past its old epoch).
func (c *Cub) SetEpoch(e int32) { c.rejoin.token = max(c.rejoin.token, int64(e)) }

// MirrorLoadFor returns the number of mirror entries this cub currently
// holds covering services on owner's disks — the load that should drain
// back to owner after it restarts and rejoins.
func (c *Cub) MirrorLoadFor(owner msg.NodeID) int {
	n := 0
	c.view.each(func(e *entry) {
		if e.key.part >= 0 && c.layoutOf(e.key.slot).CubOfDisk(int(e.vs.OrigDisk)) == owner {
			n++
		}
	})
	return n
}

// BelievesDead reports whether this cub currently believes z dead.
func (c *Cub) BelievesDead(z msg.NodeID) bool { return c.believedDead[z] }

// BelievedDead returns the number of peers this cub currently believes
// dead; convergence checks expect it to return to 0 after all faults
// heal.
func (c *Cub) BelievedDead() int { return len(c.believedDead) }

// FailedDisks returns how many of this cub's own drives are out of
// service (permanently failed or health-quarantined).
func (c *Cub) FailedDisks() int { return c.countDrives(DiskQuarantined, DiskFailed) }

// QuarantinedDisks returns how many of this cub's drives are currently
// health-quarantined — the probed subset of FailedDisks.
func (c *Cub) QuarantinedDisks() int { return c.countDrives(DiskQuarantined, DiskQuarantined) }

// countDrives counts the drives whose state lies in [lo, hi].
func (c *Cub) countDrives(lo, hi DiskHealthState) int {
	n := 0
	for i := range c.drives {
		if s := c.drives[i].health.state; lo <= s && s <= hi {
			n++
		}
	}
	return n
}

// RecoveryTimes returns the restart-to-reintegration histogram (seconds).
func (c *Cub) RecoveryTimes() *obs.Histogram { return c.recovery }

// ViewSize returns the number of schedule entries currently in the cub's
// view — the quantity the scalability argument of §4 bounds.
func (c *Cub) ViewSize() int { return c.view.len() }

// QueueLen returns the number of start requests waiting for a free slot,
// maintained as a counter so reading it is O(1) instead of a sweep over
// every per-disk queue.
func (c *Cub) QueueLen() int { return c.queueLen }

// Disks exposes the cub's drive models for metrics collection, keyed by
// native disk number (the numbering of the cub's birth generation).
func (c *Cub) Disks() map[int]*disk.Disk {
	m := make(map[int]*disk.Disk, len(c.drives))
	for i := range c.drives {
		m[c.drives[i].native] = c.drives[i].dk
	}
	return m
}

// Disk returns the cub's idx-th local drive. Callers holding a global
// disk number under any generation's layout reach the drive via
// (CubOfDisk, disk/cubs) without knowing the cub's native numbering.
func (c *Cub) Disk(idx int) *disk.Disk { return c.drives[idx].dk }

// SetSink directs the cub's protocol steps to s: one trace.Event per
// step, at the program point where it happens. Observation only:
// subscribers must not call back into the cub.
func (c *Cub) SetSink(s *trace.Sink) { c.sink = s }

// step reports protocol step k of the service vs describes, on disk d
// (-1 for none). A kind nobody subscribed to costs the Wants test: no
// clock read, no event built.
func (c *Cub) step(k trace.Kind, vs *msg.ViewerState, d int32) {
	if !c.sink.Wants(k) {
		return
	}
	c.sink.Emit(trace.Event{
		At: c.clk.Now(), Node: c.id, Kind: k, Disk: d, Traced: vs.Trace != 0,
		Slot: vs.Slot, Instance: vs.Instance, Block: vs.Block, Mirror: vs.Mirror,
		Viewer: vs.Viewer, PlaySeq: vs.PlaySeq, Part: vs.Part, Due: vs.Due,
	})
}

// Start begins the cub's periodic activities: heartbeats and the
// viewer-state forwarding batcher.
func (c *Cub) Start() {
	if c.started {
		return
	}
	c.started = true
	now := c.clk.Now()
	for _, n := range c.monitored {
		c.lastSeen[n] = now
	}
	c.heartbeatTick()
	c.forwardTick()
}

// FailDisk marks this cub's idx-th drive as permanently dead. The
// cub itself keeps running and converts schedule entries for that disk
// into mirror viewer states ("the decision to send this data is made by
// the cub succeeding the failed component" — for a lone disk, its own
// cub is the first living component that can decide). Unlike a health
// quarantine, a FailDisk is never probed: the drive stays retired until
// operator action replaces it.
func (c *Cub) FailDisk(idx int) {
	dr := c.driveAt(idx)
	if dr == nil {
		panic(fmt.Sprintf("cub %v: no local drive %d", c.id, idx))
	}
	c.transition(dr, DiskFailed)
}

// retireDisk converts every pending schedule entry on drive dr, which
// has just left service, to mirror service. Shared by the permanent
// FailDisk path and the health monitor's quarantine; the drive's new
// state is already set, and picks the reason pending copies are nacked
// with.
func (c *Cub) retireDisk(dr *drive) {
	// Any restripe copies pending on the drive cannot be produced any
	// more; tell the coordinator so it re-routes them to a mirror.
	c.moverDiskRetired(dr)
	// Convert pending entries on that disk to mirror service.
	for _, k := range c.view.sortedKeys(func(e *entry) bool { return e.key.part == -1 && e.disk == dr.native }) {
		e := c.view.get(k)
		if e.vs.Due > int64(c.clk.Now()) && !e.hedged {
			// Hedged entries already launched their mirror chain; starting
			// another would only create duplicate gossip. The mirror route
			// is resolved under the entry's own generation.
			if cfg := c.cfgOf(k.slot); cfg != nil {
				c.createMirrors(e.vs, c.genLocalDisk(cfg.Layout, dr.native))
			}
		}
		c.dropEntryRelease(k)
	}
	c.flushForwards()
}

// --- ring arithmetic ---
//
// Ring geometry is per generation: the cub ring widens and narrows with
// the striping generation in play, so every helper takes the layout of
// the generation whose traffic it is routing.

func ringAddIn(lay layout.Config, id msg.NodeID, i int) msg.NodeID {
	n := lay.Cubs
	return msg.NodeID(((int(id)+i)%n + n) % n)
}

func ringDist(cfg *Config, from, to msg.NodeID) int {
	n := cfg.Layout.Cubs
	return ((int(to)-int(from))%n + n) % n
}

// nthLivingSuccessorIn returns the n-th (1-based) successor believed
// alive on lay's ring, or ok=false if the whole ring seems dead (or
// this cub is not on it).
func (c *Cub) nthLivingSuccessorIn(lay layout.Config, n int) (msg.NodeID, bool) {
	if int(c.id) >= lay.Cubs {
		return 0, false
	}
	found := 0
	for i := 1; i < lay.Cubs; i++ {
		s := ringAddIn(lay, c.id, i)
		if !c.believedDead[s] {
			found++
			if found == n {
				return s, true
			}
		}
	}
	return 0, false
}

// firstLivingSuccessorOfIn reports whether this cub is the first living
// successor of z on lay's ring (the decision-maker for z's mirror
// takeover under that generation).
func (c *Cub) firstLivingSuccessorOfIn(lay layout.Config, z msg.NodeID) bool {
	for i := 1; i < lay.Cubs; i++ {
		s := msg.NodeID((int(z) + i) % lay.Cubs)
		if s == c.id {
			return true
		}
		if !c.believedDead[s] {
			return false
		}
	}
	return false
}

// --- message handling ---

// Deliver implements netsim.Handler: the single entry point for all
// control messages. m is valid only during the call — under rt it is a
// record the mesh decodes a later frame into (msg.Pool) — so dispatch
// copies every pooled kind by value and step emits by value; only the
// kinds a pool never reuses are kept by pointer.
func (c *Cub) Deliver(from msg.NodeID, m msg.Message) {
	c.stats.MsgsRecv++
	switch t := m.(type) {
	case *msg.Batch:
		for _, inner := range t.Msgs {
			c.deliverOne(from, inner)
		}
	default:
		c.deliverOne(from, m)
	}
}

// deliverOne admits m through its fence (fence.go) and dispatches it.
func (c *Cub) deliverOne(from msg.NodeID, m msg.Message) {
	if c.admit(from, m) {
		c.dispatch(m)
	}
}

func (c *Cub) dispatch(m msg.Message) {
	switch t := m.(type) {
	case *msg.ViewerState:
		c.onViewerState(*t)
	case *msg.Deschedule:
		c.onDeschedule(*t)
	case *msg.StartPlay:
		c.onStartPlay(*t)
	case *msg.StartAck:
		c.onStartAck(*t)
	case *msg.Heartbeat:
		if t.From == msg.Controller {
			c.ctlAlive()
		} else {
			c.lastSeen[t.From] = c.clk.Now()
		}
	case *msg.RejoinRequest:
		c.onRejoinRequest(*t)
	case *msg.RejoinReply:
		c.onRejoinReply(t)
	case *msg.RejoinConfirm:
		c.onRejoinConfirm(t)
	case *msg.MoveOrder:
		c.onMoveOrder(*t)
	case *msg.CubDown:
		c.onCubDown(t)
	case *msg.Park:
		c.onPark(*t)
	case *msg.Resume:
		c.onResume(*t)
	case *msg.ScavengeReq:
		c.onScavengeReq(*t)
	case *msg.MoveData:
		c.onMoveData(*t)
	default:
		// A Hello is all fence: its epoch is how the rt mesh learns of a
		// restarted incarnation. ReserveReq/Resp are mbr.go's.
	}
}
