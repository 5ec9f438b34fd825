// Package tiger is a simulation-backed implementation of the Tiger video
// fileserver's distributed schedule management (Bolosky, Fitzgerald &
// Douceur, SOSP 1997).
//
// A Cluster assembles the full system — controller, cubs, zoned disks,
// switched network, striped/declustered content, and verification
// viewers — on a deterministic discrete-event simulator. The protocol
// implementation itself lives in internal/core and is shared with the
// real-time TCP runtime (internal/rt); this package is the public
// surface for building systems, playing streams, injecting failures, and
// measuring what the paper measures.
//
// Quick start:
//
//	c, err := tiger.New(tiger.DefaultOptions())
//	...
//	s, err := c.Play(0, 0)         // viewer starts file 0 at block 0
//	c.RunFor(30 * time.Second)     // advance virtual time
//	fmt.Println(s.Viewer.Stats())  // blocks received / lost
package tiger

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/metrics"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/obs"
	"tiger/internal/sim"
	"tiger/internal/trace"
	"tiger/internal/viewer"
)

// Options configure a simulated Tiger system. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// Hardware shape.
	Cubs        int
	DisksPerCub int
	Decluster   int
	// DomainSize groups consecutive cubs into failure domains of this
	// many machines (racks, power strips); 0 or 1 keeps every cub its
	// own domain. CrashDomain kills a whole domain atomically.
	DomainSize int

	// Content and stream geometry (single-bitrate system).
	BlockPlay     time.Duration
	StreamBitrate int64 // bits/s; BlockSize is derived when zero
	BlockSize     int64 // bytes; zero derives bitrate×blockPlay/8
	NumFiles      int
	FileBlocks    int // blocks per file (3600 ≈ one hour at 1 s blocks)

	// Models.
	DiskParams disk.Params
	NetParams  netsim.Params

	// Protocol settings. Zero leads take core's defaults (4 and 9 block
	// plays), as every other protocol timing does.
	MinVStateLead time.Duration
	MaxVStateLead time.Duration
	AdmitLimit    float64
	SingleForward bool // ablation: forward viewer states once, not twice

	// Health switches the gray-failure monitor (fail-slow detection,
	// hedged mirror reads, quarantine); Health.Disable turns it off for
	// baselines.
	Health core.HealthParams

	// Governor switches the graceful-degradation governor: on capacity
	// loss beyond mirror coverage it parks the fewest streams needed so
	// the survivors see zero deadline misses, and re-admits them when a
	// rejoin restores coverage. Off unless Governor.Enable is set.
	Governor core.GovernorParams

	// ClientDropProb is the chance a client machine drops a block it
	// received.
	ClientDropProb float64

	// RampSpacing staggers RampTo start requests, like the paper's
	// staggered client starts; zero issues them all at once.
	RampSpacing time.Duration

	// RestartStalled, when positive, makes viewers behave like real
	// clients: after this many consecutive lost blocks they abandon the
	// play and re-request the file. Recovers streams whose schedule
	// information was wiped out by multi-failure events the protocol
	// does not cover (e.g. partitions).
	RestartStalled int

	// RestripeLinger overrides the grace window an elastic restripe
	// holds the drained old generation before dropping it (elastic.go);
	// zero takes the direction-dependent default.
	RestripeLinger time.Duration

	// Shards, when > 1, partitions the simulation across that many
	// engines run by a conservative parallel coordinator (sim.Sharded),
	// with the network's base link latency as the lookahead. Cubs are
	// spread round-robin; shard 0 additionally hosts the controller,
	// every viewer, and the harness. Results are byte-identical across
	// ShardWorkers settings (including 1), but NOT to an unsharded run
	// of the same options: sharding re-partitions the random streams.
	//
	// A sharded cluster is for scale experiments and trades away some
	// single-threaded harness extras: the slot-conflict oracle and
	// receipt-slack spans are off, and the flight recorder and the
	// elastic restripe are refused. The registry is attached as on any cluster; read it
	// (Registry, ExportMetrics) between RunFor calls, the rule
	// TotalCubStats already has. Chaos/fault injection IS supported — the
	// runner applies steps and sweeps invariants between RunFor slices,
	// when no shard goroutine is executing — but event subscribers that
	// fire during the run (the chaos serve oracle, the trace ring)
	// observe cubs from concurrent shard goroutines and must take their
	// own locks.
	Shards int
	// ShardWorkers bounds the goroutines executing shards; 0 means one
	// per shard, 1 runs the sharded model serially (the determinism
	// reference).
	ShardWorkers int

	Seed int64
}

// DefaultOptions returns the paper's measured configuration: fourteen
// cubs with four disks each, 2 Mbit/s streams, 0.25 Mbyte blocks (one
// second of video), decluster factor four — a 602-stream system (§5).
func DefaultOptions() Options {
	return Options{
		Cubs:           14,
		DisksPerCub:    4,
		Decluster:      4,
		BlockPlay:      time.Second,
		StreamBitrate:  2_000_000,
		BlockSize:      262144, // 0.25 Mbyte: a 2 Mbit/s-second plus the single-bitrate system's internal fragmentation (§2.2)
		NumFiles:       64,
		FileBlocks:     3600,
		DiskParams:     disk.DefaultParams(),
		NetParams:      netsim.DefaultParams(),
		ClientDropProb: 0.000004,
		RampSpacing:    200 * time.Millisecond,
		Seed:           1,
	}
}

// Cluster is a fully assembled simulated Tiger system.
type Cluster struct {
	Opt Options
	Cfg *core.Config

	Eng        *sim.Engine // shard 0's engine in a sharded cluster
	Net        *netsim.Network
	Controller *core.Controller
	Cubs       []*core.Cub
	Loss       *metrics.LossLog

	// sharded is the conservative parallel coordinator driving all
	// engines; nil for a single-engine cluster. engines[0] == Eng.
	sharded *sim.Sharded
	engines []*sim.Engine

	// StartupLatency accumulates request→first-byte times with the
	// schedule load at request time (Figure 10's two axes).
	StartupLatency *metrics.Summary
	StartupPoints  []StartupPoint

	rng  *rand.Rand
	reg  *obs.Registry
	ring *trace.Ring // nil until EnableTrace

	machines   []*viewer.Machine
	streams    map[msg.InstanceID]*Stream
	nextViewer msg.ViewerID
	oracle     *slotOracle

	// parkedEOF carries a parked stream's replay handler across the
	// park/re-admission gap, keyed by the old viewer (park.go).
	parkedEOF map[msg.ViewerID]func(*Stream)

	// sink receives every protocol step of the controller and of every
	// cub — cubs created mid-run by an elastic restripe included. The
	// span histograms, the loss log's server half, the built-in
	// slot-conflict oracle, the trace ring, the causal chain logs, a chaos
	// harness and the flight recorder subscribe to it, so they stack
	// instead of replacing each other.
	sink  trace.Sink
	spans []*obs.SpanRecorder // per cub, indexed like Cubs

	// Causal tracing state (causal.go); nil until EnableCausalTrace.
	chains         []*trace.ChainLog // the controller's, then per cub in Cubs order
	chainMaxChains int
	chainMaxHops   int
	flight         *FlightRecorder // nil until EnableFlightRecorder

	// rs is the elastic restripe's record (elastic.go).
	rs RestripeInfo

	// ctlDown mirrors the controller's crashed state for the harness and
	// the chaos runner; stream admission retries while it is set.
	ctlDown bool

	// Client start-retry tallies around controller outages (stream.go).
	startRetries   int64
	startAbandoned int64

	// cumulative viewer tallies, folded in as streams finish
	tallyOK, tallyLost, tallyMirror int64

	// replay and timedDelivery, bound once (stream.go)
	replayFn        func(*Stream)
	timedDeliveryFn func(netsim.BlockDelivery, time.Duration)
}

// StartupPoint is one stream start: the schedule load when it was
// requested and how long the viewer waited for its first block.
type StartupPoint struct {
	Load    float64
	Latency time.Duration
}

// New builds a cluster: the Config core.BuildConfig derives from the
// options' shape, with file placement seeded by Options.Seed and the
// options' protocol settings applied over it.
func New(o Options) (*Cluster, error) {
	cfg, err := core.BuildConfig(core.SystemSpec{
		Cubs: o.Cubs, DisksPerCub: o.DisksPerCub, Decluster: o.Decluster, DomainSize: o.DomainSize,
		BlockPlay: o.BlockPlay, BlockSize: o.BlockSize, Bitrate: o.StreamBitrate,
		NumFiles: o.NumFiles, FileBlocks: o.FileBlocks, FileSeed: o.Seed,
		DiskParams: o.DiskParams,
	})
	if err != nil {
		return nil, err
	}
	if o.MinVStateLead != 0 {
		cfg.MinVStateLead = o.MinVStateLead
	}
	if o.MaxVStateLead != 0 {
		cfg.MaxVStateLead = o.MaxVStateLead
	}
	cfg.AdmitLimit, cfg.SingleForward = o.AdmitLimit, o.SingleForward
	cfg.Health, cfg.Governor = o.Health, o.Governor
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The options keep the derived geometry: every file has the
	// system's one block size and bitrate.
	o.BlockSize, o.StreamBitrate = cfg.BlockSize, cfg.Files[0].Bitrate

	shards := o.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > 1 && o.NetParams.LatencyBase <= 0 {
		return nil, fmt.Errorf("tiger: sharding needs a positive network base latency for lookahead")
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		// Distinct seeds per shard: each engine's rng must be an
		// independent stream, and the derivation must be a pure function
		// of (Seed, shard) so runs stay reproducible.
		engines[i] = sim.New(o.Seed + int64(i)*1_000_003)
	}
	eng := engines[0]
	clk := clock.Sim{Eng: eng}

	net := netsim.New(o.NetParams, clk, eng.Rand())
	c := &Cluster{
		Opt:            o,
		Cfg:            cfg,
		Eng:            eng,
		Net:            net,
		engines:        engines,
		Loss:           &metrics.LossLog{},
		StartupLatency: &metrics.Summary{},
		rng:            rand.New(rand.NewSource(o.Seed + 2)),
		streams:        make(map[msg.InstanceID]*Stream),
		oracle:         newSlotOracle(),
	}
	c.replayFn, c.timedDeliveryFn = c.replay, c.timedDelivery
	shardOf := func(id msg.NodeID) int {
		if id < 0 {
			return 0 // controller (and any other sentinel) lives with the harness
		}
		return int(id) % shards
	}
	if shards > 1 {
		workers := o.ShardWorkers
		if workers < 1 {
			workers = shards
		}
		c.sharded = sim.NewSharded(engines, o.NetParams.LatencyBase, workers)
		clocks := make([]clock.Clock, shards)
		for i := range clocks {
			clocks[i] = clock.Sim{Eng: engines[i]}
		}
		net.SetSharded(&netsim.ShardMap{
			ShardOf:     shardOf,
			Clocks:      clocks,
			Post:        c.sharded.Post,
			ViewerShard: 0,
			Seed:        o.Seed,
		})
	}

	c.reg = obs.NewRegistry()
	c.reg.GaugeFunc("tiger_restripe_phase", "Elastic restripe phase: 0 idle, 1 copy, 2 cutover, 3 drain, 4 linger, 5 done.", nil,
		func() float64 { return float64(c.rs.Phase) })
	c.reg.CounterFunc("tiger_client_start_retries_total", "Start-play admissions retried because the controller was down or scavenging.", nil,
		func() float64 { return float64(c.startRetries) })
	c.reg.CounterFunc("tiger_client_start_abandons_total", "Start-play requests abandoned after exhausting failover retries.", nil,
		func() float64 { return float64(c.startAbandoned) })
	c.Controller = core.NewController(cfg, clk, net)
	c.Controller.SetSink(&c.sink)
	c.Controller.AttachObs(c.reg)
	c.reg.AddCollector(func(emit obs.Emit) { c.Controller.Snapshot().Collect(emit) })
	c.Controller.OnRestripeDone = c.advance
	c.Controller.OnParked = c.onParked
	c.Controller.OnReadmit = c.onReadmit
	net.Register(msg.Controller, c.Controller)
	net.AttachObs(c.reg)
	c.sink.Subscribe(obs.SpanKinds, func(e trace.Event) { c.spans[e.Node].Observe(e) })
	c.sink.Subscribe(trace.KindSet(trace.Miss), func(e trace.Event) { c.Loss.RecordServerMiss(e.At) })
	if c.sharded == nil {
		// The slot-conflict oracle is harness state shared across every
		// node; in a sharded run cubs execute concurrently, so it stays
		// off there.
		c.sink.Subscribe(trace.KindSet(trace.Insert), c.onInsertOracle)
	}
	for i := 0; i < o.Cubs; i++ {
		cclk := clock.Clock(clk)
		crng := eng.Rand()
		if c.sharded != nil {
			sh := shardOf(msg.NodeID(i))
			cclk = clock.Sim{Eng: engines[sh]}
			// Each cub draws disk jitter etc. from a private stream: a
			// shared rng would race across shards and break determinism.
			crng = rand.New(rand.NewSource(o.Seed + 7_368_787*int64(i+1)))
		}
		cub := core.NewCub(msg.NodeID(i), cfg, cclk, net, net, crng)
		c.adopt(cub)
		net.Register(msg.NodeID(i), cub)
		c.Cubs = append(c.Cubs, cub)
	}
	for _, cub := range c.Cubs {
		cub.Start()
	}
	c.Controller.Start()
	return c, nil
}

// adopt wires a cub — at build time, or created mid-run by an elastic
// restripe — to what the cluster shares: the step sink, with the cub's
// own span histograms and (when causal tracing is on) chain log behind
// it, and the registry, which collects the cub's stats when it is encoded.
func (c *Cluster) adopt(cub *core.Cub) {
	cub.SetSink(&c.sink)
	cub.AttachObs(c.reg)
	c.spans = append(c.spans, obs.NewSpanRecorder(c.reg, obs.Labels{"cub": strconv.Itoa(int(cub.ID()))}))
	if c.chains != nil {
		c.chains = append(c.chains, trace.NewChainLog(c.chainMaxChains, c.chainMaxHops))
	}
	c.reg.AddCollector(func(emit obs.Emit) { cub.Snapshot().Collect(emit) })
}

// Shards reports the shard count driving this cluster (1 when the
// simulation is single-engine).
func (c *Cluster) Shards() int {
	if c.sharded == nil {
		return 1
	}
	return c.sharded.Shards()
}

// EventsProcessed reports the total simulation events executed so far,
// summed across shards — the denominator for ns/event budgets.
func (c *Cluster) EventsProcessed() uint64 {
	if c.sharded != nil {
		return c.sharded.Processed()
	}
	return c.Eng.Processed()
}

// Registry exposes the cluster's metrics registry: every cub, disk,
// controller, and network instrument, plus the block-lifecycle
// deadline-slack histograms. Encode it with WritePrometheus or
// WriteJSONL, or read individual series in tests.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Capacity returns the planned whole-system stream capacity (602 in the
// default configuration).
func (c *Cluster) Capacity() int { return c.Cfg.Capacity().Streams }

// CapacityPlan exposes the full capacity computation.
func (c *Cluster) CapacityPlan() disk.Capacity { return c.Cfg.Capacity() }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.Eng.Now() }

// RunFor advances the simulation by d. In a sharded cluster this drives
// the conservative coordinator, which leaves every shard's clock —
// including Eng's, which Now reads — at the same instant.
func (c *Cluster) RunFor(d time.Duration) {
	if c.sharded != nil {
		c.sharded.RunFor(d)
		return
	}
	c.Eng.RunFor(d)
}

// Active returns the number of inserted streams.
func (c *Cluster) Active() int { return c.Controller.Active() }

// Load returns the current schedule load fraction.
func (c *Cluster) Load() float64 {
	return float64(c.Controller.Active()) / float64(c.Cfg.Sched.NumSlots)
}

// FailCub kills a cub: it stops sending and receiving, as in the paper's
// power-cut experiment.
func (c *Cluster) FailCub(i int) { c.Net.Fail(msg.NodeID(i)) }

// ReviveCub ends a network blip: the cub reconnects with its state
// intact (its view has gone stale, but the entries survived) and catches
// up from incoming viewer states. For a machine that actually lost its
// memory, use RestartCub.
func (c *Cluster) ReviveCub(i int) { c.Net.Revive(msg.NodeID(i)) }

// CrashCub kills a cub like FailCub and additionally drops everything
// the old incarnation still had in flight, modelling a machine crash
// rather than a network blip. Bring it back with RestartCub. When the
// degradation governor is enabled the crash is advised to it
// immediately, standing in for a rack controller's out-of-band failure
// notification.
func (c *Cluster) CrashCub(i int) {
	c.Net.Crash(msg.NodeID(i))
	c.Controller.NoteCubsDown([]msg.NodeID{msg.NodeID(i)})
}

// RestartCub cold-restarts a crashed cub: reconnects it, wipes its
// volatile state, bumps its liveness epoch, and runs the rejoin
// handshake that rebuilds its view and hands mirror load back.
//
// It ends with a forced collection, and not for the program's sake.
// bench/ takes benchmark-only changes, and its package test
// (bench_test.go, TestSmokeTraced) requires some one-second smoke
// window to report a non-zero go.gc_cycles_per_kblock. With the block
// path no longer allocating, no window collects on its own (3.5-8 MB
// allocated against the 14 MB of headroom the harness's reference loop
// leaves), and the restart inside churn-fail-14's window is the one
// call the program gets there. It costs every restart a full
// collection: 4.5 ms at 14 cubs, 47 ms at 200. ROADMAP item 1 tracks
// the removal: once a benchmark-only change lists that metric among
// those that may be zero on a healthy run, this call and its import go.
func (c *Cluster) RestartCub(i int) {
	c.Net.Revive(msg.NodeID(i))
	c.Cubs[i].Restart()
	c.Controller.NoteCubUp(msg.NodeID(i))
	runtime.GC()
}

// CrashDomain kills every cub of failure domain d atomically — the
// correlated failure a rack losing power produces — and advises the
// governor of the whole group in one notification, so the park sweep
// sees the combined unservable set rather than discovering it cub by
// cub. Returns the member cub indices. Domains are configured with
// Options.DomainSize.
func (c *Cluster) CrashDomain(d int) ([]int, error) {
	members := c.Cfg.Layout.CubsOfDomain(d)
	if members == nil {
		return nil, fmt.Errorf("tiger: no failure domain %d (have %d)", d, c.Cfg.Layout.NumDomains())
	}
	out := make([]int, 0, len(members))
	for _, z := range members {
		c.Net.Crash(z)
		out = append(out, int(z))
	}
	c.Controller.NoteCubsDown(members)
	return out, nil
}

// RestartDomain cold-restarts every cub of failure domain d, in cub
// order, and returns the member indices.
func (c *Cluster) RestartDomain(d int) ([]int, error) {
	members := c.Cfg.Layout.CubsOfDomain(d)
	if members == nil {
		return nil, fmt.Errorf("tiger: no failure domain %d (have %d)", d, c.Cfg.Layout.NumDomains())
	}
	out := make([]int, 0, len(members))
	for _, z := range members {
		c.RestartCub(int(z))
		out = append(out, int(z))
	}
	return out, nil
}

// Unservable returns the disks no live copy can serve right now —
// primaries on dead cubs whose mirror coverage is also dead — computed
// from the layout and the governor's down set. Empty unless the
// governor is enabled and a correlated failure is in progress.
func (c *Cluster) Unservable() []int {
	gs := c.Controller.GovernorStats()
	if gs.Unservable == 0 {
		return nil
	}
	return c.Cfg.Layout.UnservableDisks(c.Net.Failed)
}

// diskModel returns the simulated drive behind global disk number d
// under the current layout. The cub-local drive index is invariant
// across striping generations, so the translation survives restripes
// that renumbered every disk.
func (c *Cluster) diskModel(d int) *disk.Disk {
	lay := c.Cfg.Layout
	return c.Cubs[int(lay.CubOfDisk(d))].Disk(d / lay.Cubs)
}

// FailDiskSlow makes global disk d a fail-slow drive: every read takes
// factor× its nominal service time, without any hard error. This is the
// gray failure the health monitor (suspect → hedge → quarantine) exists
// for. Chaos scenarios name drives cub-locally instead (chaos.DiskSlow,
// chaos.DiskHeal).
func (c *Cluster) FailDiskSlow(d int, factor float64) {
	dk := c.diskModel(d)
	f := dk.Faults()
	f.SlowFactor = factor
	dk.SetFaults(f)
}

// DiskHealth reports the owning cub's health-monitor state for global
// disk d under the current layout.
func (c *Cluster) DiskHealth(d int) core.DiskHealthState {
	lay := c.Cfg.Layout
	return c.Cubs[int(lay.CubOfDisk(d))].DiskHealth(d / lay.Cubs)
}

// MirrorLoadFor returns the number of mirror-piece schedule entries the
// rest of the system currently holds covering cub i's disks — the extra
// service cost the ring pays while i is down, which reintegration must
// drain back to zero.
func (c *Cluster) MirrorLoadFor(i int) int {
	n := 0
	for j, cub := range c.Cubs {
		if j == i {
			continue
		}
		n += cub.MirrorLoadFor(msg.NodeID(i))
	}
	return n
}

// viewersPerMachine is how many viewers share one simulated client
// machine.
const viewersPerMachine = 20

// machineFor places viewers onto simulated client machines.
func (c *Cluster) machineFor(v msg.ViewerID) *viewer.Machine {
	idx := int(v) / viewersPerMachine
	for len(c.machines) <= idx {
		cap := viewersPerMachine - 2 // a little under-provisioned at full packing
		c.machines = append(c.machines, viewer.NewMachine(cap, c.Opt.ClientDropProb, c.rng))
	}
	return c.machines[idx]
}

// InvariantViolations reports slot-conflict violations observed by the
// built-in oracle; it must be zero in every run.
func (c *Cluster) InvariantViolations() int { return c.oracle.violations }

// MaxViewSize returns the largest view any cub holds now.
func (c *Cluster) MaxViewSize() int {
	m := 0
	for _, cub := range c.Cubs {
		if v := cub.ViewSize(); v > m {
			m = v
		}
	}
	return m
}

// ViewerTotals sums delivery outcomes across all finished and live
// streams: blocks verified on time, blocks lost, and blocks assembled
// from declustered mirror pieces.
func (c *Cluster) ViewerTotals() (ok, lost, mirror int64) {
	ok, lost, mirror = c.tallyOK, c.tallyLost, c.tallyMirror
	for _, s := range c.streams {
		st := s.Viewer.Stats()
		ok += st.BlocksOK
		lost += st.BlocksLost
		mirror += st.MirrorBlocks
	}
	return
}

// TotalCubStats sums the counters of all cubs, field by field, so a
// counter added to core.CubStats is summed without being listed here.
// PeakBuffered, a per-cub high-water mark, has no meaningful sum and
// stays zero.
func (c *Cluster) TotalCubStats() core.CubStats {
	var t core.CubStats
	tv := reflect.ValueOf(&t).Elem()
	for _, cub := range c.Cubs {
		sv := reflect.ValueOf(cub.Stats())
		for i := 0; i < tv.NumField(); i++ {
			tv.Field(i).SetInt(tv.Field(i).Int() + sv.Field(i).Int())
		}
	}
	t.PeakBuffered = 0
	return t
}

// onInsertOracle feeds the conflict oracle, skipping insertions of
// streams that already finished: a stop can race an in-flight insertion,
// in which case the controller deschedules the slot on the late ack and
// no double occupancy occurs (§4.1.2 idempotence makes this safe).
// Insertions reported by a cub the network has down are skipped too: a
// crashed machine's timers keep running until RestartCub wipes it, and
// the queued starts it goes on "inserting" reach nobody.
func (c *Cluster) onInsertOracle(e trace.Event) {
	inst, slot := e.Instance, e.Slot
	if _, live := c.streams[inst]; !live || c.Net.Failed(e.Node) {
		return
	}
	// A slot frees for re-insertion before its stream finishes: cubs
	// stop forwarding next-hop states at end of file, so once the final
	// viewer state is within the forwarding lead the successors see the
	// slot empty while the last services and the client's play-out are
	// still running. EOF-replay churn at full load re-inserts inside
	// that gap constantly; release the previous occupant eagerly once
	// it is provably in that tail, so the oracle only flags genuine
	// double occupancy.
	if prev, busy := c.oracle.occupant(slot); busy && prev != inst {
		lead := int32(c.Cfg.MaxVStateLead/c.Cfg.Sched.BlockPlay) + 2
		if s, live := c.streams[prev]; live && s.Viewer.InFinalWindow(lead) {
			c.oracle.release(prev)
		}
	}
	c.oracle.onInsert(slot, inst)
}

// slotOracle is the test-side conflict detector: it tracks which
// instance occupies each slot and flags double occupancy. It exists
// outside the protocol — the cubs themselves have no global view.
type slotOracle struct {
	slots      map[int32]msg.InstanceID
	ends       map[msg.InstanceID]int32
	violations int
}

func newSlotOracle() *slotOracle {
	return &slotOracle{slots: make(map[int32]msg.InstanceID), ends: make(map[msg.InstanceID]int32)}
}

func (o *slotOracle) onInsert(slot int32, inst msg.InstanceID) {
	if cur, busy := o.slots[slot]; busy && cur != inst {
		o.violations++
		return
	}
	o.slots[slot] = inst
	o.ends[inst] = slot
}

// occupant reports which instance currently holds slot, if any.
func (o *slotOracle) occupant(slot int32) (msg.InstanceID, bool) {
	inst, ok := o.slots[slot]
	return inst, ok
}

func (o *slotOracle) release(inst msg.InstanceID) {
	if slot, ok := o.ends[inst]; ok {
		if o.slots[slot] == inst {
			delete(o.slots, slot)
		}
		delete(o.ends, inst)
	}
}

// Type aliases so users of the public API never need to import internal
// packages.
type (
	// FileID names a striped content file.
	FileID = msg.FileID
	// ViewerID identifies a client endpoint.
	ViewerID = msg.ViewerID
	// InstanceID identifies one start-play request.
	InstanceID = msg.InstanceID
	// NodeID identifies a machine (cubs 0..n-1; controller -1).
	NodeID = msg.NodeID
)
