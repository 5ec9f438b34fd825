// Package netsim models Tiger's switched network (§2.1): an ATM-class
// switch with enough aggregate bandwidth that only per-NIC capacity and
// per-link latency matter. Control messages between nodes are delivered
// reliably and in order per sender/receiver pair, mirroring the paper's
// use of TCP between cubs (§4.1.3 relies on this ordering for the
// insert-after-deschedule argument). Failed nodes neither send nor
// receive.
//
// The data path — paced block sends from cubs to viewers — is modelled as
// per-NIC bandwidth occupancy plus a delivery event for the block's last
// byte, which is what the paper's verification clients time.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/recycle"
	"tiger/internal/sim"
)

// Params describe the network model.
type Params struct {
	LatencyBase   time.Duration // one-way propagation + switching
	LatencyJitter time.Duration // additional uniform [0,J) per message
	NICRate       float64       // usable bytes/s of one cub's network interface
}

// DefaultParams model the paper's FORE OC-3 ATM adapters: 155 Mbit/s raw,
// roughly 16.5 MB/s usable after cell and AAL5 overhead, sub-millisecond
// switch latency.
func DefaultParams() Params {
	return Params{
		LatencyBase:   300 * time.Microsecond,
		LatencyJitter: 400 * time.Microsecond,
		NICRate:       16.5e6,
	}
}

// Handler receives control messages addressed to a node.
type Handler interface {
	Deliver(from msg.NodeID, m msg.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from msg.NodeID, m msg.Message)

func (f HandlerFunc) Deliver(from msg.NodeID, m msg.Message) { f(from, m) }

// Reclaimer is an optional Handler refinement. When the network has
// finished with a control message the node sent, it hands the message
// back through Reclaim after the destination's Deliver has run (or the
// arrival was dropped because an endpoint failed or crashed in flight):
// in the arrival event when both nodes run on one executor, else at the
// next window barrier of a sharded run. Returns says up front which
// sends come back; no other send is ever returned.
type Reclaimer interface {
	Reclaim(to msg.NodeID, m msg.Message)
}

// BlockDelivery describes one block (or declustered mirror piece) sent to
// a viewer.
type BlockDelivery struct {
	Viewer   msg.ViewerID
	Instance msg.InstanceID
	Addr     [16]byte // viewer network address (used by the rt transport)
	File     msg.FileID
	Block    int32
	PlaySeq  int32
	From     msg.NodeID
	Bytes    int64
	Mirror   bool
	Part     int8 // mirror piece index; Parts==1 for primary sends
	Parts    int8 // total pieces making up this block
	Start    sim.Time
	LastByte sim.Time
}

// DataSink receives block deliveries for a viewer.
type DataSink interface {
	DeliverBlock(d BlockDelivery)
}

type pairKey struct{ from, to msg.NodeID }

// FlakyParams describe a degraded (but not cut) link direction: an
// independent per-message drop probability, a duplication probability
// (the message is delivered twice, modelling an at-least-once transport
// retrying across a blip), and an extra one-way delay drawn uniformly
// from [0, ExtraDelay). All draws come from the simulator's seeded rng,
// so runs are reproducible.
type FlakyParams struct {
	DropProb   float64
	DupProb    float64
	ExtraDelay time.Duration
}

func (p FlakyParams) zero() bool {
	return p.DropProb == 0 && p.DupProb == 0 && p.ExtraDelay == 0
}

// linkFault is the fault state of one directed node pair. The zero value
// means a healthy link; healthy links carry no record at all.
type linkFault struct {
	cut   bool
	flaky FlakyParams
}

// FaultStats count what the fault layer did to traffic.
type FaultStats struct {
	LinkDrops int64 // control messages dropped by a cut or flaky link
	LinkDups  int64 // duplicate control deliveries injected
	DataDrops int64 // block deliveries dropped by the DropData hook
}

// nodeStats tracks per-node traffic. Control and data are separated
// because the paper reports control traffic alone (Figures 8-9).
//
// Under a sharded simulation each record is owned by its node's shard:
// every field here is written only from the owning node's execution
// context, which is what lets the send path run without locks.
type nodeStats struct {
	ctlBytes  int64
	ctlMsgs   int64
	dataBytes int64

	// lastArr is the FIFO high-water mark per destination: the latest
	// arrival this node has scheduled toward each peer. Keeping it here
	// rather than in a network-wide pair map makes the send path touch
	// only sender-owned state (and drops a map hash per message).
	lastArr map[msg.NodeID]sim.Time

	// Fault-layer interventions charged to this sender. Like the rest of
	// nodeStats these are shard-owned, which is what keeps the link-fault
	// path lock-free under sim.Sharded; FaultStats aggregates them at the
	// serial points where callers read totals.
	linkDrops int64
	linkDups  int64
	dataDrops int64

	// net and clk are the network and the clock of the node's executor,
	// for the callbacks of the records in flight. freeSends and freeCtl
	// are the records ready for reuse; one that arrived on another
	// shard's executor is put back at the barrier. blocksAway is the
	// viewer shard's hand-back list when that shard is not the node's.
	// reclaim is the node's handler if it takes its sent messages back
	// (Reclaimer).
	net        *Network
	clk        clock.Clock
	freeSends  recycle.List[*blockSend]
	freeCtl    recycle.List[*ctlSend]
	blocksAway *handBack
	reclaim    Reclaimer

	// jitter is the sender-local latency-jitter stream (splitmix64),
	// used instead of the network-wide rng when the simulation is
	// sharded so concurrent senders never share a random source.
	jitter uint64

	// NIC occupancy accounting: integrate active send rate over time. A
	// paced send gives its share back when its pace ends; nothing in the
	// system can observe that, so it is no event: the share waits on
	// nicReleases and settleNIC applies it, at its own instant, before the
	// occupancy is next changed or read. Failing or crashing the node does
	// not empty the queue — bytes already on the wire finish their pace.
	nicReleases clock.Releases[float64]
	activeRate  float64 // bytes/s currently being sent
	lastChange  sim.Time
	byteSecs    float64 // integral of activeRate dt, in bytes
	peakRate    float64
	overloadNs  int64 // time spent with activeRate > NICRate
}

// Network is the simulated switch.
type Network struct {
	clk    clock.Clock
	rng    *rand.Rand
	params Params

	nodes   map[msg.NodeID]Handler
	viewers map[msg.ViewerID]DataSink
	failed  map[msg.NodeID]bool
	incarn  map[msg.NodeID]int32 // bumped by Crash; dooms in-flight messages
	stats   map[msg.NodeID]*nodeStats
	links   map[pairKey]*linkFault // directed link faults; absent = healthy
	shard   *ShardMap              // nil for a single-engine simulation
	back    []handBack             // per shard: records that arrived there from another shard

	// DropControl, if non-nil, is consulted for each control message;
	// returning true drops it. Used by fault-injection tests only — the
	// real system runs control traffic over TCP.
	DropControl func(from, to msg.NodeID, m msg.Message) bool

	// DropData, if non-nil, is consulted for each block send before any
	// pacing or NIC accounting; returning true silently loses the block.
	// This is the data-plane half of fault injection: link cuts model the
	// control mesh, while DropData models loss on the switched data path
	// to viewers (internal/chaos drives it for its data-fault steps).
	DropData func(from msg.NodeID, d BlockDelivery) bool
}

// New creates an empty network.
func New(params Params, clk clock.Clock, rng *rand.Rand) *Network {
	return &Network{
		clk:     clk,
		rng:     rng,
		params:  params,
		nodes:   make(map[msg.NodeID]Handler),
		viewers: make(map[msg.ViewerID]DataSink),
		failed:  make(map[msg.NodeID]bool),
		incarn:  make(map[msg.NodeID]int32),
		stats:   make(map[msg.NodeID]*nodeStats),
		links:   make(map[pairKey]*linkFault),
	}
}

// ShardMap wires the network into a sharded simulation (sim.Sharded).
// The network's minimum link latency (Params.LatencyBase) is the
// conservative lookahead: every cross-node interaction — control
// delivery or a block's last byte — happens at least LatencyBase after
// its send, so a message posted across shards can never land inside the
// window that produced it.
//
// Contract for sharded runs: all nodes are Registered before the run,
// fault injection (Fail/Crash/Cut/SetFlaky/DropControl/DropData) and
// NodeStats reads happen only between RunUntil calls from the driver,
// and every viewer lives on ViewerShard. Under those rules the shared
// maps (nodes, failed, incarn, links) are read-only during windows and
// all mutable state is shard-owned. A send that arrives on another
// shard rides its sender's record like any other; the destination shard
// lists it when it fires, and the barrier hook hands it back to the
// sender (and the message to its Reclaim) between windows.
type ShardMap struct {
	// ShardOf maps a node to its shard; it must be a pure function and
	// must cover msg.Controller.
	ShardOf func(msg.NodeID) int
	// Clocks are the per-shard clocks; Clocks[ShardOf(id)] is the only
	// clock node id's sends and timers may use.
	Clocks []clock.Clock
	// Post schedules fn at instant at on shard dst, called from shard
	// src's execution context (sim.Sharded.Post).
	Post func(src, dst int, at sim.Time, fn func())
	// OnBarrier sets the hook to run, single-threaded, after every
	// window's mailbox drain (sim.Sharded.OnBarrier).
	OnBarrier func(hook func())
	// ViewerShard hosts every viewer endpoint (and the harness code
	// that registers them); block deliveries are posted to it.
	ViewerShard int
	// Seed perturbs the per-sender jitter streams so different run
	// seeds see different network noise.
	Seed int64
}

// SetSharded switches the network to sharded operation. Call it after
// New and before registering traffic sources begin to run; it seeds the
// per-sender jitter streams of already-registered nodes.
func (n *Network) SetSharded(sm *ShardMap) {
	n.shard = sm
	n.back = make([]handBack, len(sm.Clocks))
	sm.OnBarrier(n.giveBack)
	for id, st := range n.stats {
		st.jitter = jitterSeed(sm.Seed, id)
		st.clk, st.blocksAway = n.clockFor(id), n.blocksAway(id)
	}
}

// jitterSeed derives a node's splitmix64 state from the run seed.
func jitterSeed(seed int64, id msg.NodeID) uint64 {
	return (uint64(seed)+1)*0x9e3779b97f4a7c15 ^ uint64(uint32(id))
}

// splitmix advances a splitmix64 state and returns the next value.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// clockFor returns the clock a node's activity must run on.
func (n *Network) clockFor(id msg.NodeID) clock.Clock {
	if n.shard != nil {
		return n.shard.Clocks[n.shard.ShardOf(id)]
	}
	return n.clk
}

// blocksAway returns the viewer shard's hand-back list if node id runs
// on another shard, else nil.
func (n *Network) blocksAway(id msg.NodeID) *handBack {
	if n.shard == nil || n.shard.ShardOf(id) == n.shard.ViewerShard {
		return nil
	}
	return &n.back[n.shard.ViewerShard]
}

// Register attaches a node to the switch.
func (n *Network) Register(id msg.NodeID, h Handler) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: node %v registered twice", id))
	}
	n.nodes[id] = h
	n.statsFor(id).reclaim, _ = h.(Reclaimer)
}

// AttachObs exports per-node traffic counters (labelled by node): the
// registry reads each node's Stats when it is encoded — in a sharded run
// between RunUntil calls only, like NodeStats — for every node the switch
// knows by then.
func (n *Network) AttachObs(reg *obs.Registry) {
	reg.AddCollector(func(emit obs.Emit) {
		for id, st := range n.stats {
			statSeries.Collect(emit, obs.Labels{"node": id.String()}.String(), st.counters())
		}
	})
}

// statsFor returns (creating if needed) a node's traffic record.
func (n *Network) statsFor(id msg.NodeID) *nodeStats {
	st := n.stats[id]
	if st == nil {
		st = &nodeStats{net: n, clk: n.clockFor(id), blocksAway: n.blocksAway(id)}
		st.lastChange = st.clk.Now()
		if n.shard != nil {
			st.jitter = jitterSeed(n.shard.Seed, id)
		}
		n.stats[id] = st
	}
	return st
}

// RegisterViewer attaches a viewer endpoint.
func (n *Network) RegisterViewer(id msg.ViewerID, s DataSink) {
	n.viewers[id] = s
}

// UnregisterViewer detaches a viewer endpoint; subsequent block sends to
// it are discarded.
func (n *Network) UnregisterViewer(id msg.ViewerID) {
	delete(n.viewers, id)
}

// Fail marks a node down: it silently loses everything in flight to it
// and everything it would send, like the paper's power-cut test (§5).
// A Fail followed by Revive models a network blip: messages queued while
// the node was up but not yet delivered still arrive afterwards.
func (n *Network) Fail(id msg.NodeID) { n.failed[id] = true }

// Crash marks a node down like Fail and additionally dooms everything
// already in flight to or from it: a crashed machine's socket buffers
// die with it, so nothing sent to (or by) the old incarnation may be
// delivered after a restart. Pair with Revive plus core.Cub.Restart for
// full crash–restart semantics.
func (n *Network) Crash(id msg.NodeID) {
	n.failed[id] = true
	n.incarn[id]++
}

// Revive brings a failed node back.
func (n *Network) Revive(id msg.NodeID) { delete(n.failed, id) }

// Failed reports whether a node is currently marked down.
func (n *Network) Failed(id msg.NodeID) bool { return n.failed[id] }

// --- link-level faults ---
//
// Node failures (Fail/Crash) model a dead machine; link faults model a
// live machine that some peers cannot reach — the partition case the
// deadman protocol (§2.3) can misread as a death. Faults are directed:
// an asymmetric cut (A hears B, B cannot hear A) is a single CutOneWay.

func (n *Network) linkFor(from, to msg.NodeID) *linkFault {
	k := pairKey{from, to}
	lf := n.links[k]
	if lf == nil {
		lf = &linkFault{}
		n.links[k] = lf
	}
	return lf
}

// pruneLink discards the record for a link with no remaining fault, so
// FaultedLinks counts only genuinely degraded pairs.
func (n *Network) pruneLink(from, to msg.NodeID) {
	k := pairKey{from, to}
	if lf := n.links[k]; lf != nil && !lf.cut && lf.flaky.zero() {
		delete(n.links, k)
	}
}

// CutOneWay severs the directed link from→to: every control message sent
// that way is silently lost until HealOneWay (or Heal/HealAllLinks).
func (n *Network) CutOneWay(from, to msg.NodeID) { n.linkFor(from, to).cut = true }

// Cut severs the link between a and b in both directions.
func (n *Network) Cut(a, b msg.NodeID) {
	n.CutOneWay(a, b)
	n.CutOneWay(b, a)
}

// HealOneWay restores the directed link from→to, clearing a cut and any
// flaky parameters. Messages sent while the link was cut stay lost.
func (n *Network) HealOneWay(from, to msg.NodeID) {
	if lf := n.links[pairKey{from, to}]; lf != nil {
		lf.cut = false
		lf.flaky = FlakyParams{}
		n.pruneLink(from, to)
	}
}

// Heal restores the link between a and b in both directions.
func (n *Network) Heal(a, b msg.NodeID) {
	n.HealOneWay(a, b)
	n.HealOneWay(b, a)
}

// HealAllLinks clears every link fault on the switch.
func (n *Network) HealAllLinks() {
	n.links = make(map[pairKey]*linkFault)
}

// SetFlakyOneWay degrades the directed link from→to. A zero FlakyParams
// heals the flakiness (a cut on the same link, if any, remains).
func (n *Network) SetFlakyOneWay(from, to msg.NodeID, p FlakyParams) {
	n.linkFor(from, to).flaky = p
	n.pruneLink(from, to)
}

// SetFlaky degrades the link between a and b in both directions.
func (n *Network) SetFlaky(a, b msg.NodeID, p FlakyParams) {
	n.SetFlakyOneWay(a, b, p)
	n.SetFlakyOneWay(b, a, p)
}

// LinkCut reports whether the directed link from→to is currently cut.
func (n *Network) LinkCut(from, to msg.NodeID) bool {
	lf := n.links[pairKey{from, to}]
	return lf != nil && lf.cut
}

// FaultedLinks returns the number of directed links with an active fault
// (cut or flaky). Chaos harnesses use it to decide when the network is
// clean again.
func (n *Network) FaultedLinks() int { return len(n.links) }

// FaultStats returns cumulative counts of fault-layer interventions,
// aggregated over the sender-owned counters. Call it only from the
// serial driver context (between run windows in a sharded simulation).
func (n *Network) FaultStats() (fs FaultStats) {
	for _, st := range n.stats {
		fs.LinkDrops += st.linkDrops
		fs.LinkDups += st.linkDups
		fs.DataDrops += st.dataDrops
	}
	return fs
}

// latency draws one message's one-way latency. The jitter comes from
// the network-wide rng in a single-engine run and from the sender's
// private splitmix64 stream in a sharded run, where concurrent senders
// must not share a random source.
func (n *Network) latency(st *nodeStats) time.Duration {
	l := n.params.LatencyBase
	if n.params.LatencyJitter > 0 {
		if n.shard != nil {
			l += time.Duration(splitmix(&st.jitter) % uint64(n.params.LatencyJitter))
		} else {
			l += time.Duration(n.rng.Int63n(int64(n.params.LatencyJitter)))
		}
	}
	return l
}

// chance draws one uniform [0, 1) variate for a sender's link-fault
// decisions — from the network-wide rng in a single-engine run, from the
// sender's private splitmix64 stream in a sharded run (same split as
// latency, and for the same reason).
func (n *Network) chance(st *nodeStats) float64 {
	if n.shard != nil {
		return float64(splitmix(&st.jitter)>>11) / float64(1<<53)
	}
	return n.rng.Float64()
}

// Send delivers a control message from one node to another, reliably and
// in order with respect to other messages on the same (from, to) pair.
func (n *Network) Send(from, to msg.NodeID, m msg.Message) {
	n.send(from, to, m, true)
}

// SendSteady delivers a control message like Send but at the base
// latency, never drawing from the jitter stream. Periodic liveness
// traffic — the controller heartbeat — uses it so that turning a
// heartbeat on cannot re-roll the shared randomness alignment of every
// other message in a single-engine run: the unrelated experiments must
// stay byte-identical with and without the extra traffic. (Sharded runs
// already draw from per-sender streams, where the leak cannot happen.)
func (n *Network) SendSteady(from, to msg.NodeID, m msg.Message) {
	n.send(from, to, m, false)
}

func (n *Network) send(from, to msg.NodeID, m msg.Message, jitter bool) {
	st := n.statsFor(from)
	if n.failed[from] || n.failed[to] {
		return
	}
	if n.DropControl != nil && n.DropControl(from, to, m) {
		return
	}
	st.ctlBytes += int64(m.Size())
	st.ctlMsgs++

	// Whether the message comes back to the sender (Returns).
	ret := st.reclaim != nil && n.DropControl == nil

	// Link faults. The sender already paid for the bytes above: a cut or
	// lossy link loses traffic in the network, it does not stop the
	// sender transmitting.
	var extra time.Duration
	dup := false
	if lf := n.links[pairKey{from, to}]; lf != nil {
		if lf.cut {
			st.linkDrops++
			return
		}
		f := lf.flaky
		ret = ret && f.DropProb == 0 && f.DupProb == 0
		if f.DropProb > 0 && n.chance(st) < f.DropProb {
			st.linkDrops++
			return
		}
		if f.ExtraDelay > 0 {
			if n.shard != nil {
				extra = time.Duration(splitmix(&st.jitter) % uint64(f.ExtraDelay))
			} else {
				extra = time.Duration(n.rng.Int63n(int64(f.ExtraDelay)))
			}
		}
		if f.DupProb > 0 && n.chance(st) < f.DupProb {
			dup = true
		}
	}
	n.deliverCtl(from, to, st, m, extra, jitter, ret)
	if dup {
		// The duplicate trails the original through the same FIFO link,
		// like a retransmission whose first copy also arrived.
		st.linkDups++
		n.deliverCtl(from, to, st, m, extra, jitter, ret)
	}
}

// Returns reports whether a control message sent from→to now will be
// handed back to the sender's Reclaim. A message comes back, exactly
// once, in its arrival event or (across shards) at the next barrier, if
// and only if Returns was true when it was sent: the sender is a
// Reclaimer, both endpoints are up, no DropControl hook is installed,
// the link is not cut and neither drops nor duplicates (the first copy
// of a duplicate to arrive could not tell whether the other is still in
// flight).
func (n *Network) Returns(from, to msg.NodeID) bool {
	if st := n.stats[from]; st == nil || st.reclaim == nil || n.failed[from] || n.failed[to] || n.DropControl != nil {
		return false
	}
	lf := n.links[pairKey{from, to}]
	return lf == nil || !lf.cut && lf.flaky.DropProb <= 0 && lf.flaky.DupProb <= 0
}

// deliverCtl schedules one control-message arrival, preserving FIFO per
// (from, to) pair and dooming the delivery if either endpoint fails or
// crashes while it is in flight. With ret, the arrival hands m back to
// the sender (Returns).
func (n *Network) deliverCtl(from, to msg.NodeID, st *nodeStats, m msg.Message, extra time.Duration, jitter, ret bool) {
	lat := n.params.LatencyBase
	if jitter {
		lat = n.latency(st)
	}
	arrive := st.clk.Now().Add(lat + extra)
	if st.lastArr == nil {
		st.lastArr = make(map[msg.NodeID]sim.Time)
	}
	if last := st.lastArr[to]; arrive <= last {
		arrive = last + 1 // preserve FIFO per pair
	}
	st.lastArr[to] = arrive
	r := st.newCtlSend()
	r.from, r.to, r.fromInc, r.toInc, r.m, r.ret, r.away = from, to, n.incarn[from], n.incarn[to], m, ret, nil
	if n.shard != nil {
		if src, dst := n.shard.ShardOf(from), n.shard.ShardOf(to); src != dst {
			r.away = &n.back[dst]
			n.shard.Post(src, dst, arrive, r.arrive)
			return
		}
	}
	st.clk.At(arrive, r.arrive)
}

// deliverOne hands m to its destination unless an endpoint failed, or
// crashed out of the incarnation it was sent in, while it was in flight.
func (n *Network) deliverOne(from, to msg.NodeID, fromInc, toInc int32, m msg.Message) {
	if n.failed[to] || n.failed[from] {
		return // failed while in flight
	}
	if n.incarn[from] != fromInc || n.incarn[to] != toInc {
		return // an endpoint crashed while the message was in flight
	}
	if h := n.nodes[to]; h != nil {
		h.Deliver(from, m)
	}
}

// maxFreeCtl bounds a sender's free control records, so a burst (a crash
// storm's re-sends) does not stay on the heap after it has landed.
const maxFreeCtl = 64

// ctlSend is one control message in flight. Like blockSend it belongs
// to the sending node, is reused through its free list and has its
// callback bound once; it is never cancelled, so it is free again when
// it has fired, or at the next barrier when it fired on another shard's
// executor (away, that shard's hand-back list). ret says whether m goes
// back to the sender.
type ctlSend struct {
	st             *nodeStats
	from, to       msg.NodeID
	fromInc, toInc int32
	m              msg.Message
	ret            bool
	away           *handBack
	arrive         func()
}

func (st *nodeStats) newCtlSend() *ctlSend {
	if r, ok := st.freeCtl.Get(); ok {
		return r
	}
	r := &ctlSend{st: st}
	r.arrive = r.onArrive
	return r
}

func (r *ctlSend) onArrive() {
	r.st.net.deliverOne(r.from, r.to, r.fromInc, r.toInc, r.m)
	if r.away != nil {
		r.away.ctl = append(r.away.ctl, r)
		return
	}
	r.free()
}

// free hands m back to the sender if it returns and the record to the
// sender's free list.
func (r *ctlSend) free() {
	st := r.st
	if r.ret {
		st.reclaim.Reclaim(r.to, r.m)
	}
	r.m = nil // the free list keeps no message alive
	st.freeCtl.Put(r, maxFreeCtl)
}

// SendBlock starts a paced data send of d.Bytes from a cub to a viewer
// over pace (one block play time for primaries, blockPlay/decluster for
// mirror pieces, §4.1.1). The viewer's DeliverBlock fires when the last
// byte arrives.
func (n *Network) SendBlock(from msg.NodeID, d BlockDelivery, pace time.Duration) {
	if n.failed[from] {
		return
	}
	st := n.statsFor(from)
	if n.DropData != nil && n.DropData(from, d) {
		st.dataDrops++
		return
	}
	st.dataBytes += d.Bytes

	clk := st.clk
	now := clk.Now()
	n.settleNIC(st, now)
	rate := float64(d.Bytes) / pace.Seconds()
	n.nicAdjust(st, +rate, now)
	st.nicReleases.Add(now.Add(pace), rate)

	d.From = from
	d.Start = now
	// LastByte >= now + LatencyBase even for a zero pace, which is what
	// lets a sharded run post the delivery to the viewer shard.
	d.LastByte = now.Add(pace + n.latency(st))
	b := st.newBlockSend()
	b.d = d
	if st.blocksAway != nil {
		n.shard.Post(n.shard.ShardOf(from), n.shard.ViewerShard, d.LastByte, b.lastByte)
		return
	}
	clk.At(d.LastByte, b.lastByte)
}

func (n *Network) deliverBlock(d BlockDelivery) {
	if s := n.viewers[d.Viewer]; s != nil {
		s.DeliverBlock(d)
	}
}

// blockSend is the arrival of one block's last byte at a viewer.
// Records belong to the sending node and are reused through its free
// list; the callback is bound once, when the record is first allocated,
// and reads its argument from it. The event is never cancelled, so the
// record is free again when it has fired, or at the next barrier when
// the viewer shard is not the sender's.
type blockSend struct {
	st       *nodeStats
	d        BlockDelivery
	lastByte func()
}

func (st *nodeStats) newBlockSend() *blockSend {
	if b, ok := st.freeSends.Get(); ok {
		return b
	}
	b := &blockSend{st: st}
	b.lastByte = b.onLastByte
	return b
}

func (b *blockSend) onLastByte() {
	b.st.net.deliverBlock(b.d)
	if away := b.st.blocksAway; away != nil {
		away.blocks = append(away.blocks, b)
		return
	}
	b.st.freeSends.Put(b, 0)
}

// handBack lists the records that fired on one shard's executor but
// belong to a sender on another. Only that shard appends to it during a
// window, so it needs no lock.
type handBack struct {
	ctl    []*ctlSend
	blocks []*blockSend
}

// giveBack is the barrier hook of a sharded run: it gives every record
// that arrived on another shard's executor back to its sender, in shard
// order, while no shard runs.
func (n *Network) giveBack() {
	for i := range n.back {
		hb := &n.back[i]
		for _, r := range hb.ctl {
			r.free()
		}
		for _, b := range hb.blocks {
			b.st.freeSends.Put(b, 0)
		}
		clear(hb.ctl)
		clear(hb.blocks)
		hb.ctl, hb.blocks = hb.ctl[:0], hb.blocks[:0]
	}
}

// settleNIC applies the pace ends that have fallen due by now, each at
// its own instant and in instant order, so the occupancy integral, the
// overload time and the peak read exactly as if every one had been an
// event. A pace that ends at the instant another send starts ends first.
func (n *Network) settleNIC(st *nodeStats, now sim.Time) {
	for st.nicReleases.Due(now) {
		at, rate := st.nicReleases.Pop()
		n.nicAdjust(st, -rate, at)
	}
}

func (n *Network) nicAdjust(st *nodeStats, delta float64, now sim.Time) {
	dt := now.Sub(st.lastChange).Seconds()
	if dt > 0 {
		st.byteSecs += st.activeRate * dt
		if st.activeRate > n.params.NICRate {
			st.overloadNs += int64(now.Sub(st.lastChange))
		}
	}
	st.lastChange = now
	st.activeRate += delta
	if st.activeRate < 0 {
		st.activeRate = 0 // float drift
	}
	if st.activeRate > st.peakRate {
		st.peakRate = st.activeRate
	}
}

// Stats is a snapshot of one node's cumulative traffic counters.
type Stats struct {
	CtlBytes   int64   `metric:"tiger_net_ctl_bytes_total" help:"Control bytes sent by the node."`
	CtlMsgs    int64   `metric:"tiger_net_ctl_msgs_total" help:"Control messages sent by the node."`
	DataBytes  int64   `metric:"tiger_net_data_bytes_total" help:"Block payload bytes sent by the node."`
	ByteSecs   float64 // integral of send rate over time
	PeakRate   float64 // bytes/s
	OverloadNs int64
}

var statSeries = obs.SeriesOf(Stats{})

// counters copies the plain counters, leaving the NIC occupancy integral
// alone: folding it forward is a write, which a scrape must not make.
func (st *nodeStats) counters() Stats {
	return Stats{CtlBytes: st.ctlBytes, CtlMsgs: st.ctlMsgs, DataBytes: st.dataBytes}
}

// NodeStats returns cumulative counters for a node; diff snapshots to get
// rates over a window.
func (n *Network) NodeStats(id msg.NodeID) Stats {
	st := n.stats[id]
	if st == nil {
		return Stats{}
	}
	// Fold in occupancy up to now so ByteSecs is current.
	now := n.clockFor(id).Now()
	n.settleNIC(st, now)
	n.nicAdjust(st, 0, now)
	return Stats{
		CtlBytes:   st.ctlBytes,
		CtlMsgs:    st.ctlMsgs,
		DataBytes:  st.dataBytes,
		ByteSecs:   st.byteSecs,
		PeakRate:   st.peakRate,
		OverloadNs: st.overloadNs,
	}
}

// Params returns the network's parameters.
func (n *Network) Params() Params { return n.params }
