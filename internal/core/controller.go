package core

import (
	"fmt"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/recycle"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// PlayState tracks one start request at the controller.
type PlayState int

const (
	PlayQueued PlayState = iota // sent to cubs, not yet inserted
	PlayActive                  // inserted into a slot
	PlayDone                    // stopped or reached end of file
)

// maxFreePlays bounds the controller's free list of play records: the
// finishes of a few seconds.
const maxFreePlays = 16

type playRecord struct {
	inst       msg.InstanceID
	viewer     msg.ViewerID
	file       msg.FileID
	startBlock int32
	bitrate    int32
	primary    msg.NodeID
	slot       int32
	state      PlayState
	issued     sim.Time
	gen        int32 // striping generation the play was admitted under
}

// ControllerStats are cumulative counters for the controller; the
// metrics registry collects them through the field tags (obs.go).
type ControllerStats struct {
	Starts    int64 `metric:"tiger_ctrl_starts_total" help:"Start-play requests accepted."`
	Stops     int64 `metric:"tiger_ctrl_stops_total" help:"Stop-play requests handled."`
	Acks      int64 `metric:"tiger_ctrl_acks_total" help:"Insertion acknowledgements confirmed."`
	EOFs      int64 `metric:"tiger_ctrl_eofs_total" help:"Streams that reached end of file."`
	Rejected  int64 `metric:"tiger_ctrl_rejected_total" help:"Start requests refused by the admission limit."`
	MaxActive int   `metric:"tiger_ctrl_active_streams_max,gauge" help:"Most streams ever inserted at once."`
	Requests  int64 `metric:"tiger_ctrl_requests_total" help:"Start and stop requests received, counted while down too."`
	MsgsRecv  int64 `metric:"tiger_ctrl_msgs_recv_total" help:"Control messages delivered, counted while down too."`

	// Failover counters (scavenge.go).
	Takeovers       int64 `metric:"tiger_ctrl_takeovers_total" help:"Controller incarnation restarts performed."`
	ScavengeReplies int64 `metric:"tiger_ctrl_scavenge_replies_total" help:"Cub inventory replies folded during takeovers."`
	ScavengedPlays  int64 `metric:"tiger_ctrl_scavenged_plays_total" help:"Play records rebuilt from cub inventories."`
	ScavengedParks  int64 `metric:"tiger_ctrl_scavenged_parks_total" help:"Parked-stream tickets recovered from cubs."`
}

// Controller is the Tiger controller machine: the clients' contact
// point, the clock master, and little else — the paper's point is that
// distributing the schedule leaves the controller with almost nothing to
// do, so its load stays flat as the system grows (§2.1, Figure 8).
type Controller struct {
	cfg *Config
	clk clock.Clock
	net Transport

	nextInstance msg.InstanceID
	plays        map[msg.InstanceID]*playRecord
	active       int

	// Finished plays wait a minute in finished, in the order their
	// timers fire; each timer, the one callback onExpire, forgets the
	// oldest and recycles its record onto freePlays. finished outlives
	// Restart, as the timers do; freePlays does not.
	finished  fifo[*playRecord]
	onExpire  func() // c.expire, bound once
	freePlays recycle.List[*playRecord]

	// Striping generations: during an elastic restripe two schedules
	// coexist and admission must respect the disks they share. gens maps
	// installed generation -> its Config; genLoad counts not-yet-finished
	// plays admitted under each generation.
	gens      map[int32]*Config
	activeGen int32
	genLoad   map[int32]int

	// Live-restripe coordinator state (restriper.go).
	rs restriperState

	// Degradation-governor state (governor.go).
	gov governorState

	// Controller-failover state (scavenge.go). The scavenge round's token
	// is this incarnation's epoch, stamped into every controller-originated
	// order so cubs can fence a dead incarnation's in-flight traffic; the
	// round is open while a takeover scavenge folds cub inventories into
	// scavParked, the parked tickets by the highest fence reported. down
	// makes a crashed incarnation inert in place.
	scav       round
	scavParked marks[msg.InstanceID, msg.ScavengedPark]
	down       bool
	started    bool
	hbTimer    clock.Timer
	onHB       func()         // c.hbTick, bound once
	hb         heartbeat      // the heartbeat's record (deadman.go)
	slotWait   *obs.Histogram // request-to-insertion latency
	takeover   *obs.Histogram // restart-to-rebuilt time

	stats ControllerStats
	sink  *trace.Sink // nil until SetSink

	// OnAck, if set, is called when an insertion is confirmed; harnesses
	// use it to measure slot-assignment latency.
	OnAck func(inst msg.InstanceID, slot int32, waited time.Duration)

	// OnRestripeDone, if set, is called once every move of a restripe run
	// has committed at its destination.
	OnRestripeDone func()

	// OnParked, if set, is consulted when the governor parks a stream: the
	// harness tears the viewer down before its next deadline and returns
	// the file and block the re-admitted stream should resume from.
	OnParked func(viewer msg.ViewerID, inst msg.InstanceID) (file msg.FileID, resumeBlock int32, ok bool)

	// OnReadmit, if set, is called for each parked stream when the
	// governor drains its queue: the harness runs an ordinary Play and
	// returns the new instance (0 if the ticket resolved without one,
	// e.g. the stream would have ended). ok=false means admission
	// refused — the governor retries later.
	OnReadmit func(t ParkTicket) (msg.InstanceID, bool)

	// OnScavenged, if set, is called when a takeover scavenge completes:
	// the rebuilt state is installed and the harness may replay
	// environmental knowledge the dead incarnation held that cubs do not
	// (the out-of-band down-cub notifications). An interrupted restripe
	// copy is re-armed right after it returns.
	OnScavenged func()
}

// NewController creates a controller for the given system.
func NewController(cfg *Config, clk clock.Clock, net Transport) *Controller {
	c := &Controller{
		cfg:      cfg,
		clk:      clk,
		net:      net,
		plays:    make(map[msg.InstanceID]*playRecord),
		gens:     map[int32]*Config{0: cfg},
		genLoad:  make(map[int32]int),
		scav:     round{token: 1},
		slotWait: obs.NewHistogram(startWaitBounds),
		takeover: obs.NewHistogram(RecoveryBounds),
	}
	c.onHB, c.onExpire = c.hbTick, c.expire
	return c
}

// InstallGen makes a striping generation's configuration known to the
// controller. Idempotent.
func (c *Controller) InstallGen(gen int32, cfg *Config) {
	if _, ok := c.gens[gen]; ok {
		return
	}
	c.gens[gen] = cfg
}

// SetActiveGen flips which generation admits new plays.
func (c *Controller) SetActiveGen(gen int32) {
	if _, ok := c.gens[gen]; !ok {
		panic(fmt.Sprintf("controller: SetActiveGen(%d) before InstallGen", gen))
	}
	c.activeGen = gen
}

// genCfg returns generation g's Config, or the birth configuration once
// g has been dropped.
func (c *Controller) genCfg(g int32) *Config {
	if cfg := c.gens[g]; cfg != nil {
		return cfg
	}
	return c.cfg
}

// ActiveGen returns the generation new plays are admitted under.
func (c *Controller) ActiveGen() int32 { return c.activeGen }

// DropGen forgets a fully drained generation.
func (c *Controller) DropGen(gen int32) {
	if gen == c.activeGen {
		panic(fmt.Sprintf("controller: cannot drop active generation %d", gen))
	}
	delete(c.gens, gen)
	delete(c.genLoad, gen)
}

// GenLoad returns the number of not-yet-finished plays admitted under
// one generation; the restripe drain monitor polls the old generation's
// count toward zero.
func (c *Controller) GenLoad(gen int32) int { return c.genLoad[gen] }

// SetSink directs the controller's one protocol step, admit, to s. While
// a subscriber wants it, every admitted play is stamped traced
// (StartPlay.Trace = 1), so the cubs it touches report its blocks' steps
// as traced.
func (c *Controller) SetSink(s *trace.Sink) { c.sink = s }

// Stats returns a snapshot of controller counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// Active returns the number of currently playing (inserted) viewers the
// controller knows about.
func (c *Controller) Active() int { return c.active }

// StartPlay handles a viewer's request to begin receiving a file: it
// assigns an instance ID and forwards the request to the cub holding the
// first block wanted, plus that cub's successor for redundancy (§4.1.3).
func (c *Controller) StartPlay(viewer msg.ViewerID, file msg.FileID, startBlock int32, bitrate int32) (msg.InstanceID, error) {
	return c.StartPlayFrom(viewer, [16]byte{}, file, startBlock, bitrate)
}

// StartPlayFrom is StartPlay carrying the viewer's network address,
// which rides in every viewer state so cubs know where to send blocks
// (the real-time transport uses it; the simulator routes by ViewerID).
func (c *Controller) StartPlayFrom(viewer msg.ViewerID, addr [16]byte, file msg.FileID, startBlock int32, bitrate int32) (msg.InstanceID, error) {
	c.stats.Requests++
	if c.down {
		return 0, ErrControllerDown
	}
	if c.scav.open {
		// Admitting before the fold completes risks double-admitting an
		// instance a cub is about to report; callers retry after the
		// scavenge window (one RTT, bounded by the deadman closeout).
		return 0, ErrScavenging
	}
	acfg := c.gens[c.activeGen]
	f, ok := acfg.Files[file]
	if !ok {
		return 0, fmt.Errorf("controller: unknown file %d", file)
	}
	if startBlock < 0 || int(startBlock) >= f.Blocks {
		return 0, fmt.Errorf("controller: file %d has no block %d", file, startBlock)
	}
	if acfg.AdmitLimit > 0 {
		if len(c.gens) == 1 {
			limit := int(acfg.AdmitLimit * float64(acfg.Sched.NumSlots))
			if c.pendingAndActive() >= limit {
				c.stats.Rejected++
				return 0, fmt.Errorf("controller: schedule load limit %d reached", limit)
			}
		} else {
			// During a restripe the generations share the same spindles,
			// so the admission budget is joint: each play consumes one
			// slot-fraction of its own generation's ring, and the sum of
			// fractions bounds per-disk stream load exactly as the single
			// ring did (both rings carry the same streams-per-disk ratio).
			frac := 0.0
			for g, n := range c.genLoad {
				if gcfg := c.gens[g]; gcfg != nil && n > 0 {
					frac += float64(n) / float64(gcfg.Sched.NumSlots)
				}
			}
			if frac >= acfg.AdmitLimit {
				c.stats.Rejected++
				return 0, fmt.Errorf("controller: joint schedule load limit %.3f reached", acfg.AdmitLimit)
			}
		}
	}
	c.nextInstance++
	inst := c.nextInstance
	d0 := acfg.Layout.PrimaryDisk(f, int(startBlock))
	primary := acfg.Layout.CubOfDisk(d0)
	now := c.clk.Now()
	rec, ok := c.freePlays.Get()
	if !ok {
		rec = new(playRecord)
	}
	c.plays[inst] = rec
	*rec = playRecord{
		inst:       inst,
		viewer:     viewer,
		file:       file,
		startBlock: startBlock,
		bitrate:    bitrate,
		primary:    primary,
		slot:       -1,
		state:      PlayQueued,
		issued:     now,
		gen:        c.activeGen,
	}
	c.genLoad[c.activeGen]++
	sp := msg.StartPlay{
		Viewer:     viewer,
		Instance:   inst,
		Addr:       addr,
		File:       file,
		StartBlock: startBlock,
		Bitrate:    bitrate,
		Issued:     int64(now),
		Ctl:        c.Epoch(),
	}
	if c.sink.Wants(trace.Admit) {
		// Somebody follows admissions (a chain log): stamp the play traced.
		// The admit step predates the deadline — no slot, no due time yet —
		// so its slack is reported as zero and the attribution engine
		// charges admit→insert by elapsed wait instead of slack delta.
		sp.Trace = 1
		c.sink.Emit(trace.Event{
			At: now, Due: int64(now), Node: msg.Controller, Kind: trace.Admit, Traced: true,
			Instance: inst, Viewer: viewer, Block: startBlock, Slot: -1, Disk: int32(d0),
		})
	}
	p := sp
	p.Primary = true
	c.net.Send(msg.Controller, primary, &p)
	r := sp
	r.Primary = false
	c.net.Send(msg.Controller, acfg.Layout.Successor(primary), &r)
	c.stats.Starts++
	return inst, nil
}

// StopPlay handles a viewer's "stop playing" request: the controller
// determines which cub the viewer is currently receiving data from and
// forwards an idempotent deschedule request to it and its successor
// (§4.1.2).
func (c *Controller) StopPlay(inst msg.InstanceID) {
	c.stats.Requests++
	if c.down {
		return
	}
	rec, ok := c.plays[inst]
	if !ok || rec.state == PlayDone {
		return
	}
	c.stats.Stops++
	target := rec.primary
	if rec.state != PlayQueued {
		target = c.genCfg(rec.gen).Layout.CubOfDisk(c.servingDisk(rec.slot))
	}
	c.deschedule(rec, inst, rec.slot, target) // slot -1 while queued: cancels the start
	c.finish(rec)
}

// deschedule sends the idempotent removal of rec's instance inst from
// slot to cub and, for redundancy, to its successor (§4.1.2).
func (c *Controller) deschedule(rec *playRecord, inst msg.InstanceID, slot int32, cub msg.NodeID) {
	d := msg.Deschedule{Viewer: rec.viewer, Instance: inst, Slot: slot, Created: int64(c.clk.Now())}
	d1 := d
	c.net.Send(msg.Controller, cub, &d1)
	c.net.Send(msg.Controller, c.genCfg(rec.gen).Layout.Successor(cub), &d)
}

// NotifyEOF records that a viewer reached end of file; the stream left
// the schedule on its own (§4.1.2: "handling end-of-file is
// straightforward").
func (c *Controller) NotifyEOF(inst msg.InstanceID) {
	if c.down {
		return
	}
	rec, ok := c.plays[inst]
	if !ok || rec.state == PlayDone {
		return
	}
	c.stats.EOFs++
	c.finish(rec)
}

func (c *Controller) finish(rec *playRecord) {
	if rec.state == PlayActive {
		c.active--
	}
	if rec.state != PlayDone {
		if n := c.genLoad[rec.gen]; n > 0 {
			c.genLoad[rec.gen] = n - 1
		}
	}
	rec.state = PlayDone
	// Keep the tombstone briefly — a late or redundant StartAck still in
	// flight needs the record so its slot can be killed (onStartAck's
	// PlayDone path) — then forget it. A minute dwarfs any transport
	// delay, and bounds the map at O(active + recently finished) instead
	// of every play ever admitted.
	c.finished.push(rec)
	c.clk.After(time.Minute, c.onExpire)
}

// expire forgets the play finished longest ago, unless a Restart has
// replaced its record, and recycles the record: nothing else holds it.
func (c *Controller) expire() {
	rec := c.finished.pop()
	if c.plays[rec.inst] == rec {
		delete(c.plays, rec.inst)
	}
	c.freePlays.Put(rec, maxFreePlays)
}

// servingDisk returns the generation-local disk about to serve the
// given slot, under the slot's own generation.
//
// Closed form of "the disk whose next service of this slot comes
// soonest": disk d serves the slot at now + mod(d·blockPlay + raw·svc −
// now, cycle), and those N candidate offsets are y0 mod blockPlay plus a
// distinct multiple of blockPlay each, so the minimum is taken by the
// disk that cancels y0's whole-blockPlay part — no scan over NumDisks.
func (c *Controller) servingDisk(slot int32) int {
	cfg := c.genCfg(GenOf(slot))
	raw := RawSlot(slot)
	now := c.clk.Now()
	p := cfg.Sched
	cycle := int64(p.CycleLen())
	y0 := (int64(raw)*int64(p.BlockService)-int64(now))%cycle + cycle
	y0 %= cycle
	n := p.NumDisks
	return (n - int(y0/int64(p.BlockPlay))) % n
}

// pendingAndActive counts plays admitted but not yet finished. The
// per-generation admission loads sum to exactly that — genLoad increments
// at admission and decrements once at finish — so no sweep over the
// play records is needed.
func (c *Controller) pendingAndActive() int {
	n := 0
	for _, g := range c.genLoad {
		n += g
	}
	return n
}

// Deliver implements netsim.Handler for messages addressed to the
// controller: start acknowledgements from cubs, and the commit/nack
// halves of the live-restripe move protocol. What passes the fence
// (fence.go) is dispatched. m is valid only during the call, as for
// Cub.Deliver; none of the kinds kept here is one a msg.Pool reuses.
func (c *Controller) Deliver(from msg.NodeID, m msg.Message) {
	c.stats.MsgsRecv++
	if c.down {
		// A crashed incarnation is inert: anything addressed to it — a
		// StartAck racing the crash, a late commit — is lost exactly as a
		// dead process would lose it, and the takeover scavenge rebuilds
		// the state from the cubs instead.
		return
	}
	if !c.admit(from, m) {
		return
	}
	switch t := m.(type) {
	case *msg.StartAck:
		c.onStartAck(t)
	case *msg.MoveCommit:
		c.onMoveCommit(t)
	case *msg.MoveNack:
		c.onMoveNack(t)
	case *msg.ParkAck:
		c.onParkAck(t)
	case *msg.ScavengeReply:
		c.onScavengeReply(t)
	}
}

func (c *Controller) onStartAck(a *msg.StartAck) {
	rec, found := c.plays[a.Instance]
	if !found {
		return
	}
	if rec.state == PlayDone {
		// The viewer stopped while its insertion was in flight: the
		// queue-cancel deschedule missed. Kill the slot properly now —
		// deschedules are idempotent, so this is safe even if the cancel
		// did land (§4.1.2).
		c.deschedule(rec, a.Instance, a.Slot, a.By)
		return
	}
	if rec.state != PlayQueued {
		return // duplicate ack
	}
	rec.slot = a.Slot
	rec.state = PlayActive
	c.active++
	if c.active > c.stats.MaxActive {
		c.stats.MaxActive = c.active
	}
	c.stats.Acks++
	waited := c.clk.Now().Sub(rec.issued)
	c.slotWait.Observe(waited.Seconds())
	if c.OnAck != nil {
		c.OnAck(a.Instance, a.Slot, waited)
	}
}
