package core

import (
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/schedule"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// rig assembles a minimal Tiger system for protocol tests, with direct
// access to cub internals (same package).
type rig struct {
	t    *testing.T
	eng  *sim.Engine
	net  *netsim.Network
	cfg  *Config
	ctl  *Controller
	cubs []*Cub

	// deliveries[viewer][playseq] = pieces received
	deliveries map[msg.ViewerID]map[int32]int
	lastInst   map[msg.ViewerID]msg.InstanceID
}

type rigOptions struct {
	cubs, disksPerCub, decluster int
	files                        int
	fileBlocks                   int
	blockPlay                    time.Duration
	mutate                       func(*Config)
	// handler, if set, is what the network delivers a cub's messages to
	// in place of the cub.
	handler func(*Cub) netsim.Handler
}

// subscribe attaches fn to the given event kinds on every cub of the rig.
func (r *rig) subscribe(kinds trace.Kinds, fn func(trace.Event)) {
	sink := &trace.Sink{}
	sink.Subscribe(kinds, fn)
	for _, c := range r.cubs {
		c.SetSink(sink)
	}
}

func defaultRigOptions() rigOptions {
	return rigOptions{
		cubs: 8, disksPerCub: 1, decluster: 2,
		files: 4, fileBlocks: 1200, blockPlay: time.Second,
	}
}

func newRig(t *testing.T, o rigOptions) *rig {
	t.Helper()
	lay := layout.Config{Cubs: o.cubs, DisksPerCub: o.disksPerCub, Decluster: o.decluster}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	dp := disk.DefaultParams()
	dp.BlipProb = 0 // protocol tests want deterministic disks
	blockSize := int64(262144)
	capa := disk.PlanCapacity(dp, lay.NumDisks(), blockSize, o.blockPlay, o.decluster)
	sp, err := schedule.NewParams(o.blockPlay, lay.NumDisks(), capa.Streams)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[msg.FileID]layout.File)
	for i := 0; i < o.files; i++ {
		files[msg.FileID(i)] = layout.File{
			ID: msg.FileID(i), StartDisk: (i * 3) % lay.NumDisks(),
			Blocks: o.fileBlocks, Bitrate: 2_000_000, BlockSize: blockSize,
		}
	}
	cfg := &Config{
		Layout: lay, Sched: sp, BlockSize: blockSize,
		DiskParams: dp, Files: files,
	}
	cfg.DefaultTimings()
	if o.mutate != nil {
		o.mutate(cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	eng := sim.New(42)
	clk := clock.Sim{Eng: eng}
	net := netsim.New(netsim.DefaultParams(), clk, eng.Rand())
	r := &rig{
		t: t, eng: eng, net: net, cfg: cfg,
		deliveries: make(map[msg.ViewerID]map[int32]int),
		lastInst:   make(map[msg.ViewerID]msg.InstanceID),
	}
	r.ctl = NewController(cfg, clk, net)
	net.Register(msg.Controller, r.ctl)
	for i := 0; i < o.cubs; i++ {
		cub := NewCub(msg.NodeID(i), cfg, clk, net, net, eng.Rand())
		var h netsim.Handler = cub
		if o.handler != nil {
			h = o.handler(cub)
		}
		net.Register(msg.NodeID(i), h)
		r.cubs = append(r.cubs, cub)
	}
	for _, c := range r.cubs {
		c.Start()
	}
	return r
}

// sink implements netsim.DataSink, recording piece counts per playseq.
type sink struct {
	r *rig
	v msg.ViewerID
}

func (s sink) DeliverBlock(d netsim.BlockDelivery) {
	if d.Instance != s.r.lastInst[s.v] {
		return
	}
	m := s.r.deliveries[s.v]
	if m == nil {
		m = make(map[int32]int)
		s.r.deliveries[s.v] = m
	}
	m[d.PlaySeq]++
}

// play starts a viewer on the given file/block and registers a sink.
func (r *rig) play(v msg.ViewerID, file msg.FileID, block int32) msg.InstanceID {
	r.t.Helper()
	if _, seen := r.deliveries[v]; !seen {
		r.net.RegisterViewer(v, sink{r: r, v: v})
	}
	inst, err := r.ctl.StartPlay(v, file, block, 2_000_000)
	if err != nil {
		r.t.Fatal(err)
	}
	r.lastInst[v] = inst
	return inst
}

func (r *rig) run(d time.Duration) { r.eng.RunFor(d) }

// got returns how many distinct playseqs viewer v received at least one
// piece for.
func (r *rig) got(v msg.ViewerID) int { return len(r.deliveries[v]) }

// totals sums a stat across cubs.
func (r *rig) totals() CubStats {
	var t CubStats
	for _, c := range r.cubs {
		s := c.Stats()
		t.BlocksSent += s.BlocksSent
		t.PiecesSent += s.PiecesSent
		t.ServerMisses += s.ServerMisses
		t.StatesRecv += s.StatesRecv
		t.StatesDup += s.StatesDup
		t.StatesLate += s.StatesLate
		t.Conflicts += s.Conflicts
		t.Inserts += s.Inserts
		t.MirrorsMade += s.MirrorsMade
		t.PiecesLost += s.PiecesLost
		t.IndexMisses += s.IndexMisses
		t.DeathsRefuted += s.DeathsRefuted
		t.StartsDup += s.StartsDup
		t.Rejoins += s.Rejoins
		t.RejoinsServed += s.RejoinsServed
		t.ViewTransferred += s.ViewTransferred
		t.MirrorsRetired += s.MirrorsRetired
		t.StaleEpochDrops += s.StaleEpochDrops
	}
	return t
}

// mirrorLoadFor sums the mirror-piece entries the other cubs hold
// covering cub i's disks.
func (r *rig) mirrorLoadFor(i int) int {
	n := 0
	for j, c := range r.cubs {
		if j == i {
			continue
		}
		n += c.MirrorLoadFor(msg.NodeID(i))
	}
	return n
}
