package main

import (
	"math/rand"
	"net"
	"runtime"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/metrics"
	"tiger/internal/msg"
	"tiger/internal/netsched"
	"tiger/internal/netsim"
	"tiger/internal/schedule"
	"tiger/internal/sim"
	"tiger/internal/viewer"
	"tiger/internal/wire"
)

// A kernel drives one layer through its exported functions only, for a
// fixed number of operations: the "missing middle layer" between the bare
// engine benchmark and whole-system runs (ROADMAP item 1). prep builds
// fresh state and returns the timed body.
type kernel struct {
	name string // metric name without the _ns / _s suffix
	unit string // "ns" per op, or "s" for the whole body
	ops  int
	prep func(ops int) (body func(), cleanup func())
}

var sinkInt int // defeats dead-code elimination of pure kernels

func noCleanup() {}

var kernels = []kernel{
	{"sim.kernel.after_run", "ns", 3_000_000, func(ops int) (func(), func()) {
		// A self-perpetuating chain: pure engine cost per event.
		e := sim.New(1)
		n := 0
		var step func()
		step = func() {
			if n++; n < ops {
				e.After(time.Microsecond, step)
			}
		}
		return func() { e.After(0, step); e.Run() }, noCleanup
	}},
	{"msg.kernel.encode_vstate", "ns", 2_000_000, func(ops int) (func(), func()) {
		vs := sampleState()
		buf := make([]byte, 0, 256)
		return func() {
			for i := 0; i < ops; i++ {
				buf = msg.AppendEncode(buf[:0], vs)
			}
			sinkInt += len(buf)
		}, noCleanup
	}},
	{"msg.kernel.decode_vstate", "ns", 1_000_000, func(ops int) (func(), func()) {
		buf := msg.Encode(sampleState())
		return func() {
			for i := 0; i < ops; i++ {
				m, err := msg.Decode(buf)
				if err != nil {
					panic(err)
				}
				sinkInt += m.Size()
			}
		}, noCleanup
	}},
	// One encode into a fresh buffer plus one decode: what a control
	// message costs the heap on the tcp path. Reported as allocs only.
	{"msg.kernel.roundtrip", "ns", 500_000, func(ops int) (func(), func()) {
		vs := sampleState()
		return func() {
			for i := 0; i < ops; i++ {
				m, err := msg.Decode(msg.Encode(vs))
				if err != nil {
					panic(err)
				}
				sinkInt += m.Size()
			}
		}, noCleanup
	}},
	{"schedule.kernel.owner_at", "ns", 5_000_000, func(ops int) (func(), func()) {
		p := paperSchedule()
		return func() {
			for i := 0; i < ops; i++ {
				d, _, _ := p.OwnerAt(int32(i%p.NumSlots), sim.Time(i)*sim.Time(time.Millisecond))
				sinkInt += d
			}
		}, noCleanup
	}},
	// The search a cub makes when a start waits for a slot: which slot is
	// under this disk's ownership now, and when the disk next owns it.
	{"schedule.kernel.slot_under_ownership", "ns", 2_000_000, func(ops int) (func(), func()) {
		p := paperSchedule()
		return func() {
			for i := 0; i < ops; i++ {
				t := sim.Time(i) * sim.Time(7*time.Millisecond)
				d := i % p.NumDisks
				slot, _, ok := p.SlotUnderOwnership(d, t)
				if ok {
					open, _ := p.NextOwnership(d, slot, t)
					sinkInt += int(open & 1)
				}
			}
		}, noCleanup
	}},
	{"netsched.kernel.reserve_release", "ns", 2_000, func(ops int) (func(), func()) {
		// A half-full network schedule; each op finds a start, inserts
		// and removes, so occupancy stays put.
		s, err := netsched.New(14, time.Second, 100_000_000)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 300; i++ {
			at, ok := s.FindStart(time.Duration(i)*47*time.Millisecond, 2_000_000, 250*time.Millisecond)
			if !ok {
				break
			}
			if err := s.Insert(netsched.Entry{Instance: msg.InstanceID(i + 1), Start: at, Bitrate: 2_000_000}); err != nil {
				panic(err)
			}
		}
		return func() {
			for i := 0; i < ops; i++ {
				id := msg.InstanceID(1_000_000 + i)
				at, ok := s.FindStart(time.Duration(i%14000)*time.Millisecond, 2_000_000, 250*time.Millisecond)
				if !ok {
					continue
				}
				if err := s.Insert(netsched.Entry{Instance: id, Start: at, Bitrate: 2_000_000}); err == nil {
					s.Remove(id)
				}
			}
		}, noCleanup
	}},
	{"layout.kernel.primary_secondary", "ns", 5_000_000, func(ops int) (func(), func()) {
		lay := layout.Config{Cubs: 56, DisksPerCub: 4, Decluster: 4}
		f := layout.File{ID: 1, StartDisk: 17, Blocks: 3600}
		return func() {
			for i := 0; i < ops; i++ {
				b := i % f.Blocks
				sinkInt += lay.PrimaryDisk(f, b) + lay.SecondaryDisk(f, b, i&3)
			}
		}, noCleanup
	}},
	{"disk.kernel.submit_complete", "ns", 300_000, func(ops int) (func(), func()) {
		e := sim.New(1)
		d := disk.New(0, disk.DefaultParams(), clock.Sim{Eng: e}, e.Rand())
		done := func(sim.Time, bool) { sinkInt++ }
		return func() {
			for i := 0; i < ops; i++ {
				d.Read(262144, disk.Outer, e.Now().Add(time.Second), done)
				if i%8 == 7 {
					e.Run()
				}
			}
			e.Run()
		}, noCleanup
	}},
	{"netsim.kernel.send_deliver", "ns", 500_000, func(ops int) (func(), func()) {
		e := sim.New(1)
		n := netsim.New(netsim.DefaultParams(), clock.Sim{Eng: e}, e.Rand())
		h := netsim.HandlerFunc(func(msg.NodeID, msg.Message) { sinkInt++ })
		n.Register(0, h)
		n.Register(1, h)
		vs := sampleState()
		return func() {
			for i := 0; i < ops; i++ {
				n.Send(0, 1, vs)
				if i%64 == 63 {
					e.Run()
				}
			}
			e.Run()
		}, noCleanup
	}},
	{"viewer.kernel.deliver_block", "ns", 500_000, func(ops int) (func(), func()) {
		e := sim.New(1)
		v := viewer.New(1, clock.Sim{Eng: e}, time.Second, 500*time.Millisecond, nil, &metrics.LossLog{})
		v.Begin(7, 3, 0, int32(ops))
		return func() {
			for k := 0; k < ops; k++ {
				v.DeliverBlock(netsim.BlockDelivery{Viewer: 1, Instance: 7, File: 3,
					Block: int32(k), PlaySeq: int32(k), Parts: 1, Bytes: 262144, LastByte: e.Now()})
				e.RunFor(time.Second) // the block's deadline check fires
			}
			if st := v.Stats(); st.BlocksLost != 0 || st.WrongData != 0 {
				panic("viewer kernel lost blocks")
			}
		}, noCleanup
	}},
	{"wire.kernel.ctl_send_recv", "ns", 100_000, func(ops int) (func(), func()) {
		return wireKernel(ops, sampleState())
	}},
	{"wire.kernel.block_send_recv", "ns", 50_000, func(ops int) (func(), func()) {
		return wireKernel(ops, &msg.BlockData{Viewer: 1, Instance: 7, File: 3, Block: 9, PlaySeq: 9,
			Parts: 1, Bytes: tcpBlockSize, Payload: make([]byte, 1024)})
	}},
	{"core.kernel.build_config", "s", 1, func(int) (func(), func()) {
		return func() {
			if _, err := core.BuildConfig(scaleSpec()); err != nil {
				panic(err)
			}
		}, noCleanup
	}},
	// tiger.New's quadratic term: each cub indexes every block of every
	// file to find the ones on its own disks.
	{"core.kernel.new_cub", "s", 1, func(int) (func(), func()) {
		cfg, err := core.BuildConfig(scaleSpec())
		if err != nil {
			panic(err)
		}
		e := sim.New(1)
		n := netsim.New(netsim.DefaultParams(), clock.Sim{Eng: e}, e.Rand())
		return func() {
			c := core.NewCub(0, cfg, clock.Sim{Eng: e}, n, n, rand.New(rand.NewSource(1)))
			sinkInt += c.ViewSize()
		}, noCleanup
	}},
}

func sampleState() *msg.ViewerState {
	return &msg.ViewerState{Viewer: 7, Instance: 99, File: 4, Block: 1234,
		Slot: 17, PlaySeq: 55, Due: 1234567890, Bitrate: 2_000_000}
}

// paperSchedule is the 14-cub system's schedule geometry: 56 disks, 602 slots.
func paperSchedule() schedule.Params {
	p, err := schedule.NewParams(time.Second, 56, 602)
	if err != nil {
		panic(err)
	}
	return p
}

// scaleSpec is sharded-56's content: 56 cubs, 224 hour-long files.
func scaleSpec() core.SystemSpec {
	return core.SystemSpec{Cubs: 56, DisksPerCub: 4, Decluster: 4, BlockPlay: time.Second,
		BlockSize: 262144, NumFiles: 224, FileBlocks: 3600}
}

// wireKernel sends ops frames back to back through one loopback TCP pair
// (so caches stay warm) while the timed body receives them.
func wireKernel(ops int, m msg.Message) (func(), func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		panic(err)
	}
	in, ok := <-accepted
	if !ok {
		panic("wire kernel: accept failed")
	}
	tx, rx := wire.NewConn(out), wire.NewConn(in)
	body := func() {
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < ops; i++ {
				if err := tx.Send(m); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		for i := 0; i < ops; i++ {
			if _, err := rx.Recv(); err != nil {
				panic(err)
			}
		}
		if err := <-sent; err != nil {
			panic(err)
		}
	}
	return body, func() { tx.Close(); rx.Close(); ln.Close() }
}

// kernelResult is one kernel's cost: the median over repetitions.
type kernelResult struct {
	perOp  float64 // ns per op, or seconds for unit "s"
	allocs float64 // heap allocations per op
}

// runKernels measures every kernel: reps repetitions each, the median
// reported. shrink divides the operation counts (the smoke test).
func runKernels(reps, shrink int, sl *spanLog) map[string]kernelResult {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	parent, endAll := sl.begin("kernels", 0)
	defer endAll()
	out := map[string]kernelResult{}
	for _, k := range kernels {
		ops := k.ops / shrink
		if ops < 1 {
			ops = 1
		}
		_, end := sl.begin(k.name, parent)
		var per, allocs []float64
		for r := 0; r < reps; r++ {
			body, cleanup := k.prep(ops)
			m0 := memStats()
			c0 := cpuTotal()
			body()
			cpu := cpuTotal() - c0
			m1 := memStats()
			cleanup()
			if k.unit == "s" {
				per = append(per, cpu.Seconds())
			} else {
				per = append(per, float64(cpu.Nanoseconds())/float64(ops))
			}
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
		}
		end()
		out[k.name] = kernelResult{perOp: median(per), allocs: median(allocs)}
	}
	return out
}
