package rt

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

type nopTransport struct{}

func (nopTransport) Send(from, to msg.NodeID, m msg.Message) {}

type blockLog struct{ insts []msg.InstanceID }

func (l *blockLog) SendBlock(_ msg.NodeID, d netsim.BlockDelivery, _ time.Duration) {
	l.insts = append(l.insts, d.Instance)
}

// stopRaceConfig is a four-cub system with 100 ms blocks read 100 ms
// ahead of their sends.
func stopRaceConfig(t *testing.T) *core.Config {
	t.Helper()
	cfg, err := core.BuildConfig(core.SystemSpec{Cubs: 4, DisksPerCub: 1, Decluster: 2,
		BlockPlay: 100 * time.Millisecond, BlockSize: 32768, NumFiles: 1, FileBlocks: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The leads, batch, hold and read-ahead scale with the block play;
	// the deadman keeps its one-second-block timings.
	cfg.HeartbeatInterval = 500 * time.Millisecond
	cfg.DeadmanTimeout = 2500 * time.Millisecond
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestStaleTimerAfterLostStop drives a cub on a real Node through what
// was once a race: the instant of the timer set for an entry's read
// passes while the executor is busy, and a deschedule takes the entry
// away and another instance is inserted into the same slot before the
// timer runs. The executor runs a timer only once it takes it from its
// queue, so the callback serves whatever the drive's walk holds by then:
// the new instance's read, once. A callback bound to the old entry that
// looked it up again by slot and due time issued the new entry's read a
// second time.
func TestStaleTimerAfterLostStop(t *testing.T) {
	cfg := stopRaceConfig(t)
	n := NewNode(time.Now())
	defer n.Close()
	data := &blockLog{}
	c := core.NewCub(0, cfg, n, nopTransport{}, data, rand.New(rand.NewSource(1)))
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())

	n.Do(func() {
		// Due inside the read-ahead: the walk's timer is armed for now,
		// and falls due while this callback still holds the executor.
		due := int64(n.Now().Add(90 * time.Millisecond))
		state := func(inst msg.InstanceID) *msg.ViewerState {
			return &msg.ViewerState{Viewer: msg.ViewerID(inst), Instance: inst, Block: onDisk0,
				Slot: 2, Due: due, Epoch: 1, Bitrate: 2_000_000}
		}
		c.Deliver(1, state(1))
		time.Sleep(30 * time.Millisecond)
		c.Deliver(msg.Controller, &msg.Deschedule{Viewer: 1, Instance: 1, Slot: 2})
		c.Deliver(1, state(2))
	})

	time.Sleep(400 * time.Millisecond) // read, send at due, one block play of pacing
	done := make(chan struct{})
	n.Do(func() {
		defer close(done)
		st := c.Stats()
		if len(data.insts) != 1 || data.insts[0] != 2 || st.BlocksSent != 1 || st.ServerMisses != 0 {
			t.Errorf("blocks sent for %v, stats %+v", data.insts, st)
		}
		if ds := c.Disk(0).Stats(); ds.Reads != 1 || ds.Cancelled != 0 {
			t.Errorf("disk stats %+v: want the new entry's one read", ds)
		}
		if c.BufferedBytes() != 0 || c.ViewSize() != 0 || st.IndexMisses != 0 {
			t.Errorf("buffered %d view %d index misses %d", c.BufferedBytes(), c.ViewSize(), st.IndexMisses)
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("executor unresponsive")
	}
}

// deafClock is a Node whose timers cannot be stopped: Stop reports false
// and the callback still runs, so every Stop loses the race to a
// callback already on its way. The Node's own Stop is exact; the walk's
// guard is written for a Clock whose Stop is not.
type deafClock struct{ *Node }

func (d deafClock) At(t sim.Time, fn func()) clock.Timer {
	d.Node.At(t, fn)
	return clock.Timer{}
}

func (d deafClock) After(dur time.Duration, fn func()) clock.Timer {
	d.Node.After(dur, fn)
	return clock.Timer{}
}

// TestLostStopStartsNoSecondChain: an entry due earlier re-arms the
// walk's timer and the Stop of the one it replaces is lost, so two
// callbacks are on their way where one is armed. Both run; whichever
// finds its instant come does the work and arms the next, the other
// finds nothing due and arms nothing. Were the late one to arm as well,
// two timer chains would run from then on and every later read and send
// would take two callbacks: twenty blocks of play would cost the
// executor five events each instead of three.
func TestLostStopStartsNoSecondChain(t *testing.T) {
	cfg := stopRaceConfig(t)
	cfg.ReadAhead = 300 * time.Millisecond
	cfg.Health.Disable = true // a loaded host must not add hedges to the count
	n := NewNode(time.Now())
	defer n.Close()
	data := &blockLog{}
	c := core.NewCub(0, cfg, deafClock{n}, nopTransport{}, data, rand.New(rand.NewSource(1)))
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())

	const blocks = 20
	before := n.Processed()
	n.Sync(func() {
		first := n.Now().Add(400 * time.Millisecond)
		state := func(k int, due sim.Time) *msg.ViewerState {
			inst := msg.InstanceID(k + 1)
			return &msg.ViewerState{Viewer: msg.ViewerID(inst), Instance: inst,
				Block: onDisk0 + int32(k*cfg.Layout.NumDisks()), Slot: int32(2 + k),
				Due: int64(due), Epoch: 1, Bitrate: 2_000_000}
		}
		// The timer is set for this entry's read, 100 ms from now; an
		// entry due 10 ms before it re-arms, and the first timer runs on.
		c.Deliver(1, state(1, first))
		c.Deliver(1, state(0, first.Add(-10*time.Millisecond)))
		// The rest 90 ms apart, so that no read shares its instant with a
		// send and each takes a callback of its own.
		for k := 2; k < blocks; k++ {
			c.Deliver(1, state(k, first.Add(time.Duration(k-1)*90*time.Millisecond)))
		}
	})
	time.Sleep(400*time.Millisecond + blocks*90*time.Millisecond + 200*time.Millisecond)
	n.Sync(func() {
		st := c.Stats()
		if int64(len(data.insts)) != st.BlocksSent || st.BlocksSent+st.ServerMisses != blocks {
			t.Errorf("%d blocks on the data path, stats %+v", len(data.insts), st)
		}
		if ds := c.Disk(0).Stats(); ds.Reads > blocks {
			t.Errorf("disk stats %+v: a block was read twice", ds)
		}
		if c.BufferedBytes() != 0 || c.ViewSize() != 0 {
			t.Errorf("buffered %d view %d", c.BufferedBytes(), c.ViewSize())
		}
	})
	// A read, a completion and a send per block, the two Syncs, and the
	// callback that could not be stopped.
	if got, limit := n.Processed()-before, uint64(3*blocks+2+4); got > limit {
		t.Fatalf("%d executor events for %d blocks, want at most %d: a second timer chain is running", got, blocks, limit)
	}
}
