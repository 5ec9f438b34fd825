package rt

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
)

// TestBlockCostsThreeExecutorEvents plays blocks through a cub on a real
// Node and counts what the executor ran: per block a read timer, a disk
// completion and a send timer. Handing the buffer back when the paced
// send completes is not a fourth (it was: a wall-clock timer and one
// executor hop per block) — the pool is brought up to date by whoever
// next reads or changes it, here the BufferedBytes call one pace after
// the last send, before which nothing ran on the executor at all.
func TestBlockCostsThreeExecutorEvents(t *testing.T) {
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
	n := NewNode(time.Now())
	defer n.Close()
	data := &blockLog{}
	c := core.NewCub(0, cfg, n, nopTransport{}, data, rand.New(rand.NewSource(1)))
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())

	const blocks = 8
	syncs := uint64(0)
	sync := func(fn func()) {
		syncs++
		n.Sync(fn)
	}
	before := n.Processed()
	sync(func() {
		due := n.Now().Add(200 * time.Millisecond)
		for k := 0; k < blocks; k++ {
			inst := msg.InstanceID(k + 1)
			c.Deliver(1, &msg.ViewerState{Viewer: msg.ViewerID(inst), Instance: inst,
				Block: onDisk0 + int32(k*cfg.Layout.NumDisks()), Slot: int32(2 + k),
				Due: int64(due.Add(time.Duration(k) * 10 * time.Millisecond)), Epoch: 1, Bitrate: 2_000_000})
		}
	})
	var st core.CubStats
	for deadline := time.Now().Add(5 * time.Second); st.BlocksSent < blocks; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d blocks sent: %+v", st.BlocksSent, blocks, st)
		}
		time.Sleep(20 * time.Millisecond)
		sync(func() { st = c.Stats() })
	}
	if got := n.Processed() - before - syncs; got != 3*blocks {
		t.Fatalf("%d executor events for %d blocks, want 3 each (read timer, disk completion, send timer)", got, blocks)
	}

	// One pace (a block play time) after the last send its buffer is back,
	// and no event brought it.
	quiet := n.Processed()
	time.Sleep(cfg.Sched.BlockPlay + 50*time.Millisecond)
	if ran := n.Processed() - quiet; ran != 0 {
		t.Fatalf("%d executor events after the last send", ran)
	}
	sync(func() {
		if got := c.BufferedBytes(); got != 0 {
			t.Errorf("%d bytes buffered one pace after the last send", got)
		}
		if st := c.Stats(); st.PeakBuffered < cfg.BlockSize || st.ServerMisses != 0 || len(data.insts) != blocks {
			t.Errorf("peak %d, stats %+v, %d blocks on the data path", st.PeakBuffered, st, len(data.insts))
		}
	})
}

// sendLog is a data path that notes when each block's send timer handed
// it over, and with what pace, before passing it to a mesh.
type sendLog struct {
	mesh *Mesh
	mu   sync.Mutex
	sent map[msg.InstanceID]sentBlock
}

type sentBlock struct {
	at   time.Time
	pace time.Duration
}

func (l *sendLog) SendBlock(from msg.NodeID, d netsim.BlockDelivery, pace time.Duration) {
	l.mu.Lock()
	l.sent[d.Instance] = sentBlock{time.Now(), pace}
	l.mu.Unlock()
	l.mesh.SendBlock(from, d, pace)
}

// TestMeshBlockCostsThreeExecutorEvents is TestBlockCostsThreeExecutorEvents
// with the cub's data path a real Mesh to a viewer on 127.0.0.1: pacing
// the send and handing it to the connection's writer is not a fourth
// executor event (it was: a wall-clock timer and one executor hop per
// block), and no block leaves before its pace has passed.
func TestMeshBlockCostsThreeExecutorEvents(t *testing.T) {
	cfg := stopRaceConfig(t)
	mesh := testMesh(t, 0, nil, nil)
	n := mesh.node
	type arrival struct {
		inst msg.InstanceID
		at   time.Time
	}
	const blocks = 8
	arrived := make(chan arrival, blocks)
	addr := testViewer(t, func(b *msg.BlockData) { arrived <- arrival{b.Instance, time.Now()} })
	data := &sendLog{mesh: mesh, sent: make(map[msg.InstanceID]sentBlock)}
	c := core.NewCub(0, cfg, n, nopTransport{}, data, rand.New(rand.NewSource(1)))
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())

	before := n.Processed()
	n.Sync(func() {
		due := n.Now().Add(200 * time.Millisecond)
		for k := 0; k < blocks; k++ {
			inst := msg.InstanceID(k + 1)
			c.Deliver(1, &msg.ViewerState{Viewer: msg.ViewerID(inst), Instance: inst, Addr: addr,
				Block: onDisk0 + int32(k*cfg.Layout.NumDisks()), Slot: int32(2 + k),
				Due: int64(due.Add(time.Duration(k) * 10 * time.Millisecond)), Epoch: 1, Bitrate: 2_000_000})
		}
	})
	deadline := time.After(5 * time.Second)
	for k := 0; k < blocks; k++ {
		select {
		case a := <-arrived:
			data.mu.Lock()
			s, ok := data.sent[a.inst]
			data.mu.Unlock()
			if !ok {
				t.Fatalf("instance %d arrived but was never sent", a.inst)
			}
			if early := s.at.Add(s.pace).Sub(a.at); early > 0 {
				t.Errorf("instance %d arrived %v before its pace of %v had passed", a.inst, early, s.pace)
			}
		case <-deadline:
			t.Fatalf("%d of %d blocks arrived", k, blocks)
		}
	}
	var st core.CubStats
	n.Sync(func() { st = c.Stats() })
	if st.BlocksSent != blocks || st.ServerMisses != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := n.Processed() - before - 2; got != 3*blocks {
		t.Fatalf("%d executor events for %d blocks, want 3 each (read timer, disk completion, send timer)", got, blocks)
	}
}
