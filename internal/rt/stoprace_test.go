package rt

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
)

type nopTransport struct{}

func (nopTransport) Send(from, to msg.NodeID, m msg.Message) {}

type blockLog struct{ insts []msg.InstanceID }

func (l *blockLog) SendBlock(_ msg.NodeID, d netsim.BlockDelivery, _ time.Duration) {
	l.insts = append(l.insts, d.Instance)
}

// TestStaleTimerAfterLostStop drives a cub on a real Node through the
// race a wall-clock timer allows and the simulator does not: an entry's
// read timer has fired and its callback is queued on the executor when a
// deschedule stops it — Stop reports false — and another instance is
// inserted into the same slot before the queued callback runs. The
// callback must find its entry gone. One that looks its entry up again
// by slot and due time finds the new instance's instead and issues that
// entry's read a second time.
func TestStaleTimerAfterLostStop(t *testing.T) {
	cfg, err := core.BuildConfig(core.SystemSpec{Cubs: 4, DisksPerCub: 1, Decluster: 2,
		BlockPlay: 100 * time.Millisecond, BlockSize: 32768, NumFiles: 1, FileBlocks: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinVStateLead = 400 * time.Millisecond
	cfg.MaxVStateLead = 900 * time.Millisecond
	cfg.ForwardInterval = 50 * time.Millisecond
	cfg.DescheduleHold = 300 * time.Millisecond
	cfg.ReadAhead = 100 * time.Millisecond
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := NewNode(time.Now())
	defer n.Close()
	data := &blockLog{}
	c := core.NewCub(0, cfg, n, nopTransport{}, data, rand.New(rand.NewSource(1)))
	onDisk0 := int32((cfg.Layout.NumDisks() - cfg.Files[0].StartDisk) % cfg.Layout.NumDisks())

	n.Do(func() {
		// Due inside the read-ahead: the read timer is armed for now, and
		// fires into the executor queue while this callback still holds
		// the executor.
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
		if ds := c.DiskByIndex(0).Stats(); ds.Reads != 1 || ds.Cancelled != 0 {
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
