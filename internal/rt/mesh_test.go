package rt

import (
	"net"
	"sort"
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/netsim"
)

// testMesh starts node id's mesh on a fresh executor; both close when the
// test ends. A nil handler discards what arrives.
func testMesh(t *testing.T, id msg.NodeID, addrs map[msg.NodeID]string, handler func(msg.NodeID, msg.Message)) *Mesh {
	t.Helper()
	n := NewNode(time.Now())
	t.Cleanup(n.Close)
	if handler == nil {
		handler = func(msg.NodeID, msg.Message) {}
	}
	m, err := NewMesh(id, n, "127.0.0.1:0", addrs, handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// testViewer starts a viewer client that hands every block to onBlock,
// closed when the test ends, and returns its address.
func testViewer(t *testing.T, onBlock func(*msg.BlockData)) [16]byte {
	t.Helper()
	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vc.Close)
	vc.SetHandlers(onBlock, nil)
	addr, err := vc.EncodedAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// nowhere is a viewer address nothing in these tests ever dials.
var nowhere, _ = EncodeAddr("127.0.0.1:9")

// TestPacedSendsLeaveInDueOrder queues full blocks and MirrorPace pieces
// to one viewer out of due order, with heartbeats to a cub queued between
// them: the blocks leave in due order (a piece's shorter pace overtakes
// the blocks queued before it, equal paces keep their queueing order),
// and the heartbeats arrive in the order they were sent.
func TestPacedSendsLeaveInDueOrder(t *testing.T) {
	cfg := stopRaceConfig(t)
	play, piece := cfg.Sched.BlockPlay, cfg.MirrorPace()
	ctl := make(chan msg.Message, 16)
	cub := testMesh(t, 1, nil, func(_ msg.NodeID, m msg.Message) { ctl <- keep(m) })
	mesh := testMesh(t, 0, map[msg.NodeID]string{1: cub.Addr()}, nil)
	got := make(chan int32, 16)
	addr := testViewer(t, func(b *msg.BlockData) { got <- b.Block })

	paces := []time.Duration{play, piece, play, piece, play, piece}
	mesh.node.Sync(func() {
		for k, pace := range paces {
			mesh.SendBlock(0, netsim.BlockDelivery{Addr: addr, Block: int32(k), Bytes: 4096,
				Mirror: pace == piece}, pace)
			mesh.Send(0, 1, &msg.Heartbeat{From: 0, Epoch: int32(k)})
		}
	})
	want := make([]int32, len(paces))
	for k := range want {
		want[k] = int32(k)
	}
	sort.SliceStable(want, func(i, j int) bool { return paces[want[i]] < paces[want[j]] })
	deadline := time.After(5 * time.Second)
	for i, w := range want {
		select {
		case b := <-got:
			if b != w {
				t.Fatalf("frame %d to leave was block %d, want %d (due order %v)", i, b, w, want)
			}
		case <-deadline:
			t.Fatalf("%d of %d blocks arrived", i, len(want))
		}
	}
	recv := func() msg.Message {
		select {
		case m := <-ctl:
			return m
		case <-deadline:
			t.Fatal("a control frame never arrived")
			return nil
		}
	}
	if m := recv(); m.Type() != msg.THello {
		t.Fatalf("first control frame %+v, want the Hello", m)
	}
	for i := range paces {
		if m := recv(); m.Type() != msg.THeartbeat || m.(*msg.Heartbeat).Epoch != int32(i) {
			t.Fatalf("control frame %d is %+v, want heartbeat %d", i+1, m, i)
		}
	}
}

// TestPeerQueueBound: a peer holds at most maxQueued frames waiting to
// leave; the next is dropped and counted in QueueDrops.
func TestPeerQueueBound(t *testing.T) {
	m := testMesh(t, 0, nil, nil)
	d := netsim.BlockDelivery{Addr: nowhere, Bytes: 1024}
	for i := 0; i < maxQueued; i++ {
		m.SendBlock(0, d, time.Hour) // nothing falls due, so nothing leaves
	}
	if st := m.Stats(); st.QueueDrops != 0 {
		t.Fatalf("%d drops with %d frames waiting", st.QueueDrops, maxQueued)
	}
	m.SendBlock(0, d, time.Hour)
	if st := m.Stats(); st.QueueDrops != 1 || st.Dials != 0 {
		t.Fatalf("frame %d waiting: %+v, want it dropped and no dial", maxQueued+1, st)
	}
}

// TestMeshSendBlockAllocs: on a warmed peer whose frames have not left,
// SendBlock allocates the BlockData (the writer hands it back once it
// has: TestMeshBlockPathAllocs) and nothing else — no timer, no closure,
// no address string and no payload of its own.
func TestMeshSendBlockAllocs(t *testing.T) {
	m := testMesh(t, 0, nil, nil)
	d := netsim.BlockDelivery{Addr: nowhere, Bytes: 16 << 10}
	m.SendBlock(0, d, time.Hour) // the viewer peer and its writer exist from here
	// The thousand frames wait an hour, so the queue only grows; its
	// doublings are a few dozen allocations spread over the runs.
	if a := testing.AllocsPerRun(1000, func() { m.SendBlock(0, d, time.Hour) }); a > 1 {
		t.Fatalf("SendBlock allocated %v per block, want at most 1 (the BlockData)", a)
	}
}

// TestNoPeerAfterClose: a closed mesh starts no writer. The executor
// drains its queue after the mesh is closed, so protocol code sends on a
// closed mesh at every shutdown; each such send used to start a writer
// goroutine that dialed and, its quit channel never to be closed, never
// exited.
func TestNoPeerAfterClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	m := testMesh(t, 0, map[msg.NodeID]string{1: ln.Addr().String()}, nil)
	addr, err := EncodeAddr(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Send(0, 1, &msg.Heartbeat{From: 0})
	m.SendBlock(0, netsim.BlockDelivery{Addr: addr, Bytes: 1024}, 0)
	m.sendViewer(addr, m.node.Now(), &msg.StartAck{Viewer: 1})
	m.mu.Lock()
	peers, viewers := len(m.peers), len(m.viewers)
	m.mu.Unlock()
	if peers != 0 || viewers != 0 {
		t.Fatalf("closed mesh started %d cub and %d viewer writers", peers, viewers)
	}
}
