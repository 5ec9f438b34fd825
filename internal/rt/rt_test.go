package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
)

func TestNodeExecutorSerializes(t *testing.T) {
	n := NewNode(time.Now())
	defer n.Close()
	var mu sync.Mutex
	inside := 0
	maxInside := 0
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		n.Do(func() {
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			mu.Lock()
			inside--
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("executor ran %d callbacks concurrently", maxInside)
	}
	if p := n.Processed(); p < 200 {
		t.Fatalf("Processed() = %d after 200 callbacks", p)
	}
}

func TestNodeClock(t *testing.T) {
	n := NewNode(time.Now())
	defer n.Close()
	start := n.Now()
	fired := make(chan struct{})
	n.After(30*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if n.Now().Sub(start) < 25*time.Millisecond {
		t.Fatal("clock barely advanced")
	}
	// Stopped timers do not fire.
	var ran atomic.Bool
	tm := n.After(50*time.Millisecond, func() { ran.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	time.Sleep(120 * time.Millisecond)
	if ran.Load() {
		t.Fatal("stopped timer fired")
	}
}

// keep copies a delivered message: a mesh handler's message is valid
// only during the call.
func keep(m msg.Message) msg.Message {
	c, err := msg.Decode(msg.Encode(m))
	if err != nil {
		panic(err)
	}
	return c
}

func TestMeshRoundTrip(t *testing.T) {
	epoch := time.Now()
	nodeA := NewNode(epoch)
	nodeB := NewNode(epoch)
	defer nodeA.Close()
	defer nodeB.Close()

	got := make(chan msg.Message, 16)
	addrs := map[msg.NodeID]string{}

	meshB, err := NewMesh(1, nodeB, "127.0.0.1:0", addrs,
		func(from msg.NodeID, m msg.Message) {
			if from != 0 {
				t.Errorf("from = %v", from)
			}
			got <- keep(m)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer meshB.Close()
	addrs[1] = meshB.Addr()

	meshA, err := NewMesh(0, nodeA, "127.0.0.1:0", addrs, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer meshA.Close()

	for i := 0; i < 10; i++ {
		meshA.Send(0, 1, &msg.Heartbeat{From: 0, Epoch: int32(i)})
	}
	// The connection preamble — a Hello announcing the sender's liveness
	// epoch — is delivered to the handler before the payload messages.
	select {
	case m := <-got:
		if _, ok := m.(*msg.Hello); !ok {
			t.Fatalf("first frame %+v, want Hello", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("hello never arrived")
	}
	for i := 0; i < 10; i++ {
		select {
		case m := <-got:
			hb, ok := m.(*msg.Heartbeat)
			if !ok || hb.Epoch != int32(i) {
				t.Fatalf("message %d: %+v", i, m)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

func TestAddrCodec(t *testing.T) {
	a, err := EncodeAddr("127.0.0.1:65535")
	if err != nil {
		t.Fatal(err)
	}
	if DecodeAddr(a) != "127.0.0.1:65535" {
		t.Fatalf("round trip %q", DecodeAddr(a))
	}
	if _, err := EncodeAddr("host.example.com:12345"); err == nil {
		t.Fatal("oversized address accepted")
	}
}

// rtSystem assembles a full real-TCP Tiger system on loopback.
func rtSystem(t *testing.T, cubs int) (*ControllerHost, []*CubHost, *core.Config) {
	t.Helper()
	ctl, hosts, cfg, _, _ := rtSystemFull(t, cubs)
	return ctl, hosts, cfg
}

// rtSystemFull additionally returns the shared address map and time epoch,
// which a test needs to launch a replacement host for a killed cub.
func rtSystemFull(t *testing.T, cubs int) (*ControllerHost, []*CubHost, *core.Config,
	map[msg.NodeID]string, time.Time) {
	t.Helper()
	cfg, err := core.BuildConfig(core.SystemSpec{
		Cubs:        cubs,
		DisksPerCub: 1,
		Decluster:   2,
		BlockPlay:   100 * time.Millisecond,
		BlockSize:   32768,
		NumFiles:    2,
		FileBlocks:  600,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Real-time scale-down: the leads shrink with the block play time by
	// default; the deadman runs a 100 ms heartbeat and a 500 ms timeout.
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.DeadmanTimeout = 500 * time.Millisecond
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	epoch := time.Now()
	addrs := map[msg.NodeID]string{}
	ctl, err := StartControllerHost(cfg, "127.0.0.1:0", addrs, epoch)
	if err != nil {
		t.Fatal(err)
	}
	addrs[msg.Controller] = ctl.Mesh.Addr()
	var hosts []*CubHost
	for i := 0; i < cubs; i++ {
		h, err := StartCubHost(msg.NodeID(i), cfg, "127.0.0.1:0", addrs, epoch, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		addrs[msg.NodeID(i)] = h.Mesh.Addr()
		hosts = append(hosts, h)
	}
	// Meshes snapshot the address table at construction; tell the early
	// starters about the nodes that came up after them.
	for id, a := range addrs {
		ctl.Mesh.SetAddr(id, a)
		for _, h := range hosts {
			h.Mesh.SetAddr(id, a)
		}
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Close()
		}
		ctl.Close()
	})
	return ctl, hosts, cfg, addrs, epoch
}

// cubStats reads a cub's counters on its own executor, so tests do not
// race with the protocol code.
func cubStats(t *testing.T, h *CubHost) core.CubStats {
	t.Helper()
	var st core.CubStats
	done := make(chan struct{})
	h.Node.Do(func() {
		st = h.Cub.Stats()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cub executor unresponsive")
	}
	return st
}

func TestEndToEndStreamOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	ctl, _, _ := rtSystem(t, 4)

	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	var blocks atomic.Int64
	var lastSeq atomic.Int32
	acked := make(chan msg.InstanceID, 1)
	vc.SetHandlers(
		func(b *msg.BlockData) {
			blocks.Add(1)
			lastSeq.Store(b.PlaySeq)
			if len(b.Payload) == 0 {
				t.Error("empty payload")
			}
		},
		func(a *msg.StartAck) {
			select {
			case acked <- a.Instance:
			default:
			}
		},
	)

	cc, err := DialController(ctl.Mesh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Start(7, vc.Addr(), 0, 0, 2_000_000); err != nil {
		t.Fatal(err)
	}

	var inst msg.InstanceID
	select {
	case inst = <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("no start ack")
	}

	// 100 ms blocks: expect roughly 20 blocks over 2 s of play.
	time.Sleep(2500 * time.Millisecond)
	n := blocks.Load()
	if n < 12 {
		t.Fatalf("received %d blocks over TCP, want ~20", n)
	}

	if err := cc.Stop(inst); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	quiesced := blocks.Load()
	time.Sleep(700 * time.Millisecond)
	if blocks.Load() > quiesced+1 {
		t.Fatalf("blocks kept flowing after stop: %d -> %d", quiesced, blocks.Load())
	}
	t.Logf("received %d blocks, last playseq %d", n, lastSeq.Load())
}

func TestEpochService(t *testing.T) {
	ctl, _, _ := rtSystem(t, 3)
	addr, err := ctl.ServeEpoch("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := FetchEpoch(addr)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(epoch) > time.Minute || time.Since(epoch) < 0 {
		t.Fatalf("implausible epoch %v", epoch)
	}
}

// TestFailoverOverTCP kills a cub host mid-stream and verifies the
// deadman protocol and mirror takeover work over real TCP exactly as in
// the simulator: the viewer keeps receiving (some blocks as declustered
// pieces) after a bounded gap.
func TestFailoverOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	ctl, hosts, cfg := rtSystem(t, 5)

	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	var blocks atomic.Int64
	var pieces atomic.Int64
	acked := make(chan msg.InstanceID, 1)
	vc.SetHandlers(
		func(b *msg.BlockData) {
			blocks.Add(1)
			if b.Mirror {
				pieces.Add(1)
			}
		},
		func(a *msg.StartAck) {
			select {
			case acked <- a.Instance:
			default:
			}
		},
	)

	cc, err := DialController(ctl.Mesh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Start(9, vc.Addr(), 0, 0, 2_000_000); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("no start ack")
	}
	time.Sleep(1200 * time.Millisecond)

	// Kill a cub that is not currently inserting: close its host. Its
	// TCP listener dies; peers' sends fail silently; the deadman fires
	// within ~500 ms (scaled config).
	victim := hosts[2]
	victim.Close()

	before := blocks.Load()
	time.Sleep(4 * time.Second) // ~8 ring revolutions at 100 ms blocks
	after := blocks.Load()

	t.Logf("blocks: %d before kill, %d after 4s (mirror pieces: %d)", before, after, pieces.Load())
	// 100 ms blocks: ~40 more expected; allow generous losses around the
	// detection window but demand the stream kept flowing.
	if after-before < 25 {
		t.Fatalf("stream stalled after cub failure: %d -> %d", before, after)
	}
	if pieces.Load() == 0 {
		t.Fatal("no declustered mirror pieces delivered over TCP")
	}
	_ = cfg
}

// TestMeshBackoffAndReconnect exercises the hardened redial policy: while
// a peer is down, messages are dropped under backoff instead of each
// eating a fresh dial, and once the peer returns the mesh reconnects and
// announces the configured epoch in its Hello.
func TestMeshBackoffAndReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	epoch := time.Now()
	nodeA := NewNode(epoch)
	defer nodeA.Close()
	nodeB := NewNode(epoch)
	defer nodeB.Close()

	addrs := map[msg.NodeID]string{}
	gotB := make(chan msg.Message, 256)
	meshB, err := NewMesh(1, nodeB, "127.0.0.1:0", addrs,
		func(from msg.NodeID, m msg.Message) { gotB <- keep(m) })
	if err != nil {
		t.Fatal(err)
	}
	bAddr := meshB.Addr()
	addrs[1] = bAddr

	meshA, err := NewMesh(0, nodeA, "127.0.0.1:0", addrs, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer meshA.Close()
	meshA.SetEpoch(1)

	// Establish the connection; the first frame must be Hello{Epoch: 1}.
	meshA.Send(0, 1, &msg.Heartbeat{From: 0})
	select {
	case m := <-gotB:
		h, ok := m.(*msg.Hello)
		if !ok || h.From != 0 || h.Epoch != 1 {
			t.Fatalf("first frame %+v, want Hello from 0 epoch 1", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no hello")
	}
	select {
	case m := <-gotB:
		if _, ok := m.(*msg.Heartbeat); !ok {
			t.Fatalf("second frame %+v, want heartbeat", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no heartbeat")
	}

	// Kill B. Its Close tears down the accepted connection, so A's next
	// send fails and A starts probing.
	meshB.Close()

	// Outage traffic: 40 sends over ~400 ms. The old per-message dial
	// would attempt 40 dials; under backoff almost all sends must be
	// dropped without dialing.
	for i := 0; i < 40; i++ {
		meshA.Send(0, 1, &msg.Heartbeat{From: 0})
		time.Sleep(10 * time.Millisecond)
	}
	st := meshA.Stats()
	if st.DialFails == 0 {
		t.Fatalf("no failed dials recorded during outage: %+v", st)
	}
	if st.BackoffDrops < 10 {
		t.Fatalf("only %d backoff drops over 40 sends; redials not rate limited: %+v",
			st.BackoffDrops, st)
	}
	if st.Dials > 15 {
		t.Fatalf("%d dials during a 400ms outage; dial storm: %+v", st.Dials, st)
	}

	// Restart B on the same address with a new epoch on A's side, as a
	// restarted cub would. A must reconnect within the backoff cap and the
	// new connection's Hello must carry the new epoch.
	meshA.SetEpoch(2)
	nodeB2 := NewNode(epoch)
	defer nodeB2.Close()
	gotB2 := make(chan msg.Message, 256)
	meshB2, err := NewMesh(1, nodeB2, bAddr, addrs,
		func(from msg.NodeID, m msg.Message) { gotB2 <- keep(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer meshB2.Close()

	deadline := time.Now().Add(15 * time.Second)
	var helloEpoch int32 = -1
	delivered := false
	for !delivered && time.Now().Before(deadline) {
		meshA.Send(0, 1, &msg.Heartbeat{From: 0, Epoch: 99})
		select {
		case m := <-gotB2:
			switch mm := m.(type) {
			case *msg.Hello:
				helloEpoch = mm.Epoch
			case *msg.Heartbeat:
				delivered = true
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("delivery never resumed after peer restart")
	}
	if helloEpoch != 2 {
		t.Fatalf("reconnect hello epoch %d, want 2", helloEpoch)
	}
	if st := meshA.Stats(); st.Reconnects < 1 {
		t.Fatalf("no reconnect counted: %+v", st)
	}
}

// TestRestartRejoinOverTCP is the rt half of the reintegration story: a
// cub host is killed mid-stream, a replacement process comes up on the
// same identity and address, runs the rejoin handshake, and the ring
// accepts it back — peers reconnect and the stream keeps flowing.
func TestRestartRejoinOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	ctl, hosts, cfg, addrs, epoch := rtSystemFull(t, 5)

	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	var blocks atomic.Int64
	acked := make(chan msg.InstanceID, 1)
	vc.SetHandlers(
		func(b *msg.BlockData) { blocks.Add(1) },
		func(a *msg.StartAck) {
			select {
			case acked <- a.Instance:
			default:
			}
		},
	)

	cc, err := DialController(ctl.Mesh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Start(9, vc.Addr(), 0, 0, 2_000_000); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("no start ack")
	}
	time.Sleep(1200 * time.Millisecond)

	victim := hosts[2]
	victimAddr := victim.Mesh.Addr()
	victimEpoch := victim.Cub.Epoch() // never changes on the victim; safe to read
	victim.Close()

	// Let the deadman fire and the mirrors take over.
	time.Sleep(1200 * time.Millisecond)

	// Replacement process: same identity, same address, fresh state. A
	// fresh process boots at epoch 1, so move past the dead incarnation
	// before rejoining.
	h2, err := StartCubHost(2, cfg, victimAddr, addrs, epoch, 1002)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h2.Close)
	h2.Node.Do(func() { h2.Cub.SetEpoch(victimEpoch) })
	h2.Rejoin()

	before := blocks.Load()
	time.Sleep(3 * time.Second)
	after := blocks.Load()
	if after-before < 20 {
		t.Fatalf("stream stalled after restart: %d -> %d", before, after)
	}

	st := cubStats(t, h2)
	if st.Rejoins != 1 {
		t.Fatalf("replacement cub recorded %d rejoins, want 1", st.Rejoins)
	}
	if e := h2.Cub.Epoch(); e <= victimEpoch {
		t.Fatalf("replacement epoch %d not past dead incarnation's %d", e, victimEpoch)
	}

	// Ring peers must have redialed the replacement.
	var reconnects int64
	for i, h := range hosts {
		if i == 2 {
			continue
		}
		reconnects += h.Mesh.Stats().Reconnects
	}
	if reconnects == 0 {
		t.Fatal("no surviving peer reconnected to the restarted cub")
	}

	// The replacement should also be serving again: its heartbeat and
	// rejoin traffic must have cleared believedDead on the neighbours, so
	// new states flow to it and it sends blocks.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := cubStats(t, h2); st.BlocksSent > 0 {
			t.Logf("reintegrated: %d blocks sent, %d states transferred, rejoins served by peers ok",
				st.BlocksSent, st.ViewTransferred)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("restarted cub never served a block after rejoin")
}
