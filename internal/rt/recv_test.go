package rt

import (
	"io"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/wire"
)

// mallocsPer runs fn, which handles n frames or blocks, twice to warm
// up and then three times measured, and returns the fewest heap
// allocations the whole process made per frame in a measured run. A
// per-frame cost shows in every run; a pool or queue growing to its
// working size because the goroutines happened to interleave
// differently shows in one.
func mallocsPer(n int, fn func()) float64 {
	fn()
	fn()
	best := math.Inf(1)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		best = min(best, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return best
}

// counter counts deliveries and signals done when the count reaches
// want, all without allocating.
type counter struct {
	n, want atomic.Int64
	done    chan struct{}
	timeout *time.Timer // reused: a time.After per wait would allocate
}

func newCounter() *counter {
	return &counter{done: make(chan struct{}, 1), timeout: time.NewTimer(time.Hour)}
}

func (c *counter) add() {
	if c.n.Add(1) == c.want.Load() {
		c.done <- struct{}{}
	}
}

// expect arms the counter for k more deliveries, runs send and waits for
// them.
func (c *counter) expect(t *testing.T, k int, send func()) {
	t.Helper()
	c.want.Store(c.n.Load() + int64(k))
	c.timeout.Reset(10 * time.Second)
	defer c.timeout.Stop()
	send()
	select {
	case <-c.done:
	case <-c.timeout.C:
		t.Fatalf("%d of %d deliveries", k-int(c.want.Load()-c.n.Load()), k)
	}
}

// TestMeshRecvAllocs: the per-block kinds — a viewer state, a batch of
// them, a deschedule, a heartbeat — cross a real mesh into a handler
// with no allocation per frame once both ends are warm: the reader
// decodes into its connection's pooled records and hands the executor
// one drain per run of frames, with no closure.
func TestMeshRecvAllocs(t *testing.T) {
	got := newCounter()
	b := testMesh(t, 1, nil, func(msg.NodeID, msg.Message) { got.add() })
	a := testMesh(t, 0, map[msg.NodeID]string{1: b.Addr()}, nil)
	vs := &msg.ViewerState{Viewer: 1, Instance: 2, Slot: 3, Due: 4}
	frames := []msg.Message{
		vs,
		&msg.Batch{Msgs: []msg.Message{vs, vs, vs}},
		&msg.Deschedule{Viewer: 1, Instance: 2, Slot: 3},
		&msg.Heartbeat{From: 0, Epoch: 1},
	}
	got.expect(t, 1, func() { a.Send(0, 1, vs) }) // the Hello and one frame
	// Frames come a few dozen at a time, as the cubs' forward ticks send them.
	const rounds, burst = 500, 25
	send := func() {
		for r := 0; r < rounds; r += burst {
			got.expect(t, burst*len(frames), func() {
				for i := 0; i < burst; i++ {
					for _, f := range frames {
						a.Send(0, 1, f)
					}
				}
			})
		}
	}
	per := mallocsPer(rounds*len(frames), send)
	t.Logf("%.3f allocations per frame", per)
	if per > 0.05 {
		t.Fatalf("%.3f allocations per received frame, want at most 0.05", per)
	}
}

// TestViewerClientBlockAllocs: a viewer client decodes each connection's
// blocks into one reused record, payload included.
func TestViewerClientBlockAllocs(t *testing.T) {
	got := newCounter()
	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vc.Close)
	vc.SetHandlers(func(*msg.BlockData) { got.add() }, nil)
	nc, err := net.Dial("tcp", vc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	t.Cleanup(func() { c.Close() })
	b := &msg.BlockData{Viewer: 1, Instance: 2, Bytes: 1024, Payload: testPattern}
	const blocks = 2000
	send := func() {
		for i := 0; i < blocks; i++ {
			if err := c.Send(b); err != nil {
				t.Error(err)
				return
			}
		}
	}
	per := mallocsPer(blocks, func() { got.expect(t, blocks, send) })
	t.Logf("%.3f allocations per block", per)
	if per > 0.1 {
		t.Fatalf("%.3f allocations per block received, want at most 0.1", per)
	}
}

// TestMeshBlockPathAllocs: SendBlock to a live viewer client, both ends
// warm, allocates nothing per block — the writer hands each BlockData
// back to SendBlock once written, and the client decodes into one
// record.
func TestMeshBlockPathAllocs(t *testing.T) {
	got := newCounter()
	m := testMesh(t, 0, nil, nil)
	addr := testViewer(t, func(*msg.BlockData) { got.add() })
	d := netsim.BlockDelivery{Addr: addr, Viewer: 1, Instance: 2, Bytes: 16 << 10}
	// A stream's blocks arrive a few at a time, never thousands at once.
	const blocks, burst = 2000, 100
	send := func() {
		for sent := 0; sent < blocks; sent += burst {
			got.expect(t, burst, func() {
				for i := 0; i < burst; i++ {
					m.SendBlock(0, d, 0)
				}
			})
		}
	}
	per := mallocsPer(blocks, send)
	t.Logf("%.3f allocations per block", per)
	if per > 0.1 {
		t.Fatalf("%.3f allocations per block sent and received, want at most 0.1", per)
	}
}

// TestRecordHeldUntilHandlerReturns: a handler holding a delivered
// record while more frames arrive sees it unchanged until it returns —
// the reader decodes them into other records, and the drain hands a
// record back only after its handler has run.
func TestRecordHeldUntilHandlerReturns(t *testing.T) {
	seen := newCounter()
	held := make(chan *msg.ViewerState, 1)
	release := make(chan struct{})
	b := testMesh(t, 1, nil, func(_ msg.NodeID, m msg.Message) {
		if vs, ok := m.(*msg.ViewerState); ok && vs.Viewer == 1 {
			held <- vs
			<-release
		}
		seen.add()
	})
	a := testMesh(t, 0, map[msg.NodeID]string{1: b.Addr()}, nil)
	state := func(v int) *msg.ViewerState {
		return &msg.ViewerState{Viewer: msg.ViewerID(v), Instance: msg.InstanceID(v), Addr: [16]byte{byte(v)},
			File: msg.FileID(v), Block: int32(v), Slot: int32(v), PlaySeq: int32(v), Due: int64(v),
			Bitrate: int32(v), Mirror: v%2 == 0, Part: int8(v), OrigDisk: int32(v), Epoch: int32(v), Trace: uint8(v)}
	}
	// Handled and released: the pool now holds records to recycle.
	seen.expect(t, 1+20, func() {
		for v := 100; v < 120; v++ {
			a.Send(0, 1, state(v))
		}
	})
	a.Send(0, 1, state(1))
	vs := <-held
	want := *vs
	for v := 2; v < 60; v++ {
		a.Send(0, 1, state(v))
	}
	// Nothing marks the reader having decoded them, so wait: a reader
	// slower than this makes the check vacuous, never wrong.
	time.Sleep(200 * time.Millisecond)
	if *vs != want {
		t.Errorf("held record changed under its handler:\n was %+v\n now %+v", want, *vs)
	}
	seen.expect(t, 1+58, func() { close(release) })
}

// TestViewerClientSilentAfterClose: once Close returns, no handler runs,
// even for blocks still arriving on connections accepted before it.
func TestViewerClientSilentAfterClose(t *testing.T) {
	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var closed atomic.Bool
	var after atomic.Int64
	first := make(chan struct{}, 1)
	vc.SetHandlers(func(*msg.BlockData) {
		if closed.Load() {
			after.Add(1)
		}
		select {
		case first <- struct{}{}:
		default:
		}
	}, nil)
	addr, err := vc.EncodedAddr()
	if err != nil {
		t.Fatal(err)
	}
	m := testMesh(t, 0, nil, nil)
	d := netsim.BlockDelivery{Addr: addr, Bytes: 1024}
	m.SendBlock(0, d, 0)
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("no block before Close")
	}
	vc.Close()
	closed.Store(true)
	for i := 0; i < 20; i++ {
		m.SendBlock(0, d, 0)
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if n := after.Load(); n != 0 {
		t.Fatalf("OnBlock ran %d times after Close returned", n)
	}
}

// TestControllerCloseStopsEpochService: the epoch service closes with
// its controller host, the connections it accepted included.
func TestControllerCloseStopsEpochService(t *testing.T) {
	ctl, err := StartControllerHost(stopRaceConfig(t), "127.0.0.1:0", map[msg.NodeID]string{}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ctl.ServeEpoch("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FetchEpoch(addr); err != nil {
		t.Fatal(err)
	}
	open, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	ctl.Close()
	if _, err := FetchEpoch(addr); err == nil {
		t.Error("epoch served after the controller host closed")
	}
	open.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := open.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("connection accepted before Close: read gave %v, want EOF", err)
	}
}
