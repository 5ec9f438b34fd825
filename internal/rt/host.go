package rt

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/trace"
	"tiger/internal/wire"
)

// CubHost runs one cub as a real network node.
type CubHost struct {
	Node *Node
	Mesh *Mesh
	Cub  *core.Cub

	sink trace.Sink // the cub's protocol steps; executor-owned
}

// StartCubHost builds and starts a cub listening on listenAddr. addrs
// maps every node in the system to its control address. epoch is the
// shared system epoch (see FetchEpoch).
func StartCubHost(id msg.NodeID, cfg *core.Config, listenAddr string,
	addrs map[msg.NodeID]string, epoch time.Time, seed int64) (*CubHost, error) {
	node := NewNode(epoch)
	var cub *core.Cub
	mesh, err := NewMesh(id, node, listenAddr, addrs,
		func(from msg.NodeID, m msg.Message) { cub.Deliver(from, m) })
	if err != nil {
		node.Close()
		return nil, err
	}
	cub = core.NewCub(id, cfg, node, mesh, mesh, rand.New(rand.NewSource(seed)))
	node.SetReclaim(cub.Reclaim)
	mesh.SetEpoch(cub.Epoch())
	h := &CubHost{Node: node, Mesh: mesh, Cub: cub}
	cub.SetSink(&h.sink)
	node.Do(cub.Start)
	return h, nil
}

// scrapeTimeout bounds how long a metrics scrape waits for one node's
// executor before serving that node's previous snapshot.
const scrapeTimeout = 2 * time.Second

// collectOn exports a node's counters and gauges: at every scrape the
// snapshot is taken on the node's executor, which owns the plain stats
// structs, and emitted from the scraping goroutine. If the executor does
// not answer in time — wedged, or closed — the previous snapshot is
// served instead, so a scrape never hangs on one node.
func collectOn[T interface{ Collect(obs.Emit) }](reg *obs.Registry, n *Node, take func() T) {
	var (
		mu   sync.Mutex
		last T
		have bool
	)
	reg.AddCollector(func(emit obs.Emit) {
		s, ok := ask(n, scrapeTimeout, take)
		mu.Lock()
		if ok {
			last, have = s, true
		} else {
			s, ok = last, have
		}
		mu.Unlock()
		if ok {
			s.Collect(emit)
		}
	})
}

// AttachObs wires the host's cub and mesh to a metrics registry: the
// cub's own histograms, its counters and gauges collected on its
// executor, and the block-lifecycle slack histograms as a subscriber of
// its steps. Subscribing happens on the executor, so it cannot race steps
// already being reported; the call blocks until done.
func (h *CubHost) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.Cub.AttachObs(reg)
	spans := obs.NewSpanRecorder(reg, obs.Labels{"cub": strconv.Itoa(int(h.Cub.ID()))})
	h.Node.Sync(func() { h.sink.Subscribe(obs.SpanKinds, spans.Observe) })
	collectOn(reg, h.Node, h.Cub.Snapshot)
	h.Mesh.AttachObs(reg)
}

// AttachTrace subscribes the ring to the cub's protocol events, beside
// whatever else is subscribed. Events are stamped with the node's wall
// clock (nanoseconds since the shared epoch), so traces from different
// nodes of one system line up.
func (h *CubHost) AttachTrace(ring *trace.Ring) {
	if ring != nil {
		h.Node.Sync(func() { h.sink.Subscribe(trace.RingKinds, ring.Add) })
	}
}

// AttachChainLog subscribes a causal chain recorder to the cub's steps;
// those of traced blocks (states whose Trace flag is set) land in l.
func (h *CubHost) AttachChainLog(l *trace.ChainLog) {
	if l != nil {
		h.Node.Sync(func() { h.sink.Subscribe(trace.ChainKinds, l.Record) })
	}
}

// DumpView renders the cub's schedule view, marshalling through the
// node executor (the view is executor-owned state). The timeout guards
// HTTP debug handlers against a wedged node.
func (h *CubHost) DumpView(timeout time.Duration) (string, error) {
	s, ok := ask(h.Node, timeout, h.Cub.DumpView)
	if !ok {
		return "", fmt.Errorf("rt: view dump timed out after %v", timeout)
	}
	return s, nil
}

// Rejoin runs the cold-restart reintegration protocol on the cub: wipe
// volatile state, bump the liveness epoch, and ask the ring neighbours
// for the viewer states landing in this cub's window. Call it on a host
// brought back after a crash; a freshly launched process starts at epoch
// 1, so a host standing in for a restarted one should first move past
// the dead incarnation's epoch with h.Cub.SetEpoch. Blocks until the
// handshake is initiated (not until it completes).
func (h *CubHost) Rejoin() {
	h.Node.Sync(func() {
		h.Cub.Restart()
		h.Mesh.SetEpoch(h.Cub.Epoch())
	})
}

// Close stops the cub host.
func (h *CubHost) Close() {
	h.Mesh.Close()
	h.Node.Close()
}

// ControllerHost runs the controller as a real network node. It also
// serves clients: viewers connect with a ClientNode hello, issue
// StartPlay/Deschedule requests, and receive StartAck frames at their
// own listen address (carried in StartPlay.Addr).
type ControllerHost struct {
	Node *Node
	Mesh *Mesh
	Ctl  *core.Controller

	sink trace.Sink // the controller's admit step; executor-owned

	mu        sync.Mutex
	ackAddrs  map[msg.InstanceID]ackRoute
	epochSrvs []*server // ServeEpoch's, closed by Close
	epochUnix int64
}

// ackRoute remembers where (and for whom) a pending start's ack goes.
type ackRoute struct {
	addr   [16]byte
	viewer msg.ViewerID
}

// StartControllerHost builds and starts the controller.
func StartControllerHost(cfg *core.Config, listenAddr string,
	addrs map[msg.NodeID]string, epoch time.Time) (*ControllerHost, error) {
	node := NewNode(epoch)
	h := &ControllerHost{
		Node:      node,
		ackAddrs:  make(map[msg.InstanceID]ackRoute),
		epochUnix: epoch.UnixNano(),
	}
	mesh, err := NewMesh(msg.Controller, node, listenAddr, addrs, h.handle)
	if err != nil {
		node.Close()
		return nil, err
	}
	h.Mesh = mesh
	h.Ctl = core.NewController(cfg, node, mesh)
	node.SetReclaim(h.Ctl.Reclaim)
	h.Ctl.OnAck = h.onAck
	h.Ctl.SetSink(&h.sink)
	return h, nil
}

// AttachObs wires the controller and its mesh to a metrics registry.
func (h *ControllerHost) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.Ctl.AttachObs(reg)
	collectOn(reg, h.Node, h.Ctl.Snapshot)
	h.Mesh.AttachObs(reg)
}

// AttachChainLog subscribes a causal chain recorder to the controller's
// admit step. While one is attached, every admitted play is stamped
// traced, so the cubs it touches report its blocks' steps as traced
// (given their own attached logs).
func (h *ControllerHost) AttachChainLog(l *trace.ChainLog) {
	if l != nil {
		h.Node.Sync(func() { h.sink.Subscribe(trace.ChainKinds, l.Record) })
	}
}

func (h *ControllerHost) handle(from msg.NodeID, m msg.Message) {
	if from == ClientNode {
		h.handleClient(m)
		return
	}
	h.Ctl.Deliver(from, m)
}

func (h *ControllerHost) handleClient(m msg.Message) {
	switch t := m.(type) {
	case *msg.StartPlay:
		inst, err := h.Ctl.StartPlayFrom(t.Viewer, t.Addr, t.File, t.StartBlock, t.Bitrate)
		if err != nil {
			return // the client times out; admission refusals are silent here
		}
		h.mu.Lock()
		h.ackAddrs[inst] = ackRoute{addr: t.Addr, viewer: t.Viewer}
		h.mu.Unlock()
	case *msg.Deschedule:
		h.Ctl.StopPlay(t.Instance)
	case *msg.ClockSync:
		// Answered inline at connection level via FetchEpoch; nothing to
		// do when it arrives through the normal path.
	case *msg.Hello:
		// Connection preamble; clients carry no epoch worth tracking.
	}
}

func (h *ControllerHost) onAck(inst msg.InstanceID, slot int32, waited time.Duration) {
	h.mu.Lock()
	rt := h.ackAddrs[inst]
	delete(h.ackAddrs, inst)
	h.mu.Unlock()
	if rt.addr == ([16]byte{}) {
		return
	}
	h.Mesh.sendViewer(rt.addr, h.Node.Now(), &msg.StartAck{Viewer: rt.viewer, Instance: inst, Slot: slot})
}

// Close stops the controller host and its epoch service.
func (h *ControllerHost) Close() {
	h.mu.Lock()
	srvs := h.epochSrvs
	h.epochSrvs = nil
	h.mu.Unlock()
	for _, s := range srvs {
		s.close()
	}
	h.Mesh.Close()
	h.Node.Close()
}

// FetchEpoch asks the controller — the system clock master (§2.1) — for
// the shared epoch. It speaks a one-shot inline protocol: Hello,
// ClockSync request, ClockSync reply.
func FetchEpoch(controllerAddr string) (time.Time, error) {
	c, err := net.DialTimeout("tcp", controllerAddr, 2*time.Second)
	if err != nil {
		return time.Time{}, err
	}
	conn := wire.NewConn(c)
	defer conn.Close()
	if err := conn.Send(&msg.Hello{From: ClientNode}); err != nil {
		return time.Time{}, err
	}
	if err := conn.Send(&msg.ClockSync{}); err != nil {
		return time.Time{}, err
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	m, err := conn.Recv()
	if err != nil {
		return time.Time{}, err
	}
	cs, ok := m.(*msg.ClockSync)
	if !ok {
		return time.Time{}, fmt.Errorf("rt: epoch reply was %v", m.Type())
	}
	return time.Unix(0, cs.EpochUnixNano), nil
}

// ServeEpoch answers FetchEpoch requests. The controller host runs this
// on its own mesh by intercepting inline ClockSync frames; because the
// generic mesh has no reply channel, the controller instead runs a tiny
// dedicated responder on a second listener, which Close closes.
func (h *ControllerHost) ServeEpoch(listenAddr string) (string, error) {
	s, err := serve(listenAddr, func(c *wire.Conn) {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if _, ok := m.(*msg.ClockSync); ok {
				c.Send(&msg.ClockSync{EpochUnixNano: h.epochUnix})
			}
		}
	})
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.epochSrvs = append(h.epochSrvs, s)
	h.mu.Unlock()
	return s.ln.Addr().String(), nil
}

// ViewerClient receives StartAck and BlockData frames for one or more
// viewers, standing in for the paper's measurement client application.
// OnBlock's BlockData is valid only during the call: each connection
// decodes its blocks into one reused record. OnAck's StartAck is the
// callee's to keep.
type ViewerClient struct {
	srv *server

	mu      sync.Mutex
	OnBlock func(*msg.BlockData)
	OnAck   func(*msg.StartAck)
}

// NewViewerClient listens on listenAddr for data and ack frames.
func NewViewerClient(listenAddr string) (*ViewerClient, error) {
	v := &ViewerClient{}
	s, err := serve(listenAddr, v.serveConn)
	if err != nil {
		return nil, err
	}
	v.srv = s
	return v, nil
}

// Addr returns the client's listen address, to be passed in
// StartPlay.Addr.
func (v *ViewerClient) Addr() string { return v.srv.ln.Addr().String() }

// EncodedAddr returns the 16-byte form of Addr.
func (v *ViewerClient) EncodedAddr() ([16]byte, error) { return EncodeAddr(v.Addr()) }

func (v *ViewerClient) serveConn(c *wire.Conn) {
	var pool msg.Pool
	for {
		m, err := c.RecvPooled(&pool)
		if err != nil {
			return
		}
		v.mu.Lock()
		onBlock, onAck := v.OnBlock, v.OnAck
		v.mu.Unlock()
		switch t := m.(type) {
		case *msg.BlockData:
			if onBlock != nil {
				onBlock(t)
			}
		case *msg.StartAck:
			if onAck != nil {
				onAck(t)
			}
		case *msg.Hello:
			// connection preamble; ignore
		}
		pool.Release(m)
	}
}

// SetHandlers installs the block and ack callbacks.
func (v *ViewerClient) SetHandlers(onBlock func(*msg.BlockData), onAck func(*msg.StartAck)) {
	v.mu.Lock()
	v.OnBlock = onBlock
	v.OnAck = onAck
	v.mu.Unlock()
}

// Close stops the listener and every accepted connection. Neither
// handler runs after it returns.
func (v *ViewerClient) Close() { v.srv.close() }

// ControlClient is a control-plane connection to the controller.
type ControlClient struct {
	conn *wire.Conn
}

// DialController connects and identifies as a client.
func DialController(addr string) (*ControlClient, error) {
	c, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(c)
	if err := conn.Send(&msg.Hello{From: ClientNode}); err != nil {
		conn.Close()
		return nil, err
	}
	return &ControlClient{conn: conn}, nil
}

// Start requests a play; the ack (with the instance ID) arrives at the
// viewer's listener.
func (c *ControlClient) Start(viewer msg.ViewerID, viewerAddr string, file msg.FileID, startBlock int32, bitrate int32) error {
	addr, err := EncodeAddr(viewerAddr)
	if err != nil {
		return err
	}
	return c.conn.Send(&msg.StartPlay{
		Viewer: viewer, Addr: addr, File: file, StartBlock: startBlock, Bitrate: bitrate,
	})
}

// Stop requests a deschedule for an instance.
func (c *ControlClient) Stop(inst msg.InstanceID) error {
	return c.conn.Send(&msg.Deschedule{Instance: inst})
}

// Close closes the control connection.
func (c *ControlClient) Close() { c.conn.Close() }
