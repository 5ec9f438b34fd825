package rt

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/obs"
	"tiger/internal/sim"
	"tiger/internal/wire"
)

// ClientNode is the Hello identity used by viewer/control clients
// connecting to the controller (they are not ring members).
const ClientNode msg.NodeID = -2

// EncodeAddr packs a "host:port" endpoint into a viewer address field.
// It must fit the 16 bytes the viewer-state record reserves.
func EncodeAddr(hostport string) ([16]byte, error) {
	var a [16]byte
	if len(hostport) > len(a) {
		return a, fmt.Errorf("rt: address %q longer than 16 bytes", hostport)
	}
	copy(a[:], hostport)
	return a, nil
}

// DecodeAddr unpacks EncodeAddr's format.
func DecodeAddr(a [16]byte) string {
	return strings.TrimRight(string(a[:]), "\x00")
}

// Redial policy for down peers: a half-open probe with exponential
// backoff. While a peer is unreachable at most one dial is attempted per
// backoff window; messages arriving between probes are dropped
// immediately instead of each eating a fresh dial timeout.
const (
	dialTimeout = 2 * time.Second
	backoffBase = 50 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// maxQueued bounds the frames waiting for one peer. A frame past it is
// dropped and counted in QueueDrops rather than held for a peer that does
// not drain.
const maxQueued = 4096

// peer is one outbound connection and the frames waiting for it, each
// queued at the instant it may leave: control traffic at once, a block one
// pace after its send timer ran. Its writer goroutine writes whatever has
// fallen due and flushes once per wake, so protocol code never blocks on
// TCP backpressure and a paced block costs the executor nothing after
// SendBlock returns. Equal instants leave in the order they were queued,
// which keeps control traffic FIFO per peer (§4.1.3).
type peer struct {
	mu   sync.Mutex
	q    clock.Releases[msg.Message] // guarded by mu
	wake chan struct{}               // one slot: a frame was queued at the head
}

// MeshStats are cumulative transport counters for one mesh.
type MeshStats struct {
	Dials        int64 // connection attempts
	DialFails    int64 // connection attempts that failed
	Reconnects   int64 // successful dials after an established conn was lost
	QueueDrops   int64 // messages dropped because an outbound queue was full
	BackoffDrops int64 // messages dropped while a down peer's redial backed off
}

// Mesh is the TCP control-message transport plus the real data path. It
// implements core.Transport and core.DataPath for one node.
type Mesh struct {
	self    msg.NodeID
	node    *Node
	srv     *server
	handler func(from msg.NodeID, m msg.Message)

	// sends holds the BlockData records SendBlock fills, handed back by
	// the viewer writers once written or dropped. It is never decoded
	// into: a record's Payload aliases testPattern.
	sends msg.Pool

	// epoch is stamped into the Hello of every outbound connection, so
	// peers learn about a restarted incarnation from its first frame.
	epoch atomic.Int32

	dials, dialFails, reconnects atomic.Int64
	queueDrops, backoffDrops     atomic.Int64

	mu      sync.Mutex
	addrs   map[msg.NodeID]string
	peers   map[msg.NodeID]*peer
	viewers map[[16]byte]*peer
	closed  bool
	quit    chan struct{} // closed by Close: every peer writer exits

	// Logf, if set, receives transport diagnostics.
	Logf func(format string, args ...any)
}

// NewMesh starts listening on listenAddr and begins accepting control
// connections. addrs maps every node (cubs and controller) to its
// listen address; the mesh takes a snapshot, so nodes started later must
// be announced with SetAddr. handler is invoked on the node executor for
// each inbound message, in the order each connection carried them. The
// message is valid only during the call: the mesh decodes the next
// frames into the same records (msg.Pool), so a handler that keeps one
// keeps a copy.
func NewMesh(self msg.NodeID, node *Node, listenAddr string, addrs map[msg.NodeID]string,
	handler func(from msg.NodeID, m msg.Message)) (*Mesh, error) {
	m := &Mesh{
		self:    self,
		node:    node,
		handler: handler,
		addrs:   make(map[msg.NodeID]string, len(addrs)),
		peers:   make(map[msg.NodeID]*peer),
		viewers: make(map[[16]byte]*peer),
		quit:    make(chan struct{}),
	}
	for id, a := range addrs {
		m.addrs[id] = a
	}
	srv, err := serve(listenAddr, m.serveConn)
	if err != nil {
		return nil, err
	}
	m.srv = srv
	return m, nil
}

// SetAddr registers or updates a node's control address. An existing
// peer connection keeps the address it was created with; in this
// codebase restarted nodes come back on the same endpoint.
func (m *Mesh) SetAddr(id msg.NodeID, addr string) {
	m.mu.Lock()
	m.addrs[id] = addr
	m.mu.Unlock()
}

// Addr returns the actual listen address (useful with ":0").
func (m *Mesh) Addr() string { return m.srv.ln.Addr().String() }

// SetEpoch sets the liveness epoch announced in outbound Hellos. Call it
// whenever the local cub's epoch changes (cold restart).
func (m *Mesh) SetEpoch(e int32) { m.epoch.Store(e) }

// AttachObs registers the mesh's transport counters with the registry
// as function-backed series reading the mesh's atomics — safe to scrape
// from any goroutine while the writer goroutines update them.
func (m *Mesh) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ls := obs.Labels{"node": m.self.String()}
	reg.CounterFunc("tiger_mesh_dials_total", "TCP connection attempts.", ls,
		func() float64 { return float64(m.dials.Load()) })
	reg.CounterFunc("tiger_mesh_dial_fails_total", "TCP connection attempts that failed.", ls,
		func() float64 { return float64(m.dialFails.Load()) })
	reg.CounterFunc("tiger_mesh_reconnects_total", "Successful dials after an established connection was lost.", ls,
		func() float64 { return float64(m.reconnects.Load()) })
	reg.CounterFunc("tiger_mesh_queue_drops_total", "Messages dropped because an outbound queue was full.", ls,
		func() float64 { return float64(m.queueDrops.Load()) })
	reg.CounterFunc("tiger_mesh_backoff_drops_total", "Messages dropped while a down peer's redial backed off.", ls,
		func() float64 { return float64(m.backoffDrops.Load()) })
	reg.GaugeFunc("tiger_mesh_epoch", "Liveness epoch announced in outbound Hellos.", ls,
		func() float64 { return float64(m.epoch.Load()) })
}

// Stats returns a snapshot of the mesh's transport counters.
func (m *Mesh) Stats() MeshStats {
	return MeshStats{
		Dials:        m.dials.Load(),
		DialFails:    m.dialFails.Load(),
		Reconnects:   m.reconnects.Load(),
		QueueDrops:   m.queueDrops.Load(),
		BackoffDrops: m.backoffDrops.Load(),
	}
}

func (m *Mesh) logf(format string, args ...any) {
	if m.Logf != nil {
		m.Logf(format, args...)
	}
}

// server accepts TCP connections and serves each on a goroutine of its
// own. close closes the listener and every open connection, then waits
// for every serve to return: nothing the server started runs after it.
type server struct {
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[*wire.Conn]struct{} // open, guarded by mu
	closed bool                    // guarded by mu
}

func serve(listenAddr string, fn func(*wire.Conn)) (*server, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, conns: make(map[*wire.Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c := wire.NewConn(nc)
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conns[c] = struct{}{}
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.wg.Done()
				fn(c)
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
			}()
		}
	}()
	return s, nil
}

func (s *server) close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// inbox holds the frames one inbound connection has read and its node's
// executor has not yet handled, decoded into records of the connection's
// pool. The reader hands the executor one drain per run of frames — a
// Do only when the inbox goes from empty to non-empty, with a function
// bound once per connection — so a frame costs no closure and never
// more than one executor event. A drain handles the frames in order
// (§4.1.3's per-connection FIFO), then releases their records.
type inbox struct {
	m     *Mesh
	from  msg.NodeID
	pool  msg.Pool
	drain func() // in.run, bound once

	mu    sync.Mutex
	q     []msg.Message // read, waiting for a drain
	spare []msg.Message // the other buffer: a drain's frames, or free
	held  int           // records read and not yet released
	room  chan struct{} // one slot: a drain released records
}

// push queues mm for the executor and, while maxQueued records are
// held, stops the reader until a drain releases some. It reports false
// once the node or the mesh has stopped.
func (in *inbox) push(mm msg.Message) bool {
	in.mu.Lock()
	in.q = append(in.q, mm)
	in.held++
	first, full := len(in.q) == 1, in.held >= maxQueued
	in.mu.Unlock()
	if first {
		in.m.node.Do(in.drain)
	}
	for full {
		select {
		case <-in.room:
		case <-in.m.node.quit:
			return false
		case <-in.m.quit:
			return false
		}
		in.mu.Lock()
		full = in.held >= maxQueued
		in.mu.Unlock()
	}
	return true
}

// run is the drain, on the executor: every queued frame to the handler,
// then every record back to the pool.
func (in *inbox) run() {
	in.mu.Lock()
	frames := in.q
	in.q = in.spare[:0]
	in.mu.Unlock()
	for _, mm := range frames {
		in.m.handler(in.from, mm)
	}
	for i, mm := range frames {
		in.pool.Release(mm)
		frames[i] = nil
	}
	in.mu.Lock()
	in.spare = frames[:0]
	in.held -= len(frames)
	in.mu.Unlock()
	select {
	case in.room <- struct{}{}:
	default:
	}
}

func (m *Mesh) serveConn(c *wire.Conn) {
	in := &inbox{m: m, room: make(chan struct{}, 1)}
	in.drain = in.run
	mm, err := c.RecvPooled(&in.pool)
	if err != nil {
		return
	}
	hello, ok := mm.(*msg.Hello)
	if !ok {
		m.logf("rt: first frame from %v was %v, not Hello", c.RemoteAddr(), mm.Type())
		return
	}
	in.from = hello.From
	// Deliver the Hello itself: its epoch announcement is how the local
	// cub learns a peer restarted before any fenced traffic arrives.
	for in.push(mm) {
		if mm, err = c.RecvPooled(&in.pool); err != nil {
			return
		}
	}
}

// Send implements core.Transport: mm leaves for its node now, after
// whatever is already queued there. The from argument must be this mesh's
// own node (each machine has its own mesh). A closed mesh sends nothing.
func (m *Mesh) Send(from, to msg.NodeID, mm msg.Message) {
	if from != m.self {
		panic(fmt.Sprintf("rt: node %v sending as %v", m.self, from))
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	p, ok := m.peers[to]
	if !ok {
		addr, known := m.addrs[to]
		if !known {
			m.mu.Unlock()
			m.logf("rt: no address for %v", to)
			return
		}
		p = m.newPeer(addr)
		m.peers[to] = p
	}
	m.mu.Unlock()
	p.queue(m, m.node.Now(), mm)
}

// sendViewer queues mm to leave for the viewer listening at addr at
// instant at, starting that address's writer on first use. A closed mesh
// sends nothing.
func (m *Mesh) sendViewer(addr [16]byte, at sim.Time, mm msg.Message) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.recycle(mm)
		return
	}
	p, ok := m.viewers[addr]
	if !ok {
		p = m.newPeer(DecodeAddr(addr))
		m.viewers[addr] = p
	}
	m.mu.Unlock()
	p.queue(m, at, mm)
}

// recycle hands a BlockData frame that has been written, or dropped,
// back to SendBlock.
func (m *Mesh) recycle(mm msg.Message) {
	if b, ok := mm.(*msg.BlockData); ok {
		m.sends.Release(b)
	}
}

// queue adds mm to leave at instant at, or drops it if maxQueued frames
// are already waiting. The writer is woken only when mm is now the first
// frame due; otherwise it is already asleep until an earlier one.
func (p *peer) queue(m *Mesh, at sim.Time, mm msg.Message) {
	p.mu.Lock()
	if p.q.Len() >= maxQueued {
		p.mu.Unlock()
		m.queueDrops.Add(1)
		m.logf("rt: outbound queue full; dropping %v", mm.Type())
		m.recycle(mm)
		return
	}
	p.q.Add(at, mm)
	next, _ := p.q.Next()
	p.mu.Unlock()
	if next == at {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// newPeer spawns the writer goroutine for one outbound connection. Each
// wake it takes every frame that has fallen due, writes them and flushes
// once, then sleeps on one timer until the next frame is due, an earlier
// one is queued, or the mesh closes. It (re)dials lazily and drops frames
// while the peer is unreachable, exactly like the simulated network drops
// traffic to failed nodes.
//
// Redial is rate limited: after a failed dial the writer enters a
// backoff window (exponential with jitter, capped at backoffCap) during
// which frames are dropped without dialing. Without this, every frame to
// a dead peer eats a fresh dialTimeout, stalling the queue so badly that
// heartbeats back up for the whole outage.
func (m *Mesh) newPeer(addr string) *peer {
	p := &peer{wake: make(chan struct{}, 1)}
	go func() {
		var conn *wire.Conn
		everConnected := false
		backoff := backoffBase
		var nextDial time.Time
		var due []msg.Message
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer func() {
			timer.Stop()
			if conn != nil {
				conn.Close()
			}
		}()
		for {
			p.mu.Lock()
			for now := m.node.Now(); p.q.Due(now); {
				_, mm := p.q.Pop()
				due = append(due, mm)
			}
			next, armed := p.q.Next()
			p.mu.Unlock()
			for attempt := 0; attempt < 2 && len(due) > 0; attempt++ {
				if conn == nil {
					if time.Now().Before(nextDial) {
						m.backoffDrops.Add(int64(len(due)))
						break // half-open: no dial until the window passes
					}
					m.dials.Add(1)
					c, err := net.DialTimeout("tcp", addr, dialTimeout)
					if err != nil {
						m.dialFails.Add(1)
						m.logf("rt: dial %s: %v (next attempt in ~%v)", addr, err, backoff)
						nextDial = time.Now().Add(jitter(backoff))
						backoff *= 2
						if backoff > backoffCap {
							backoff = backoffCap
						}
						break // drop the frames; peer presumed down
					}
					conn = wire.NewConn(c)
					if err := conn.Send(&msg.Hello{From: m.self, Epoch: m.epoch.Load()}); err != nil {
						conn.Close()
						conn = nil
						continue
					}
					if everConnected {
						m.reconnects.Add(1)
					}
					everConnected = true
					backoff = backoffBase
					nextDial = time.Time{}
				}
				if err := writeFlush(conn, due); err != nil {
					conn.Close()
					conn = nil
					continue // one redial attempt
				}
				break
			}
			for _, mm := range due { // written or dropped
				m.recycle(mm)
			}
			clear(due)
			due = due[:0]
			if armed {
				timer.Reset(time.Duration(next - m.node.Now()))
			}
			select {
			case <-p.wake:
			case <-timer.C:
				armed = false
			case <-m.quit:
				return
			}
			if armed && !timer.Stop() {
				<-timer.C
			}
		}
	}()
	return p
}

// writeFlush writes frames and flushes them to the socket once.
func writeFlush(c *wire.Conn, frames []msg.Message) error {
	for _, mm := range frames {
		if err := c.Write(mm); err != nil {
			return err
		}
	}
	return c.Flush()
}

// jitter draws uniformly from [d/2, d), desynchronizing redial storms
// when many peers lose the same node at once.
func jitter(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half))
}

// SendBlock implements core.DataPath: a BlockData frame (descriptor plus
// truncated test pattern) is queued to leave for the viewer's address one
// pace from now. Nothing more runs on the executor for it; the viewer
// peer's writer sends it when it falls due, and hands its record back.
func (m *Mesh) SendBlock(from msg.NodeID, d netsim.BlockDelivery, pace time.Duration) {
	if d.Addr == ([16]byte{}) {
		return
	}
	b := m.sends.Get(msg.TBlockData).(*msg.BlockData)
	*b = msg.BlockData{
		Viewer:   d.Viewer,
		Instance: d.Instance,
		File:     d.File,
		Block:    d.Block,
		PlaySeq:  d.PlaySeq,
		Part:     d.Part,
		Parts:    d.Parts,
		Mirror:   d.Mirror,
		Bytes:    d.Bytes,
		Payload:  testPattern[:min(d.Bytes, int64(len(testPattern)))],
	}
	m.sendViewer(d.Addr, m.node.Now().Add(pace), b)
}

// testPattern is a deterministic stand-in for video payload, truncated so
// demo traffic stays light. Every frame shares it read-only: the encoder
// copies it into the frame and decoders copy what they keep.
var testPattern = func() []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// Close shuts the mesh down: the listener, all peer writers, and every
// accepted inbound connection (so peers observe the death promptly
// instead of writing into a half-dead socket), whose readers have
// returned when it does.
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.quit)
	m.mu.Unlock()
	m.srv.close()
}
