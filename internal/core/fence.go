package core

import (
	"slices"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/sim"
)

// The protocol's one fence. The paper makes the schedule safe by time:
// slot ownership, and deschedule records held until no late state can
// arrive (§4.1.2). What crashed, restarted and replaced nodes add on top
// is the same idea — a monotone token, and a receiver that drops what is
// stale — and three types carry it: mark (marks, per key), round and
// tombstones. One table, fenceOf, names the fence of every message kind;
// cub and controller delivery consult it before dispatch.

// mark is a high-water token: the highest admitted, 0 before any.
// Tokens never go below 0.
type mark int32

// admit reports the mark before tok and whether tok is stale, below it.
// Any other token raises the mark to itself: an equal one passes.
func (m *mark) admit(tok int32) (prior int32, stale bool) {
	if prior = int32(*m); tok < prior {
		return prior, true
	}
	*m = mark(tok)
	return prior, false
}

// marks is mark per key. A key's first token, and any token that raises
// its mark, keeps v with it.
type marks[K comparable, V any] map[K]marked[V]

type marked[V any] struct {
	mark int32
	v    V
}

func (m marks[K, V]) admit(k K, tok int32, v V) (prior int32, stale bool) {
	old, seen := m[k]
	if tok < old.mark {
		return old.mark, true
	}
	if tok > old.mark || !seen {
		m[k] = marked[V]{tok, v}
	}
	return old.mark, false
}

// round is an epoch-stamped broadcast collecting its replies: a cub's
// rejoin and the controller's takeover scavenge, and — waiting on no one
// — a restripe run. Its token is the node's incarnation (or the run); a
// reply carries the token it answers.
type round struct {
	token   int64
	open    bool                // not closed out yet
	pending map[msg.NodeID]bool // who has yet to answer
	began   sim.Time
}

// begin opens round tok and asks every peer (ask sends the request).
// After timeout a round still open under tok closes out with whoever has
// answered: a peer that is itself dead never will.
func (r *round) begin(clk clock.Clock, tok int64, peers []msg.NodeID, ask func(msg.NodeID), timeout time.Duration, closeout func()) {
	r.token, r.open, r.began = tok, true, clk.Now()
	r.pending = make(map[msg.NodeID]bool, len(peers))
	for _, p := range peers {
		r.pending[p] = true
		ask(p)
	}
	clk.After(timeout, func() {
		if r.open && r.token == tok {
			closeout()
		}
	})
}

func (r *round) current(tok int64) bool { return r.open && tok == r.token }

// heard records who's answer; true once the open round has heard all.
func (r *round) heard(who msg.NodeID) bool {
	if !r.open {
		return false
	}
	delete(r.pending, who)
	return len(r.pending) == 0
}

func (r *round) close() { r.open, r.pending = false, nil }

// tombstones remembers keys for ttl: each add arms one timer that
// forgets its key, and a re-add one more. Every timer runs ttl after its
// add, and a clock runs timers due at one instant in the order they were
// armed, so they fire in add order: the keys wait in armed, and each
// timer, the one callback bound at the first add, forgets the oldest.
// reset forgets everything; the timers armed before it are stale, and
// forget nothing from the map that replaced it.
type tombstones[K comparable, V any] struct {
	m       map[K]V
	clk     clock.Clock
	ttl     time.Duration
	armed   fifo[K]
	stale   int // timers armed before the last reset still to fire
	onTimer func()
}

func newTombstones[K comparable, V any](clk clock.Clock, ttl time.Duration) tombstones[K, V] {
	return tombstones[K, V]{m: make(map[K]V), clk: clk, ttl: ttl}
}

func (t *tombstones[K, V]) add(k K, v V) {
	t.m[k] = v
	if t.onTimer == nil {
		t.onTimer = t.expire
	}
	t.armed.push(k)
	t.clk.After(t.ttl, t.onTimer)
}

func (t *tombstones[K, V]) expire() {
	k := t.armed.pop()
	if t.stale > 0 {
		t.stale--
		return
	}
	delete(t.m, k)
}

func (t *tombstones[K, V]) has(k K) bool { _, ok := t.m[k]; return ok }

func (t *tombstones[K, V]) reset() { t.m, t.stale = make(map[K]V), t.armed.n }

// fifo is a first-in, first-out queue in a ring that doubles when full
// and is given up when it empties: while it is in use it allocates
// nothing once it has held its peak, and a burst's ring does not outlive
// the burst.
type fifo[T any] struct {
	ring    []T
	head, n int
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.ring) {
		ring := make([]T, max(8, 2*len(q.ring)))
		copy(ring[copy(ring, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	v := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) % len(q.ring)
	if q.n--; q.n == 0 {
		q.ring, q.head = nil, 0
	}
	return v
}

// fence is what a receiver checks a message kind against.
type fence uint8

const (
	noRow     fence = iota // a kind added without a decision
	unfenced               // carries no token
	peerLive               // sender's liveness epoch: stale drops; else raises, and proves a peer believed dead alive
	peerRaise              // a peer announces its liveness epoch: raises, never drops
	ctlRaise               // the controller announces its epoch: raises, never drops
	ctlOrder               // an order's controller epoch: stale drops; 0, unstamped, passes
	govOrder               // a CubDown's governor fence: stale drops
	reply                  // answers a round: must carry its current token
)

// fenceOf is the one table from message kind to fence, a row per kind:
// the fence, the sender the message names (from, the transport's sender,
// when it names none) and its token.
func fenceOf(from msg.NodeID, m msg.Message) (f fence, who msg.NodeID, tok int64) {
	switch t := m.(type) {
	case *msg.ViewerState:
		return peerLive, from, int64(t.Epoch)
	case *msg.Heartbeat:
		if t.From == msg.Controller {
			return ctlRaise, t.From, int64(t.Epoch)
		}
		return peerLive, t.From, int64(t.Epoch)
	case *msg.MoveData:
		return peerLive, from, int64(t.Epoch)
	case *msg.Hello:
		return peerRaise, t.From, int64(t.Epoch)
	case *msg.RejoinRequest:
		return peerRaise, t.From, int64(t.Epoch)
	case *msg.RejoinConfirm:
		return peerRaise, t.From, int64(t.Epoch)
	case *msg.ScavengeReq:
		return ctlRaise, from, int64(t.Epoch)
	case *msg.StartPlay:
		return ctlOrder, from, int64(t.Ctl)
	case *msg.MoveOrder:
		return ctlOrder, from, int64(t.Ctl)
	case *msg.Park:
		return ctlOrder, from, int64(t.Ctl)
	case *msg.Resume:
		return ctlOrder, from, int64(t.Ctl)
	case *msg.CubDown:
		return govOrder, from, int64(t.Fence)
	case *msg.RejoinReply:
		return reply, t.From, int64(t.ForEpoch)
	case *msg.ScavengeReply:
		return reply, t.From, int64(t.ForEpoch)
	case *msg.MoveCommit:
		return reply, t.From, t.Fence
	case *msg.MoveNack:
		return reply, t.From, t.Fence
	case *msg.Deschedule, *msg.StartAck, *msg.ReserveReq, *msg.ReserveResp, *msg.BlockData, *msg.ClockSync, *msg.ParkAck,
		*msg.Batch: // a cub admits each message in a Batch
		return unfenced, from, 0
	}
	return noRow, from, 0
}

// admit checks m against its row of fenceOf and reports whether the cub
// is to dispatch it. What it refuses touches nothing but a drop counter.
func (c *Cub) admit(from msg.NodeID, m msg.Message) bool {
	if !c.wellFormed(m) {
		c.stats.StatesLate++
		return false
	}
	f, who, tok := fenceOf(from, m)
	e := int32(tok)
	switch f {
	case peerLive:
		prior, stale := c.peerMark(from, e)
		if stale {
			c.stats.StaleEpochDrops++ // from a pre-restart incarnation
			return false
		}
		// Any traffic straight from a peer believed dead refutes the death,
		// not only its heartbeat: across a partial partition the gossip
		// path can heal first.
		if c.believedDead[who] {
			c.proofOfLife(who, e, prior)
		}
	case peerRaise:
		c.peerMark(who, e)
	case ctlRaise, ctlOrder:
		prior, stale := c.ctl.admit(e)
		if stale && f == ctlOrder && e != 0 {
			c.stats.CtlStaleDrops++ // from a dead controller incarnation
			return false
		}
		if e > prior && prior != 0 {
			c.stats.CtlTakeovers++
		}
	case govOrder:
		_, stale := c.govMark.admit(e)
		return !stale // a stale one is from an earlier degradation episode
	case reply:
		if _, ok := m.(*msg.RejoinReply); ok && tok != c.rejoin.token {
			c.stats.StaleEpochDrops++ // answers a previous incarnation
			return false
		}
	}
	return true
}

// peerMark admits peer p's liveness epoch e. The fence exempts the
// controller and self.
func (c *Cub) peerMark(p msg.NodeID, e int32) (prior int32, stale bool) {
	if p == msg.Controller || p == c.id {
		return 0, false
	}
	return c.peers.admit(p, e, struct{}{})
}

// wellFormed reports whether the viewer states m carries name a block,
// a disk and, for a mirror piece, a part of their slot's generation: an
// index off the layout breaks the ring arithmetic. States of generations
// the cub does not hold are the handlers' to fence.
func (c *Cub) wellFormed(m msg.Message) bool {
	switch t := m.(type) {
	case *msg.ViewerState:
		return !c.malformed(*t)
	case *msg.RejoinReply:
		return !slices.ContainsFunc(t.States, c.malformed)
	case *msg.RejoinConfirm:
		return !slices.ContainsFunc(t.States, c.malformed)
	}
	return true
}

func (c *Cub) malformed(vs msg.ViewerState) bool {
	cfg := c.cfgOf(vs.Slot)
	return cfg != nil && (vs.Block < 0 || vs.OrigDisk < 0 || int(vs.OrigDisk) >= cfg.Sched.NumDisks ||
		vs.Mirror && (vs.Part < 0 || int(vs.Part) >= cfg.Layout.Decluster))
}

// admit is the controller's half of fenceOf: a reply must answer its open
// round — the scavenge, from a cub it still waits for, or the restripe
// run. (A rejoin installs a current-epoch reply even after its closeout.)
func (c *Controller) admit(from msg.NodeID, m msg.Message) bool {
	f, who, tok := fenceOf(from, m)
	if _, ok := m.(*msg.ScavengeReply); ok {
		return c.scav.current(tok) && c.scav.pending[who]
	}
	return f != reply || c.rs.run.current(tok) // MoveCommit, MoveNack
}
