package rt

import (
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tiger/internal/msg"
)

// TestEverySendComesBack: every control message a mesh is given comes
// back to its node's reclaimer exactly once, on the executor, whatever
// became of it: written to a live peer, dropped on a full queue, dropped
// by a dead peer's failed dial and then by its backoff, sent on a closed
// mesh, or sent to a node with no address. Only one still queued when the
// mesh closes does not. The reclaimer overwrites each record as it comes back, as a
// sender reusing it would, so a record back while a writer still encodes
// it races (under -race) or reaches the peer overwritten. A record coming
// back is no executor event of its own.
func TestEverySendComesBack(t *testing.T) {
	var arrived, spoilt atomic.Int64
	live := testMesh(t, 1, nil, func(_ msg.NodeID, m msg.Message) {
		if m.Type() == msg.THello {
			return
		}
		if d, ok := m.(*msg.Deschedule); !ok || d.Slot < 0 {
			spoilt.Add(1)
		}
		arrived.Add(1)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens there: a dial is refused at once

	n := NewNode(time.Now())
	t.Cleanup(n.Close)
	m, err := NewMesh(0, n, "127.0.0.1:0", map[msg.NodeID]string{1: live.Addr(), 2: deadAddr},
		func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if m.Returns(0, 1) {
		t.Fatal("Returns is true before the node has a reclaimer")
	}
	back := map[msg.Message]int{} // executor-owned
	n.SetReclaim(func(_ msg.NodeID, mm msg.Message) {
		back[mm]++
		*mm.(*msg.Deschedule) = msg.Deschedule{Slot: math.MinInt32}
	})
	if !m.Returns(0, 1) || !m.Returns(0, 9) {
		t.Fatal("Returns is false with a reclaimer")
	}

	var sent []msg.Message
	record := func() *msg.Deschedule {
		d := &msg.Deschedule{Instance: msg.InstanceID(len(sent) + 1), Slot: int32(len(sent))}
		sent = append(sent, d)
		return d
	}
	send := func(to msg.NodeID, k int) {
		for range k {
			m.Send(0, to, record())
		}
	}
	// allBack waits until every record sent so far is back, reading the
	// tally on the executor, and checks each came back once.
	allBack := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			var got, twice int
			n.Sync(func() {
				got = len(back)
				for _, k := range back {
					if k != 1 {
						twice++
					}
				}
			})
			if twice > 0 {
				t.Fatalf("%s: %d records came back more than once", what, twice)
			}
			if got == len(sent) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d records back", what, got, len(sent))
			}
		}
	}

	// Written: the writer hands the frames back after writing them, and
	// the executor passes them on before its next event, which is the
	// only one that ran.
	before := n.Processed()
	send(1, 200)
	for deadline := time.Now().Add(10 * time.Second); n.back.n.Load() < 200; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 200 written frames handed back", n.back.n.Load())
		}
	}
	if ran := n.Processed() - before; ran != 0 {
		t.Fatalf("%d executor events ran while records came back", ran)
	}
	allBack("written")
	if got := n.Processed() - before; got != 1 {
		t.Fatalf("%d executor events for one Sync, want 1: a return is no event", got)
	}
	for deadline := time.Now().Add(10 * time.Second); arrived.Load() < 200; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 200 frames arrived", arrived.Load())
		}
	}

	// A dead peer: the failed dial drops the first frames, its backoff
	// the next.
	send(2, 5)
	allBack("failed dial")
	send(2, 5)
	allBack("backoff")
	if st := m.Stats(); st.DialFails == 0 || st.BackoffDrops == 0 {
		t.Fatalf("dead peer: %+v, want a failed dial and backoff drops", st)
	}

	// No address.
	send(7, 3)
	allBack("unknown node")

	// A full queue: maxQueued frames wait an hour, the next is dropped.
	m.mu.Lock()
	p := m.peers[1]
	m.mu.Unlock()
	for range maxQueued {
		p.queue(m, n.Now().Add(time.Hour), &msg.Deschedule{Slot: 1})
	}
	send(1, 1)
	if st := m.Stats(); st.QueueDrops != 1 {
		t.Fatalf("%d queue drops, want 1", st.QueueDrops)
	}
	allBack("full queue")

	// A closed mesh hands a send straight back.
	m.Close()
	send(1, 2)
	allBack("closed mesh")

	if spoilt.Load() != 0 || arrived.Load() != 200 {
		t.Fatalf("%d frames arrived, %d overwritten: a record came back before it was written",
			arrived.Load(), spoilt.Load())
	}
}

// TestGossipOverTCPAllocs: cubs gossiping over the mesh at steady state
// reuse every flush's state array, batches and heartbeat records, since
// the mesh hands each send back, so the whole process allocates next to
// nothing per forward-tick flush.
func TestGossipOverTCPAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time streaming test")
	}
	ctl, hosts, cfg := rtSystem(t, 3)
	var started int
	ctl.Node.Sync(func() {
		for v := range 6 {
			if _, err := ctl.Ctl.StartPlay(msg.ViewerID(v+1), msg.FileID(v%2), int32(v), 0); err == nil {
				started++
			}
		}
	})
	if started != 6 {
		t.Fatalf("%d of 6 plays admitted", started)
	}
	flushes := func() (sum int64) {
		for _, h := range hosts {
			sum += cubStats(t, h).GossipBatches
		}
		return sum / 2 // a flush sends to both successors
	}
	time.Sleep(2 * time.Second) // every play inserted, arrays and pools at size
	best := math.Inf(1)
	for range 3 {
		f0 := flushes()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		time.Sleep(10 * cfg.ForwardInterval * 4)
		runtime.ReadMemStats(&m1)
		f := flushes() - f0
		if f == 0 {
			t.Fatal("no gossip flushed")
		}
		best = min(best, float64(m1.Mallocs-m0.Mallocs)/float64(f))
	}
	t.Logf("%.3f allocations per flush", best)
	if best > 0.05 {
		t.Fatalf("%.3f allocations per gossip flush over TCP, want at most 0.05", best)
	}
}
