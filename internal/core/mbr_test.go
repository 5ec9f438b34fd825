package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsched"
	"tiger/internal/netsim"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

type mbrRig struct {
	eng  *sim.Engine
	net  *netsim.Network
	cubs []*MBRCub
}

func newMBRRig(t *testing.T, n int, mutate func(*MBRConfig)) *mbrRig {
	t.Helper()
	eng := sim.New(21)
	clk := clock.Sim{Eng: eng}
	net := netsim.New(netsim.DefaultParams(), clk, eng.Rand())
	cfg := DefaultMBRConfig(n)
	if mutate != nil {
		mutate(&cfg)
	}
	r := &mbrRig{eng: eng, net: net}
	for i := 0; i < n; i++ {
		dp := cfg.DiskParams
		dp.BlipProb = 0
		d := disk.New(i, dp, clk, rand.New(rand.NewSource(int64(i))))
		c, err := NewMBRCub(msg.NodeID(i), cfg, clk, net, d)
		if err != nil {
			t.Fatal(err)
		}
		// Gossip commits to every cub, standing in for the viewer-state
		// propagation of the full system.
		c.OnCommit = func(e netsched.Entry) {
			for _, other := range r.cubs {
				if other != c {
					other.CommitRemote(e)
				}
			}
		}
		net.Register(msg.NodeID(i), c)
		r.cubs = append(r.cubs, c)
	}
	return r
}

func TestMBRInsertCommits(t *testing.T) {
	r := newMBRRig(t, 3, nil)
	if !r.cubs[0].StartPlay(1, 100, 2_000_000) {
		t.Fatal("local view rejected an empty schedule")
	}
	r.eng.RunFor(time.Second)
	st := r.cubs[0].Stats()
	if st.Inserts != 1 || st.Timeouts != 0 || st.RemoteRejects != 0 {
		t.Fatalf("stats %+v", st)
	}
	e, ok := r.cubs[0].Schedule().Get(100)
	if !ok || e.State != netsched.Committed {
		t.Fatalf("entry %+v ok=%v", e, ok)
	}
	// The successor holds the entry too (reservation upgraded).
	se, ok := r.cubs[1].Schedule().Get(100)
	if !ok || se.State != netsched.Committed {
		t.Fatalf("successor entry %+v ok=%v", se, ok)
	}
}

// TestMBRStepsFormOneChain pins the multiple-bitrate cub's step reports:
// with a chain log subscribed to the cubs' sink the insertion is stamped
// traced, the flag rides the reservation to the successor, and the
// two-phase insertion reads as one chain — admit, the successor's
// reservation (state), the commit (insert), then services. With nobody
// subscribed nothing is stamped.
func TestMBRStepsFormOneChain(t *testing.T) {
	r := newMBRRig(t, 3, nil)
	r.cubs[0].StartPlay(1, 99, 2_000_000)
	if e, _ := r.cubs[0].Schedule().Get(99); e.Trace != 0 {
		t.Fatal("insertion stamped traced with no subscriber")
	}
	var sink trace.Sink
	chain := trace.NewChainLog(4, 16)
	sink.Subscribe(trace.ChainKinds, chain.Record)
	for _, c := range r.cubs {
		c.SetSink(&sink)
	}
	r.cubs[0].StartPlay(1, 100, 2_000_000)
	r.eng.RunFor(4 * time.Second)
	hops := chain.Chain(100, 0)
	trace.SortHops(hops)
	var kinds []trace.Kind
	for _, h := range hops {
		kinds = append(kinds, h.Kind)
	}
	want := []trace.Kind{trace.Admit, trace.State, trace.Insert, trace.Serve}
	if len(kinds) < len(want) || !reflect.DeepEqual(kinds[:len(want)], want) {
		t.Fatalf("chain kinds %v, want prefix %v", kinds, want)
	}
	if hops[1].Node != 1 || hops[0].Slack() <= 0 {
		t.Fatalf("reservation on %v, admit slack %d: %v", hops[1].Node, hops[0].Slack(), hops)
	}
	if chain.Len() != 1 {
		t.Fatalf("%d chains, want only the traced insertion's", chain.Len())
	}
}

func TestMBRServiceRotatesAllCubs(t *testing.T) {
	r := newMBRRig(t, 3, nil)
	serves := map[msg.NodeID]int{}
	for _, c := range r.cubs {
		c := c
		c.OnServe = func(e netsched.Entry, at sim.Time) { serves[c.ID()]++ }
	}
	r.cubs[0].StartPlay(1, 100, 2_000_000)
	r.eng.RunFor(10 * time.Second)
	// In a 3-cub, 1 s block play system each cub serves the stream once
	// per 3 s cycle.
	for id, n := range serves {
		if n < 2 || n > 4 {
			t.Fatalf("cub %v served %d times in 10s", id, n)
		}
	}
	if len(serves) != 3 {
		t.Fatalf("only %d cubs served", len(serves))
	}
}

func TestMBRLocalRejectWhenFull(t *testing.T) {
	r := newMBRRig(t, 3, func(c *MBRConfig) { c.NICBps = 6_000_000 })
	// Fill the whole 3-second cycle with 6 Mbit entries.
	for i := 0; i < 3; i++ {
		if !r.cubs[0].StartPlay(1, msg.InstanceID(i+1), 6_000_000) {
			t.Fatalf("insert %d rejected early", i)
		}
		r.eng.RunFor(time.Second)
	}
	if r.cubs[0].StartPlay(2, 99, 1_000_000) {
		t.Fatal("full schedule accepted another stream")
	}
	if r.cubs[0].Stats().LocalRejects != 1 {
		t.Fatalf("stats %+v", r.cubs[0].Stats())
	}
}

func TestMBRRemoteRejectAborts(t *testing.T) {
	// The successor's view has a reservation the originator cannot see;
	// its confirmation must be negative and the originator must abort
	// and free its tentative entry (§4.2).
	r := newMBRRig(t, 3, func(c *MBRConfig) { c.NICBps = 6_000_000 })
	// Jam the successor's view directly: a foreign reservation filling
	// the entire schedule.
	for i := 0; i < 3; i++ {
		if err := r.cubs[1].Schedule().Insert(netsched.Entry{
			Instance: msg.InstanceID(1000 + i),
			Start:    time.Duration(i) * time.Second,
			Bitrate:  6_000_000,
			State:    netsched.Reserved,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.cubs[0].StartPlay(1, 7, 2_000_000) {
		t.Fatal("local check should pass — the originator cannot see the jam")
	}
	r.eng.RunFor(time.Second)
	st := r.cubs[0].Stats()
	if st.RemoteRejects != 1 || st.Inserts != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, still := r.cubs[0].Schedule().Get(7); still {
		t.Fatal("tentative entry not removed after remote reject")
	}
	// The freed capacity is usable again once the jam clears.
	for i := 0; i < 3; i++ {
		r.cubs[1].Schedule().Remove(msg.InstanceID(1000 + i))
	}
	if !r.cubs[0].StartPlay(1, 8, 2_000_000) {
		t.Fatal("insert after cleared jam rejected")
	}
}

func TestMBRTimeoutAborts(t *testing.T) {
	r := newMBRRig(t, 3, nil)
	r.net.Fail(1) // successor dead: no confirmation will come
	if !r.cubs[0].StartPlay(1, 7, 2_000_000) {
		t.Fatal("local insert rejected")
	}
	r.eng.RunFor(time.Second)
	st := r.cubs[0].Stats()
	if st.Timeouts != 1 || st.Inserts != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, still := r.cubs[0].Schedule().Get(7); still {
		t.Fatal("tentative entry survived timeout")
	}
}

func TestMBRSpeculativeReadOverlap(t *testing.T) {
	// §4.3: "Insertion in the multiple bitrate system shows how
	// communications latency can be hidden by overlapping it with
	// speculative action (the disk read)." The read must be issued
	// before the confirmation arrives.
	r := newMBRRig(t, 3, nil)
	r.cubs[0].StartPlay(1, 7, 2_000_000)
	// Immediately after StartPlay (before any network round trip), the
	// disk already has the read queued or in service.
	if r.cubs[0].disk.QueueLen() == 0 && r.cubs[0].disk.Stats().Reads == 0 {
		t.Fatal("speculative read not issued at insertion time")
	}
	r.eng.RunFor(time.Second)
	if st := r.cubs[0].Stats(); st.Inserts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMBRAbortedReadCounted(t *testing.T) {
	r := newMBRRig(t, 3, func(c *MBRConfig) {
		c.ReserveTimeout = time.Millisecond // faster than the disk read
	})
	r.net.Fail(1)
	r.cubs[0].StartPlay(1, 7, 2_000_000)
	r.eng.RunFor(time.Second)
	if st := r.cubs[0].Stats(); st.AbortedReads != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMBRDescheduleIdempotent(t *testing.T) {
	r := newMBRRig(t, 3, nil)
	r.cubs[0].StartPlay(1, 7, 2_000_000)
	r.eng.RunFor(time.Second)
	d := &msg.Deschedule{Viewer: 1, Instance: 7}
	for _, c := range r.cubs {
		c.Deliver(msg.Controller, d)
		c.Deliver(msg.Controller, d)
	}
	r.eng.RunFor(time.Second)
	for _, c := range r.cubs {
		if _, still := c.Schedule().Get(7); still {
			t.Fatalf("cub %v still holds descheduled entry", c.ID())
		}
	}
	// Services stop.
	sends := r.cubs[0].Stats().Sends
	r.eng.RunFor(5 * time.Second)
	if r.cubs[0].Stats().Sends != sends {
		t.Fatal("descheduled entry still being served")
	}
}

func TestMBRMixedBitratesFillCapacity(t *testing.T) {
	r := newMBRRig(t, 4, func(c *MBRConfig) { c.NICBps = 10_000_000 })
	rates := []int64{1_000_000, 3_000_000, 2_000_000, 4_000_000, 2_000_000, 6_000_000}
	inst := msg.InstanceID(1)
	accepted := 0
	for _, br := range rates {
		if r.cubs[int(inst)%4].StartPlay(1, inst, br) {
			accepted++
		}
		inst++
		r.eng.RunFor(300 * time.Millisecond)
	}
	r.eng.RunFor(2 * time.Second)
	if accepted < 5 {
		t.Fatalf("only %d of %d mixed-rate streams accepted", accepted, len(rates))
	}
	// No cub's view may ever exceed NIC capacity.
	for _, c := range r.cubs {
		s := c.Schedule()
		for off := time.Duration(0); off < s.Cycle(); off += 100 * time.Millisecond {
			if s.OccupancyAt(off) > s.Capacity() {
				t.Fatalf("cub %v over capacity at %v", c.ID(), off)
			}
		}
	}
}

func TestMBRDataPathNICAccounting(t *testing.T) {
	r := newMBRRig(t, 4, func(c *MBRConfig) { c.NICBps = 50_000_000 })
	for _, c := range r.cubs {
		c.Data = r.net
	}
	// Commit several streams of different rates.
	for i, br := range []int64{2_000_000, 4_000_000, 6_000_000} {
		if !r.cubs[i%4].StartPlay(msg.ViewerID(i+1), msg.InstanceID(i+1), br) {
			t.Fatalf("insert %d rejected", i)
		}
		r.eng.RunFor(500 * time.Millisecond)
	}
	r.eng.RunFor(20 * time.Second)
	var sent int64
	for i := 0; i < 4; i++ {
		st := r.net.NodeStats(msg.NodeID(i))
		sent += st.DataBytes
		if st.OverloadNs != 0 {
			t.Fatalf("cub %d NIC overloaded", i)
		}
	}
	// 12 Mbit/s aggregate for ~20 s = ~30 MB of payload.
	if sent < 20_000_000 {
		t.Fatalf("only %d data bytes sent", sent)
	}
}
