package netsim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/sim"
)

type recorder struct {
	from []msg.NodeID
	msgs []msg.Message
	at   []sim.Time
	eng  *sim.Engine
}

func (r *recorder) Deliver(from msg.NodeID, m msg.Message) {
	r.from = append(r.from, from)
	r.msgs = append(r.msgs, m)
	r.at = append(r.at, r.eng.Now())
}

func testNet(t *testing.T, mutate func(*Params)) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.New(1)
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	return eng, New(p, clock.Sim{Eng: eng}, rand.New(rand.NewSource(9)))
}

func TestDeliveryWithLatency(t *testing.T) {
	eng, n := testNet(t, func(p *Params) { p.LatencyJitter = 0 })
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	eng.Run()
	if len(r.msgs) != 1 {
		t.Fatalf("%d deliveries", len(r.msgs))
	}
	if r.at[0] != sim.Time(n.Params().LatencyBase) {
		t.Fatalf("arrived at %v, want %v", r.at[0], n.Params().LatencyBase)
	}
	if r.from[0] != 1 {
		t.Fatalf("from %v", r.from[0])
	}
}

func TestPairwiseFIFO(t *testing.T) {
	// §4.1.3 relies on TCP ordering between cub pairs: messages sent
	// earlier arrive earlier, despite latency jitter.
	eng, n := testNet(t, func(p *Params) { p.LatencyJitter = 5 * time.Millisecond })
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	for i := 0; i < 50; i++ {
		n.Send(1, 0, &msg.Heartbeat{From: 1, Epoch: int32(i)})
	}
	eng.Run()
	if len(r.msgs) != 50 {
		t.Fatalf("%d deliveries", len(r.msgs))
	}
	for i, m := range r.msgs {
		if m.(*msg.Heartbeat).Epoch != int32(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
	for i := 1; i < len(r.at); i++ {
		if r.at[i] <= r.at[i-1] {
			t.Fatalf("arrival times not strictly increasing at %d", i)
		}
	}
}

func TestFailedNodeSendsAndReceivesNothing(t *testing.T) {
	eng, n := testNet(t, nil)
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.Fail(1)
	n.Send(1, 0, &msg.Heartbeat{From: 1}) // from failed: dropped
	n.Revive(1)
	n.Fail(0)
	n.Send(1, 0, &msg.Heartbeat{From: 1}) // to failed: dropped
	eng.Run()
	if len(r.msgs) != 0 {
		t.Fatalf("failed-node traffic delivered: %d", len(r.msgs))
	}
}

func TestFailureWhileInFlight(t *testing.T) {
	eng, n := testNet(t, nil)
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	n.Fail(0) // receiver dies with the message in flight
	eng.Run()
	if len(r.msgs) != 0 {
		t.Fatal("message delivered to a node that failed while it was in flight")
	}
}

func TestBlipKeepsInFlight(t *testing.T) {
	// Fail/Revive is a network blip: a message already in flight when the
	// receiver blips (and revives before arrival) is still delivered.
	eng, n := testNet(t, func(p *Params) { p.LatencyBase = time.Millisecond })
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	n.Fail(0)
	eng.RunFor(100 * time.Microsecond)
	n.Revive(0)
	eng.Run()
	if len(r.msgs) != 1 {
		t.Fatalf("blip dropped an in-flight message: %d deliveries", len(r.msgs))
	}
}

func TestCrashDropsInFlight(t *testing.T) {
	// Crash/Revive is a machine restart: the old incarnation's in-flight
	// messages — in either direction — die with it and must not surface
	// after the node comes back.
	eng, n := testNet(t, func(p *Params) { p.LatencyBase = time.Millisecond })
	r0 := &recorder{eng: eng}
	r1 := &recorder{eng: eng}
	n.Register(0, r0)
	n.Register(1, r1)
	n.Send(1, 0, &msg.Heartbeat{From: 1}) // receiver crashes mid-flight
	n.Crash(0)
	eng.RunFor(100 * time.Microsecond)
	n.Revive(0)
	n.Send(0, 1, &msg.Heartbeat{From: 0}) // sender crashes mid-flight
	n.Crash(0)
	eng.RunFor(100 * time.Microsecond)
	n.Revive(0)
	eng.Run()
	if len(r0.msgs) != 0 || len(r1.msgs) != 0 {
		t.Fatalf("crashed-incarnation traffic delivered: %d to, %d from",
			len(r0.msgs), len(r1.msgs))
	}
	// Post-restart traffic flows normally.
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	eng.Run()
	if len(r0.msgs) != 1 {
		t.Fatalf("post-restart message not delivered: %d", len(r0.msgs))
	}
}

func TestControlByteAccounting(t *testing.T) {
	eng, n := testNet(t, nil)
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	hb := &msg.Heartbeat{From: 0}
	for i := 0; i < 10; i++ {
		n.Send(0, 1, hb)
	}
	eng.Run()
	st := n.NodeStats(0)
	if st.CtlMsgs != 10 || st.CtlBytes != int64(10*hb.Size()) {
		t.Fatalf("stats %+v", st)
	}
}

func TestDropControlHook(t *testing.T) {
	eng, n := testNet(t, nil)
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	drop := true
	n.DropControl = func(from, to msg.NodeID, m msg.Message) bool { return drop }
	n.Send(1, 0, &msg.Heartbeat{})
	drop = false
	n.Send(1, 0, &msg.Heartbeat{})
	eng.Run()
	if len(r.msgs) != 1 {
		t.Fatalf("%d deliveries, want 1", len(r.msgs))
	}
}

type sink struct {
	got []BlockDelivery
}

func (s *sink) DeliverBlock(d BlockDelivery) { s.got = append(s.got, d) }

func TestBlockDelivery(t *testing.T) {
	eng, n := testNet(t, func(p *Params) { p.LatencyJitter = 0 })
	s := &sink{}
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.RegisterViewer(7, s)
	n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 262144, Parts: 1}, time.Second)
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("%d deliveries", len(s.got))
	}
	d := s.got[0]
	if d.From != 0 || d.Start != 0 {
		t.Fatalf("delivery %+v", d)
	}
	if want := sim.Time(time.Second + n.Params().LatencyBase); d.LastByte != want {
		t.Fatalf("last byte at %v, want %v", d.LastByte, want)
	}
	if st := n.NodeStats(0); st.DataBytes != 262144 {
		t.Fatalf("data bytes %d", st.DataBytes)
	}
}

func TestUnregisteredViewerDiscarded(t *testing.T) {
	eng, n := testNet(t, nil)
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	s := &sink{}
	n.RegisterViewer(7, s)
	n.UnregisterViewer(7)
	n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 1, Parts: 1}, time.Second)
	eng.Run()
	if len(s.got) != 0 {
		t.Fatal("delivery to unregistered viewer")
	}
}

func TestNICOccupancyAccounting(t *testing.T) {
	eng, n := testNet(t, nil)
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	// Two concurrent 1 MB/s sends for 1 s each.
	n.SendBlock(0, BlockDelivery{Viewer: 1, Bytes: 1_000_000, Parts: 1}, time.Second)
	n.SendBlock(0, BlockDelivery{Viewer: 2, Bytes: 1_000_000, Parts: 1}, time.Second)
	eng.Run()
	st := n.NodeStats(0)
	if st.PeakRate < 1.99e6 || st.PeakRate > 2.01e6 {
		t.Fatalf("peak rate %v", st.PeakRate)
	}
	// Integral: 2 MB of byte-seconds.
	if st.ByteSecs < 1.99e6 || st.ByteSecs > 2.01e6 {
		t.Fatalf("byte-seconds %v", st.ByteSecs)
	}
	if st.OverloadNs != 0 {
		t.Fatal("overload recorded below NIC capacity")
	}
}

func TestNICOverloadDetected(t *testing.T) {
	eng, n := testNet(t, func(p *Params) { p.NICRate = 1e6 })
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.SendBlock(0, BlockDelivery{Viewer: 1, Bytes: 2_000_000, Parts: 1}, time.Second)
	eng.Run()
	if st := n.NodeStats(0); st.OverloadNs == 0 {
		t.Fatal("2 MB/s on a 1 MB/s NIC not flagged")
	}
}

func TestLinkCutAndHeal(t *testing.T) {
	eng, n := testNet(t, nil)
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.Cut(0, 1)
	if !n.LinkCut(1, 0) || !n.LinkCut(0, 1) {
		t.Fatal("Cut is not symmetric")
	}
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	eng.Run()
	if len(r.msgs) != 0 {
		t.Fatalf("cut link delivered %d messages", len(r.msgs))
	}
	if fs := n.FaultStats(); fs.LinkDrops != 1 {
		t.Fatalf("link drops %d, want 1", fs.LinkDrops)
	}
	if n.FaultedLinks() != 2 {
		t.Fatalf("faulted links %d, want 2", n.FaultedLinks())
	}
	n.Heal(0, 1)
	if n.FaultedLinks() != 0 {
		t.Fatalf("faulted links after heal: %d", n.FaultedLinks())
	}
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	eng.Run()
	if len(r.msgs) != 1 {
		t.Fatalf("healed link delivered %d messages, want 1", len(r.msgs))
	}
}

func TestAsymmetricCut(t *testing.T) {
	// 0→1 cut, 1→0 intact: exactly the "B cannot hear A" half-failure the
	// deadman protocol can misread as a death.
	eng, n := testNet(t, nil)
	r0 := &recorder{eng: eng}
	r1 := &recorder{eng: eng}
	n.Register(0, r0)
	n.Register(1, r1)
	n.CutOneWay(0, 1)
	n.Send(0, 1, &msg.Heartbeat{From: 0})
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	eng.Run()
	if len(r1.msgs) != 0 {
		t.Fatal("cut direction delivered")
	}
	if len(r0.msgs) != 1 {
		t.Fatal("intact direction lost the message")
	}
}

func TestFlakyDropAndDup(t *testing.T) {
	eng, n := testNet(t, nil)
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))

	n.SetFlakyOneWay(1, 0, FlakyParams{DropProb: 1})
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	eng.Run()
	if len(r.msgs) != 0 {
		t.Fatal("DropProb=1 delivered")
	}

	n.SetFlakyOneWay(1, 0, FlakyParams{DupProb: 1})
	n.Send(1, 0, &msg.Heartbeat{From: 1, Epoch: 7})
	eng.Run()
	if len(r.msgs) != 2 {
		t.Fatalf("DupProb=1 delivered %d copies, want 2", len(r.msgs))
	}
	if r.at[1] <= r.at[0] {
		t.Fatal("duplicate did not trail the original")
	}
	fs := n.FaultStats()
	if fs.LinkDrops != 1 || fs.LinkDups != 1 {
		t.Fatalf("fault stats %+v", fs)
	}

	// Zero params heal the flakiness.
	n.SetFlakyOneWay(1, 0, FlakyParams{})
	if n.FaultedLinks() != 0 {
		t.Fatalf("faulted links after zero params: %d", n.FaultedLinks())
	}
}

func TestFlakyExtraDelayPreservesFIFO(t *testing.T) {
	eng, n := testNet(t, func(p *Params) { p.LatencyJitter = 0 })
	r := &recorder{eng: eng}
	n.Register(0, r)
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.SetFlakyOneWay(1, 0, FlakyParams{ExtraDelay: 20 * time.Millisecond})
	for i := 0; i < 40; i++ {
		n.Send(1, 0, &msg.Heartbeat{From: 1, Epoch: int32(i)})
	}
	eng.Run()
	if len(r.msgs) != 40 {
		t.Fatalf("%d deliveries", len(r.msgs))
	}
	for i, m := range r.msgs {
		if m.(*msg.Heartbeat).Epoch != int32(i) {
			t.Fatalf("message %d out of order under extra delay", i)
		}
	}
	// At least one message must actually have been delayed beyond the
	// base latency.
	if r.at[0] == sim.Time(n.Params().LatencyBase) && r.at[39] <= r.at[0]+39 {
		t.Fatal("extra delay never applied")
	}
}

func TestDropDataHook(t *testing.T) {
	eng, n := testNet(t, nil)
	s := &sink{}
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	n.RegisterViewer(7, s)
	drop := true
	n.DropData = func(from msg.NodeID, d BlockDelivery) bool { return drop }
	n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 1000, Parts: 1}, time.Second)
	drop = false
	n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 1000, Parts: 1}, time.Second)
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("%d deliveries, want 1", len(s.got))
	}
	if fs := n.FaultStats(); fs.DataDrops != 1 {
		t.Fatalf("data drops %d, want 1", fs.DataDrops)
	}
	// Dropped blocks must not pollute the NIC or byte accounting: only
	// the delivered block counts.
	if st := n.NodeStats(0); st.DataBytes != 1000 {
		t.Fatalf("data bytes %d, want 1000", st.DataBytes)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	_, n := testNet(t, nil)
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
}

// TestSendBlockAllocs: a paced send through to the viewer's DeliverBlock
// reuses the sender's block-in-flight record and costs one event, the
// last byte's arrival — the end of its pace is not one.
func TestSendBlockAllocs(t *testing.T) {
	eng, n := testNet(t, nil)
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	delivered := 0
	n.RegisterViewer(7, sinkFunc(func(BlockDelivery) { delivered++ }))
	round := func() {
		for i := 0; i < 3; i++ { // overlapping sends: three records
			n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 262144, Parts: 1, PlaySeq: int32(i)}, time.Second)
		}
		eng.Run()
	}
	round()
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Fatalf("%v allocs per three sends", a)
	}
	if delivered != 3*202 {
		t.Fatalf("%d deliveries, want %d", delivered, 3*202)
	}
	if ev := eng.Processed(); ev != 3*202 {
		t.Fatalf("%d events for %d sends, want one each", ev, 3*202)
	}
	if st := n.NodeStats(0); st.PeakRate != 3*262144 || st.ByteSecs != 202*3*262144 {
		t.Fatalf("NIC accounting without pace-end events: %+v", st)
	}
}

type sinkFunc func(BlockDelivery)

func (f sinkFunc) DeliverBlock(d BlockDelivery) { f(d) }

// TestBlockSendRecordReuse: overlapping sends each deliver their own
// block, a record is back in use only after its last byte has arrived,
// and the NIC occupancy a send gives up is the rate it was started at.
func TestBlockSendRecordReuse(t *testing.T) {
	eng, n := testNet(t, func(p *Params) { p.LatencyJitter = 0 })
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	s := &sink{}
	n.RegisterViewer(7, s)
	for round := 0; round < 3; round++ {
		// A short send that ends while a long one is in flight, then a
		// third that picks up the short one's record.
		n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 400, Parts: 1, PlaySeq: 0}, 4*time.Second)
		n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 100, Parts: 1, PlaySeq: 1}, time.Second)
		eng.RunFor(2 * time.Second)
		n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: 300, Parts: 1, PlaySeq: 2}, time.Second)
		eng.Run()
		if len(s.got) != 3 || s.got[0].PlaySeq != 1 || s.got[1].PlaySeq != 2 || s.got[2].PlaySeq != 0 {
			t.Fatalf("round %d: deliveries %+v", round, s.got)
		}
		if s.got[0].Bytes != 100 || s.got[1].Bytes != 300 || s.got[2].Bytes != 400 {
			t.Fatalf("round %d: a delivery carries another send's block: %+v", round, s.got)
		}
		s.got = s.got[:0]
	}
	st := n.NodeStats(0)
	if want := 3 * 800.0; st.ByteSecs < want-1e-6 || st.ByteSecs > want+1e-6 {
		t.Fatalf("NIC byte-seconds %v, want %v", st.ByteSecs, want)
	}
	if free := len(n.stats[0].freeSends); free != 2 {
		t.Fatalf("%d records pooled after three rounds of two overlapping sends, want 2", free)
	}
}

// TestSendAllocs: a control message to a node on the sender's executor
// travels on a record the sender reuses, so on a warmed sender
// overlapping sends cost no allocation and one engine event each.
func TestSendAllocs(t *testing.T) {
	eng, n := testNet(t, nil)
	delivered := 0
	n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) { delivered++ }))
	n.Register(1, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	hb := &msg.Heartbeat{From: 1}
	round := func() {
		for i := 0; i < 3; i++ { // overlapping sends: three records
			n.Send(1, 0, hb)
		}
		eng.Run()
	}
	round()
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Fatalf("%v allocs per three sends", a)
	}
	if delivered != 3*202 {
		t.Fatalf("%d deliveries, want %d", delivered, 3*202)
	}
	if ev := eng.Processed(); ev != 3*202 {
		t.Fatalf("%d events for %d sends, want one each", ev, 3*202)
	}
}

// TestCtlSendRecordReuse: control records in flight are reused without
// changing what arrives. Overlapping sends each deliver their own
// message, FIFO per pair; a crash in flight still drops one; a flaky
// duplicate still trails its original; a delivered message is not kept
// by the free list, and the list stays within its cap after a burst.
func TestCtlSendRecordReuse(t *testing.T) {
	eng, n := testNet(t, func(p *Params) { p.LatencyJitter = 5 * time.Millisecond })
	r0 := &recorder{eng: eng}
	r1 := &recorder{eng: eng}
	n.Register(0, r0)
	n.Register(1, r1)
	for round := 0; round < 3; round++ {
		var sent0, sent1 []msg.Message
		for i := 0; i < 5; i++ {
			m := &msg.Heartbeat{From: 1, Epoch: int32(i)}
			n.Send(1, 0, m)
			sent0 = append(sent0, m)
			m = &msg.Heartbeat{From: 0, Epoch: int32(i)}
			n.Send(0, 1, m)
			sent1 = append(sent1, m)
		}
		eng.Run()
		for _, c := range []struct {
			got, want []msg.Message
		}{{r0.msgs, sent0}, {r1.msgs, sent1}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("round %d: %d deliveries, want %d", round, len(c.got), len(c.want))
			}
			for i := range c.want {
				if c.got[i] != c.want[i] {
					t.Fatalf("round %d: delivery %d is %+v, want %+v", round, i, c.got[i], c.want[i])
				}
			}
		}
		r0.msgs, r1.msgs = r0.msgs[:0], r1.msgs[:0]
	}

	// A crash in flight dooms the message its record carries.
	n.Send(1, 0, &msg.Heartbeat{From: 1})
	n.Crash(0)
	eng.Run()
	n.Revive(0)
	if len(r0.msgs) != 0 {
		t.Fatal("a message to a crashed incarnation was delivered")
	}

	// A duplicate trails its original through the same FIFO link.
	n.SetFlakyOneWay(1, 0, FlakyParams{DupProb: 1})
	a, b := &msg.Heartbeat{From: 1, Epoch: 1}, &msg.Heartbeat{From: 1, Epoch: 2}
	n.Send(1, 0, a)
	n.Send(1, 0, b)
	eng.Run()
	n.SetFlakyOneWay(1, 0, FlakyParams{})
	if len(r0.msgs) != 4 || r0.msgs[0] != a || r0.msgs[1] != a || r0.msgs[2] != b || r0.msgs[3] != b {
		t.Fatalf("duplicated sends arrived as %+v", r0.msgs)
	}

	// A delivered message is not kept alive by its record.
	freed := make(chan struct{})
	func() {
		m := &msg.ViewerState{Slot: 3}
		runtime.SetFinalizer(m, func(*msg.ViewerState) { close(freed) })
		n.Register(2, HandlerFunc(func(msg.NodeID, msg.Message) {}))
		n.Send(1, 2, m)
	}()
	eng.Run()
	deadline := time.After(5 * time.Second)
	for freedYet := false; !freedYet; {
		runtime.GC()
		select {
		case <-freed:
			freedYet = true
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("a delivered message is still held by its record")
		}
	}

	// A burst of more than the cap in flight leaves the cap pooled.
	for i := 0; i < 3*maxFreeCtl; i++ {
		n.Send(1, 2, &msg.Heartbeat{From: 1})
	}
	eng.Run()
	if free := len(n.stats[1].freeCtl); free != maxFreeCtl {
		t.Fatalf("%d records pooled after a burst of %d, want the cap %d", free, 3*maxFreeCtl, maxFreeCtl)
	}
}

// TestFanOutReusesEveryRecord: a sender whose tick reaches every node,
// as the controller's heartbeat does, keeps a record per registered
// node, so past maxFreeCtl nodes a tick after the first makes none.
func TestFanOutReusesEveryRecord(t *testing.T) {
	eng, n := testNet(t, nil)
	const nodes = 200
	for i := 0; i < nodes; i++ {
		n.Register(msg.NodeID(i), HandlerFunc(func(msg.NodeID, msg.Message) {}))
	}
	n.Register(msg.Controller, HandlerFunc(func(msg.NodeID, msg.Message) {}))
	hb := &msg.Heartbeat{From: msg.Controller}
	tick := func() {
		for i := 0; i < nodes; i++ {
			n.SendSteady(msg.Controller, msg.NodeID(i), hb)
		}
		eng.Run()
	}
	tick()
	if a := testing.AllocsPerRun(20, tick); a != 0 {
		t.Fatalf("%v allocations per tick to %d nodes after the first", a, nodes)
	}
	if free := len(n.stats[msg.Controller].freeCtl); free != nodes {
		t.Fatalf("%d records kept for a fan-out of %d", free, nodes)
	}
}

// reclaimer is a sender that takes its messages back: it records each
// one handed back, the instant, and whether the destination had been
// handed the message by then.
type reclaimer struct {
	recorder
	dst   *recorder
	back  []msg.Message
	at    []sim.Time
	after []bool
}

func (r *reclaimer) Reclaim(to msg.NodeID, m msg.Message) {
	r.back = append(r.back, m)
	r.at = append(r.at, r.eng.Now())
	r.after = append(r.after, len(r.dst.msgs) > 0 && r.dst.msgs[len(r.dst.msgs)-1] == m)
}

// TestReclaimAfterLastDelivery: a message comes back to its sender
// exactly once, in its arrival event and after the destination's handler
// has run, also when the destination failed or crashed while it was in
// flight; it never comes back from a duplicated send, a cut or lossy
// link or a DropControl hook, and Returns says so before each send.
// Across shards it comes back the same way, at the next barrier.
func TestReclaimAfterLastDelivery(t *testing.T) {
	eng, n := testNet(t, nil)
	dst := &recorder{eng: eng}
	src := &reclaimer{recorder: recorder{eng: eng}, dst: dst}
	n.Register(0, dst)
	n.Register(1, src)
	// send sends a message from 1 to 0 under a fault set up by arrange
	// and lifted by lift (either may be nil) and runs the network dry; it
	// reports how often the message was delivered and handed back.
	send := func(name string, arrange, lift func()) (delivered, back int) {
		t.Helper()
		if arrange != nil {
			arrange()
		}
		returns := n.Returns(1, 0)
		dst.msgs, src.back, src.at, src.after = nil, nil, nil, nil
		m := &msg.Heartbeat{From: 1}
		n.Send(1, 0, m)
		eng.Run()
		if lift != nil {
			lift()
		}
		for i, b := range src.back {
			if b != m {
				t.Fatalf("%s: handed back %+v, not the message sent", name, b)
			}
			if src.at[i] != eng.Now() {
				t.Fatalf("%s: handed back at %v, the arrival was at %v", name, src.at[i], eng.Now())
			}
		}
		if returns != (len(src.back) == 1) || len(src.back) > 1 {
			t.Fatalf("%s: Returns said %v, handed back %d times", name, returns, len(src.back))
		}
		return len(dst.msgs), len(src.back)
	}

	if d, b := send("healthy", nil, nil); d != 1 || b != 1 || !src.after[0] {
		t.Fatalf("healthy: delivered %d, back %d, after the handler %v", d, b, src.after)
	}
	if d, b := send("extra delay", func() { n.SetFlakyOneWay(1, 0, FlakyParams{ExtraDelay: time.Millisecond}) },
		func() { n.SetFlakyOneWay(1, 0, FlakyParams{}) }); d != 1 || b != 1 || !src.after[0] {
		t.Fatalf("extra delay: delivered %d, back %d, after the handler %v", d, b, src.after)
	}
	for _, c := range []struct {
		name string
		down func(msg.NodeID)
	}{{"failed in flight", n.Fail}, {"crashed in flight", n.Crash}} {
		if d, b := send(c.name, func() { eng.At(eng.Now().Add(time.Microsecond), func() { c.down(0) }) },
			func() { n.Revive(0) }); d != 0 || b != 1 {
			t.Fatalf("%s: delivered %d, back %d", c.name, d, b)
		}
	}
	never := []struct {
		name           string
		arrange, lift  func()
		wantDeliveries int
	}{
		{"duplicated", func() { n.SetFlakyOneWay(1, 0, FlakyParams{DupProb: 1}) }, func() { n.HealOneWay(1, 0) }, 2},
		{"cut", func() { n.CutOneWay(1, 0) }, func() { n.HealOneWay(1, 0) }, 0},
		{"lossy, dropped", func() { n.SetFlakyOneWay(1, 0, FlakyParams{DropProb: 1}) }, func() { n.HealOneWay(1, 0) }, 0},
		{"lossy, delivered", func() { n.SetFlakyOneWay(1, 0, FlakyParams{DropProb: 1e-9}) }, func() { n.HealOneWay(1, 0) }, 1},
		{"DropControl, dropped", func() { n.DropControl = func(msg.NodeID, msg.NodeID, msg.Message) bool { return true } },
			func() { n.DropControl = nil }, 0},
		{"DropControl, passed", func() { n.DropControl = func(msg.NodeID, msg.NodeID, msg.Message) bool { return false } },
			func() { n.DropControl = nil }, 1},
		{"receiver down", func() { n.Fail(0) }, func() { n.Revive(0) }, 0},
		{"sender down", func() { n.Fail(1) }, func() { n.Revive(1) }, 0},
	}
	for _, c := range never {
		if d, b := send(c.name, c.arrange, c.lift); d != c.wantDeliveries || b != 0 {
			t.Fatalf("%s: delivered %d, back %d", c.name, d, b)
		}
	}
	if d, b := send("healed", nil, nil); d != 1 || b != 1 {
		t.Fatalf("healed: delivered %d, back %d", d, b)
	}

	reclaimAcrossShards(t)
}

// shardRig is a two-shard run: node 1 on shard 0 sends and takes its
// messages back; node 2 and viewer 7 are on shard 1. It logs each
// barrier and what node 1's records and messages did around it.
type shardRig struct {
	co       *sim.Sharded
	n        *Network
	barriers int  // barriers begun so far: during a window, its index
	inHook   bool // the barrier hook is running
	got      []int
	back     []int // barrier of each message handed back, -1 in a window
	backMsgs []msg.Message
	log      []barrierLog
}

// barrierLog is one barrier: records listed on shard 1 and records on
// node 1's free lists before the hook, and on its free lists after it.
type barrierLog struct{ listed, freeBefore, freeAfter int }

func newShardRig(t *testing.T) *shardRig {
	t.Helper()
	e0, e1 := sim.New(1), sim.New(2)
	p := DefaultParams()
	r := &shardRig{co: sim.NewSharded([]*sim.Engine{e0, e1}, p.LatencyBase, 1)}
	r.n = New(p, clock.Sim{Eng: e0}, rand.New(rand.NewSource(9)))
	r.n.Register(1, r)
	r.n.Register(2, HandlerFunc(func(msg.NodeID, msg.Message) { r.got = append(r.got, r.barriers) }))
	r.n.RegisterViewer(7, sinkFunc(func(BlockDelivery) { r.got = append(r.got, r.barriers) }))
	r.n.SetSharded(&ShardMap{
		ShardOf:     func(id msg.NodeID) int { return int(id) / 2 },
		Clocks:      []clock.Clock{clock.Sim{Eng: e0}, clock.Sim{Eng: e1}},
		Post:        r.co.Post,
		ViewerShard: 1,
		OnBarrier: func(hook func()) {
			r.co.OnBarrier(func() {
				r.barriers++
				l := barrierLog{listed: len(r.n.back[1].ctl) + len(r.n.back[1].blocks), freeBefore: r.pooled()}
				r.inHook = true
				hook()
				r.inHook = false
				l.freeAfter = r.pooled()
				r.log = append(r.log, l)
			})
		},
	})
	return r
}

func (r *shardRig) pooled() int {
	st := r.n.stats[1]
	return len(st.freeCtl) + len(st.freeSends)
}

func (r *shardRig) Deliver(msg.NodeID, msg.Message) {}

func (r *shardRig) Reclaim(_ msg.NodeID, m msg.Message) {
	at := -1
	if r.inHook {
		at = r.barriers
	}
	r.back, r.backMsgs = append(r.back, at), append(r.backMsgs, m)
}

// reclaimAcrossShards: a cross-shard arrival runs on the destination
// shard's executor, which lists its record; the record goes back to the
// sender, and the message to its Reclaim, exactly once, in the barrier
// hook right after the window of the arrival and never inside a window.
// That holds for a block and for a message, also when the destination
// failed or crashed in flight, and Returns says so before each send; a
// duplicated, cut or lossy send's message never comes back.
func reclaimAcrossShards(t *testing.T) {
	r := newShardRig(t)
	// send sends a message (or, with block, a block) from node 1 under a
	// fault arrange sets up, runs 1 µs, applies inFlight, runs the rest of
	// the way and lifts the fault. Any of the three may be nil.
	send := func(name string, block bool, arrange, inFlight, lift func()) {
		t.Helper()
		if arrange != nil {
			arrange()
		}
		returns := r.n.Returns(1, 2)
		r.got, r.back, r.backMsgs, r.log = nil, nil, nil, nil
		r.n.stats[1].freeCtl.Wipe()
		r.n.stats[1].freeSends.Wipe()
		m := &msg.Heartbeat{From: 1}
		if block {
			r.n.SendBlock(1, BlockDelivery{Viewer: 7, Bytes: 65536, Parts: 1}, 10*time.Millisecond)
		} else {
			r.n.Send(1, 2, m)
		}
		first := r.barriers
		r.co.RunFor(time.Microsecond)
		if inFlight != nil {
			inFlight()
		}
		r.co.RunFor(50 * time.Millisecond)
		if lift != nil {
			lift()
		}
		// Every record that arrived is listed at exactly one barrier, the
		// first after its window, and the hook of that barrier moves it
		// to the free list; nothing moves inside a window.
		listedAt, sent := -1, 0
		for i, l := range r.log {
			if l.listed > 0 && listedAt < 0 {
				listedAt = first + i + 1
			}
			if l.freeAfter-l.freeBefore != l.listed {
				t.Fatalf("%s: barrier %d listed %d records and freed %d", name, first+i+1, l.listed, l.freeAfter-l.freeBefore)
			}
			if i > 0 && l.freeBefore != r.log[i-1].freeAfter {
				t.Fatalf("%s: a record went back inside the window before barrier %d", name, first+i+1)
			}
			sent += l.listed
		}
		for _, g := range r.got {
			if g+1 != listedAt {
				t.Fatalf("%s: arrived in window %d, listed at barrier %d", name, g, listedAt)
			}
		}
		for i, b := range r.back {
			if r.backMsgs[i] != m || b != listedAt {
				t.Fatalf("%s: handed back %+v at barrier %d (-1: in a window), its record listed at %d", name, r.backMsgs[i], b, listedAt)
			}
		}
		if !block && returns != (len(r.back) == 1) || len(r.back) > 1 || block && len(r.back) > 0 {
			t.Fatalf("%s: Returns said %v, handed back %d times", name, returns, len(r.back))
		}
		if r.pooled() != sent || r.inHook {
			t.Fatalf("%s: %d records back of %d listed", name, r.pooled(), sent)
		}
	}
	check := func(name string, wantGot, wantBack int) {
		t.Helper()
		if len(r.got) != wantGot || len(r.back) != wantBack {
			t.Fatalf("%s: delivered %d, back %d; want %d and %d", name, len(r.got), len(r.back), wantGot, wantBack)
		}
	}
	if !r.n.Returns(1, 2) {
		t.Fatal("Returns refuses a healthy cross-shard send")
	}
	send("block", true, nil, nil, nil)
	check("block", 1, 0)
	if r.pooled() != 1 {
		t.Fatalf("the block's record is not back: %d free", r.pooled())
	}
	send("healthy", false, nil, nil, nil)
	check("healthy", 1, 1)
	for _, c := range []struct {
		name string
		down func(msg.NodeID)
	}{{"failed in flight", r.n.Fail}, {"crashed in flight", r.n.Crash}} {
		send(c.name, false, nil, func() { c.down(2) }, func() { r.n.Revive(2) })
		check(c.name, 0, 1)
	}
	never := []struct {
		name          string
		arrange, lift func()
		wantGot       int
	}{
		{"duplicated", func() { r.n.SetFlakyOneWay(1, 2, FlakyParams{DupProb: 1}) }, func() { r.n.HealOneWay(1, 2) }, 2},
		{"cut", func() { r.n.CutOneWay(1, 2) }, func() { r.n.HealOneWay(1, 2) }, 0},
		{"lossy, dropped", func() { r.n.SetFlakyOneWay(1, 2, FlakyParams{DropProb: 1}) }, func() { r.n.HealOneWay(1, 2) }, 0},
		{"lossy, delivered", func() { r.n.SetFlakyOneWay(1, 2, FlakyParams{DropProb: 1e-9}) }, func() { r.n.HealOneWay(1, 2) }, 1},
	}
	for _, c := range never {
		send(c.name, false, c.arrange, nil, c.lift)
		check(c.name, c.wantGot, 0)
	}
	send("healed", false, nil, nil, nil)
	check("healed", 1, 1)
}

// TestLazyNICEqualsEager drives randomized paced sends — primary and
// mirror-piece paces mixed, start instants on a grid both paces divide so
// a pace often ends at the very instant another send starts, a crash and
// revival in the middle — and compares every NodeStats read with an
// eager model computed here: all rate changes of the whole run sorted by
// instant (a pace end before a start or a read at the same instant, pace
// ends among themselves in send order) and integrated in one sweep.
func TestLazyNICEqualsEager(t *testing.T) {
	const (
		primaryPace = time.Second
		piecePace   = 250 * time.Millisecond
		grid        = 50 * time.Millisecond
	)
	for seed := int64(1); seed <= 5; seed++ {
		eng, n := testNet(t, func(p *Params) { p.NICRate = 3e6 })
		n.Register(0, HandlerFunc(func(msg.NodeID, msg.Message) {}))
		n.RegisterViewer(7, sinkFunc(func(BlockDelivery) {}))
		rng := rand.New(rand.NewSource(seed))

		type change struct {
			at      sim.Time
			paceEnd bool
			seq     int
			delta   float64
			read    int // index into reads, or -1
		}
		var changes []change
		var reads []Stats
		down := false
		for op := 0; op < 4000; op++ {
			eng.RunFor(time.Duration(rng.Intn(4)) * grid) // 0: same instant as the last op
			now := eng.Now()
			switch k := rng.Intn(20); {
			case op == 1500:
				n.Crash(0)
				down = true
			case op == 1700:
				n.Revive(0)
				down = false
			case k < 3:
				changes = append(changes, change{at: now, seq: op, read: len(reads)})
				reads = append(reads, n.NodeStats(0))
			default:
				pace, bytes := primaryPace, int64(262144)
				if k < 9 {
					pace, bytes = piecePace, 65536
				}
				n.SendBlock(0, BlockDelivery{Viewer: 7, Bytes: bytes, Parts: 1}, pace)
				if down {
					continue // a dead node puts nothing on the wire
				}
				rate := float64(bytes) / pace.Seconds()
				changes = append(changes,
					change{at: now, seq: op, delta: +rate, read: -1},
					change{at: now.Add(pace), paceEnd: true, seq: op, delta: -rate, read: -1})
			}
		}
		eng.Run()
		changes = append(changes, change{at: eng.Now(), seq: 1 << 30, read: len(reads)})
		reads = append(reads, n.NodeStats(0))

		sort.SliceStable(changes, func(i, j int) bool {
			a, b := changes[i], changes[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.paceEnd != b.paceEnd {
				return a.paceEnd
			}
			return a.seq < b.seq
		})
		var active, byteSecs, peak float64
		var overload int64
		var last sim.Time
		sends, ties := 0, 0
		for i, c := range changes {
			if dt := c.at.Sub(last); dt > 0 {
				byteSecs += active * dt.Seconds()
				if active > n.params.NICRate {
					overload += int64(dt)
				}
			}
			last = c.at
			active += c.delta
			if active < 0 {
				active = 0
			}
			if active > peak {
				peak = active
			}
			if c.delta > 0 {
				sends++
				if i > 0 && changes[i-1].paceEnd && changes[i-1].at == c.at {
					ties++
				}
			}
			if c.read >= 0 {
				got := reads[c.read]
				if got.ByteSecs != byteSecs || got.PeakRate != peak || got.OverloadNs != overload {
					t.Fatalf("seed %d, read %d at %v: got byteSecs %v peak %v overload %d, eager model %v %v %d",
						seed, c.read, c.at, got.ByteSecs, got.PeakRate, got.OverloadNs, byteSecs, peak, overload)
				}
			}
		}
		if ties < sends/20 || overload == 0 || active != 0 {
			t.Fatalf("seed %d exercises too little: %d of %d sends start as a pace ends, overload %d, %v B/s left active",
				seed, ties, sends, overload, active)
		}
	}
}
