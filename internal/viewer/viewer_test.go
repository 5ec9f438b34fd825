package viewer

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/metrics"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

const bp = time.Second

func newViewer(t *testing.T) (*sim.Engine, *Viewer, *metrics.LossLog) {
	t.Helper()
	eng := sim.New(1)
	loss := &metrics.LossLog{}
	v := New(1, clock.Sim{Eng: eng}, bp, 500*time.Millisecond, nil, loss)
	return eng, v, loss
}

func deliver(v *Viewer, seq int32, parts, need int8, at sim.Time) {
	for p := int8(0); p < parts; p++ {
		v.DeliverBlock(netsim.BlockDelivery{
			Viewer: v.ID, Instance: v.instance, File: v.file,
			Block: v.startBlock + seq, PlaySeq: seq,
			Part: p, Parts: need, LastByte: at,
		})
	}
}

func TestHappyPath(t *testing.T) {
	eng, v, loss := newViewer(t)
	var latency time.Duration
	v.OnFirstBlock = func(l time.Duration) { latency = l }
	done := false
	v.OnDone = func() { done = true }
	v.Begin(42, 0, 0, 5)

	// First block arrives 1.8 s after the request; the rest follow every
	// block play time.
	for k := int32(0); k < 5; k++ {
		k := k
		eng.At(sim.Time(1800*time.Millisecond)+sim.Time(k)*sim.Time(bp), func() {
			deliver(v, k, 1, 1, eng.Now())
		})
	}
	eng.Run()
	st := v.Stats()
	if st.BlocksOK != 5 || st.BlocksLost != 0 {
		t.Fatalf("stats %+v", st)
	}
	if latency != 1800*time.Millisecond {
		t.Fatalf("startup latency %v", latency)
	}
	if !done {
		t.Fatal("OnDone never fired")
	}
	if loss.Total() != 0 {
		t.Fatal("losses recorded on clean stream")
	}
}

func TestMissingBlockCounted(t *testing.T) {
	eng, v, loss := newViewer(t)
	v.Begin(42, 0, 0, 3)
	eng.At(sim.Time(time.Second), func() { deliver(v, 0, 1, 1, eng.Now()) })
	// Block 1 never arrives; block 2 does.
	eng.At(sim.Time(3*time.Second), func() { deliver(v, 2, 1, 1, eng.Now()) })
	eng.Run()
	st := v.Stats()
	if st.BlocksOK != 2 || st.BlocksLost != 1 {
		t.Fatalf("stats %+v", st)
	}
	if loss.ClientMissed != 1 {
		t.Fatalf("loss log %+v", loss)
	}
}

func TestLateBlockIsLost(t *testing.T) {
	eng, v, _ := newViewer(t)
	v.Begin(42, 0, 0, 2)
	eng.At(sim.Time(time.Second), func() { deliver(v, 0, 1, 1, eng.Now()) })
	// Block 1 arrives 0.9 s late: past the 0.5 s slack.
	eng.At(sim.Time(2900*time.Millisecond), func() { deliver(v, 1, 1, 1, eng.Now()) })
	eng.Run()
	st := v.Stats()
	if st.BlocksLost != 1 || st.BlocksOK != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMirrorAssembly(t *testing.T) {
	eng, v, _ := newViewer(t)
	v.Begin(42, 0, 0, 2)
	eng.At(sim.Time(time.Second), func() { deliver(v, 0, 1, 1, eng.Now()) })
	// Block 1 arrives as 4 declustered pieces spread over the block play
	// time, the last at the nominal arrival instant.
	for p := int8(0); p < 4; p++ {
		p := p
		eng.At(sim.Time(1250*time.Millisecond)+sim.Time(p)*sim.Time(250*time.Millisecond), func() {
			v.DeliverBlock(netsim.BlockDelivery{
				Viewer: v.ID, Instance: 42, Block: 1, PlaySeq: 1, Part: p, Parts: 4,
				Mirror: true, LastByte: eng.Now(),
			})
		})
	}
	eng.Run()
	st := v.Stats()
	if st.BlocksOK != 2 || st.BlocksLost != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.MirrorBlocks != 1 {
		t.Fatalf("mirror blocks %d", st.MirrorBlocks)
	}
}

func TestIncompleteMirrorIsLost(t *testing.T) {
	eng, v, _ := newViewer(t)
	v.Begin(42, 0, 0, 2)
	eng.At(sim.Time(time.Second), func() { deliver(v, 0, 1, 1, eng.Now()) })
	// Only 3 of 4 pieces arrive.
	for p := int8(0); p < 3; p++ {
		p := p
		eng.At(sim.Time(1250*time.Millisecond), func() {
			v.DeliverBlock(netsim.BlockDelivery{
				Viewer: v.ID, Instance: 42, Block: 1, PlaySeq: 1, Part: p, Parts: 4,
				Mirror: true, LastByte: eng.Now(),
			})
		})
	}
	eng.Run()
	if st := v.Stats(); st.BlocksLost != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMirrorServedFirstBlockAnchorsOnCompletion(t *testing.T) {
	eng, v, _ := newViewer(t)
	var latency time.Duration
	v.OnFirstBlock = func(l time.Duration) { latency = l }
	v.Begin(42, 0, 0, 2)
	// First block arrives as pieces completing at t=2s; second block
	// completes at t=3s. Neither should be counted lost.
	for p := int8(0); p < 4; p++ {
		p := p
		eng.At(sim.Time(1250*time.Millisecond)+sim.Time(p)*sim.Time(250*time.Millisecond), func() {
			v.DeliverBlock(netsim.BlockDelivery{
				Viewer: v.ID, Instance: 42, PlaySeq: 0, Part: p, Parts: 4,
				Mirror: true, LastByte: eng.Now(),
			})
		})
	}
	eng.At(sim.Time(3*time.Second), func() { deliver(v, 1, 1, 1, eng.Now()) })
	eng.Run()
	st := v.Stats()
	if st.BlocksOK != 2 || st.BlocksLost != 0 {
		t.Fatalf("stats %+v", st)
	}
	if latency != 2*time.Second {
		t.Fatalf("latency %v, want anchor at block completion", latency)
	}
}

func TestFirstBlockLostEntirelyStillDetected(t *testing.T) {
	eng, v, _ := newViewer(t)
	v.Begin(42, 0, 0, 3)
	// Blocks 1 and 2 arrive; block 0 never does.
	eng.At(sim.Time(2*time.Second), func() { deliver(v, 1, 1, 1, eng.Now()) })
	eng.At(sim.Time(3*time.Second), func() { deliver(v, 2, 1, 1, eng.Now()) })
	eng.Run()
	st := v.Stats()
	if st.BlocksLost != 1 || st.BlocksOK != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStaleInstanceIgnored(t *testing.T) {
	eng, v, _ := newViewer(t)
	v.Begin(42, 0, 0, 2)
	v.End()
	v.Begin(43, 0, 0, 2)
	eng.At(sim.Time(time.Second), func() {
		v.DeliverBlock(netsim.BlockDelivery{Viewer: v.ID, Instance: 42, PlaySeq: 0, Parts: 1, LastByte: eng.Now()})
	})
	eng.RunFor(5 * time.Second)
	if st := v.Stats(); st.PiecesSeen != 0 {
		t.Fatalf("stale delivery accepted: %+v", st)
	}
}

func TestMachineOverloadDrops(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(2, 1.0, rand.New(rand.NewSource(3))) // always drop when over
	loss := &metrics.LossLog{}
	v := New(1, clock.Sim{Eng: eng}, bp, 500*time.Millisecond, m, loss)
	v.Begin(42, 0, 0, 1)
	m.Attach()
	m.Attach() // 3 streams on a 2-stream machine
	eng.At(sim.Time(time.Second), func() { deliver(v, 0, 1, 1, eng.Now()) })
	eng.Run()
	if st := v.Stats(); st.PiecesSeen != 0 {
		t.Fatal("overloaded machine should have dropped the block")
	}
	if m.Streams() != 3 {
		t.Fatalf("streams %d", m.Streams())
	}
	m.Detach()
	v.End() // also detaches
	if m.Streams() != 1 {
		t.Fatalf("streams after detach %d", m.Streams())
	}
}

func TestMachineUnderCapacityNeverDrops(t *testing.T) {
	m := NewMachine(5, 1.0, rand.New(rand.NewSource(4)))
	m.Attach()
	for i := 0; i < 100; i++ {
		if m.drops() {
			t.Fatal("dropped under capacity")
		}
	}
}

func TestWrongDataDetected(t *testing.T) {
	eng, v, _ := newViewer(t)
	v.Begin(42, 3, 10, 2) // file 3 from block 10
	// Correct block for playseq 0 is file 3 block 10.
	eng.At(sim.Time(time.Second), func() {
		v.DeliverBlock(netsim.BlockDelivery{
			Viewer: v.ID, Instance: 42, File: 3, Block: 10, PlaySeq: 0,
			Parts: 1, LastByte: eng.Now(),
		})
	})
	// Wrong file, then wrong block, for playseq 1.
	eng.At(sim.Time(2*time.Second), func() {
		v.DeliverBlock(netsim.BlockDelivery{
			Viewer: v.ID, Instance: 42, File: 4, Block: 11, PlaySeq: 1,
			Parts: 1, LastByte: eng.Now(),
		})
		v.DeliverBlock(netsim.BlockDelivery{
			Viewer: v.ID, Instance: 42, File: 3, Block: 12, PlaySeq: 1,
			Parts: 1, LastByte: eng.Now(),
		})
	})
	eng.Run()
	st := v.Stats()
	if st.WrongData != 2 {
		t.Fatalf("wrong-data count %d, want 2", st.WrongData)
	}
	// The corrupt deliveries do not satisfy the deadline: block 1 lost.
	if st.BlocksOK != 1 || st.BlocksLost != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeliverCheckAllocs: a delivered block and the deadline check that
// judges it reuse the viewer's check record.
func TestDeliverCheckAllocs(t *testing.T) {
	eng, v, _ := newViewer(t)
	const blocks = 1200
	v.Begin(42, 0, 0, blocks)
	k := int32(0)
	step := func() {
		deliver(v, k, 1, 1, eng.Now())
		k++
		eng.RunFor(bp) // the block's deadline check fires
	}
	for i := 0; i < 100; i++ {
		step() // warm the engine slab and the received map
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("%v allocs per delivered and checked block", n)
	}
	if st := v.Stats(); st.BlocksLost != 0 || st.BlocksOK < 1000 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStaleCheckAfterReplay: a check armed for a play that was replaced
// is never cancelled. It must fire as a no-op on its own record — not
// read the new play's sequence from a shared one — and the new play's
// checks must all still happen.
func TestStaleCheckAfterReplay(t *testing.T) {
	eng, v, loss := newViewer(t)
	v.Begin(42, 0, 0, 100)
	deliver(v, 0, 1, 1, eng.Now()) // anchors play 42, arms its first check
	eng.RunFor(100 * time.Millisecond)
	v.End()
	v.Begin(43, 0, 0, 3) // replaced while 42's check is pending
	for k := int32(0); k < 3; k++ {
		k := k
		eng.At(eng.Now().Add(time.Duration(k)*bp+200*time.Millisecond), func() { deliver(v, k, 1, 1, eng.Now()) })
	}
	done := false
	v.OnDone = func() { done = true }
	eng.Run()
	if st := v.Stats(); st.BlocksOK != 3 || st.BlocksLost != 0 {
		t.Fatalf("stats %+v: the stale check judged the new play", st)
	}
	if !done || loss.Total() != 0 {
		t.Fatalf("done=%v losses=%d", done, loss.Total())
	}
	if len(v.freeChecks) != 2 {
		t.Fatalf("%d check records pooled, want the stale play's and the new one's", len(v.freeChecks))
	}
}

// TestLateDeliveriesNotKept: a mirror piece or hedge duplicate arriving
// after its sequence was judged is counted and timed like any other
// delivery but not recorded — nothing would ever delete the record, and
// a crash window makes one per late piece for the rest of the play.
func TestLateDeliveriesNotKept(t *testing.T) {
	eng, v, _ := newViewer(t)
	timed := 0
	v.OnTimedDelivery = func(netsim.BlockDelivery, time.Duration) { timed++ }
	const blocks = 40
	v.Begin(42, 0, 0, blocks)
	for k := int32(0); k < blocks; k++ {
		k := k
		at := sim.Time(time.Second) + sim.Time(k)*sim.Time(bp)
		eng.At(at, func() { deliver(v, k, 1, 1, eng.Now()) })
		// Two declustered pieces of the same sequence trail in after its
		// deadline (0.5 s of slack) has passed.
		eng.At(at.Add(800*time.Millisecond), func() {
			deliver(v, k, 2, 4, eng.Now())
			if unjudged := int(k + 1 - v.nextCheck); len(v.received) > unjudged {
				t.Errorf("seq %d: %d sequences recorded, %d still unjudged", k, len(v.received), unjudged)
			}
		})
	}
	eng.Run()
	st := v.Stats()
	if st.BlocksOK != blocks || st.BlocksLost != 0 || st.PiecesSeen != 3*blocks || st.WrongData != 0 {
		t.Fatalf("stats %+v", st)
	}
	if timed != 3*blocks {
		t.Fatalf("%d timed deliveries, want %d", timed, 3*blocks)
	}
	if len(v.received) != 0 {
		t.Fatalf("%d sequences still recorded after the last verdict", len(v.received))
	}
}
