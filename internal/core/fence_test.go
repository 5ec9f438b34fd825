package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tiger/internal/msg"
)

// TestFenceAgainstModel drives mark and marks with random token streams
// — 0, equal to the mark, below it, above it — and holds every stale
// verdict and reported prior to a plain high-water model.
func TestFenceAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(hi int32) int32 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return hi
		case 2:
			if hi == 0 {
				return 0
			}
			return rng.Int31n(hi)
		}
		return hi + 1 + rng.Int31n(3)
	}

	var m mark
	var hi int32
	for i := 0; i < 10000; i++ {
		tok := pick(hi)
		prior, stale := m.admit(tok)
		if prior != hi || stale != (tok < hi) {
			t.Fatalf("step %d: admit(%d) at mark %d = (%d, %v)", i, tok, hi, prior, stale)
		}
		hi = max(hi, tok)
	}

	type model struct {
		hi   int32
		v    int
		seen bool
	}
	ms := make(marks[int, int])
	want := map[int]model{}
	for i := 0; i < 10000; i++ {
		k := rng.Intn(5)
		w := want[k]
		tok := pick(w.hi)
		prior, stale := ms.admit(k, tok, i)
		if prior != w.hi || stale != (tok < w.hi) {
			t.Fatalf("step %d: key %d admit(%d) at mark %d = (%d, %v)", i, k, tok, w.hi, prior, stale)
		}
		if tok > w.hi || tok == w.hi && !w.seen {
			want[k] = model{hi: tok, v: i, seen: true}
		}
		if got := ms[k]; got.mark != want[k].hi || got.v != want[k].v {
			t.Fatalf("step %d: key %d holds (%d, %d), model (%d, %d)", i, k, got.mark, got.v, want[k].hi, want[k].v)
		}
	}
}

// TestFenceTableCoversEveryType walks the message kinds the way msg's
// TestEveryTypeInTable does: a kind added without deciding its fence
// fails here.
func TestFenceTableCoversEveryType(t *testing.T) {
	for k := msg.Type(1); !strings.HasPrefix(k.String(), "Type("); k++ {
		m, _, err := msg.Consume(append([]byte{byte(k)}, make([]byte, 1024)...), nil) // the kind's zero value
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if f, _, _ := fenceOf(0, m); f == noRow {
			t.Errorf("%v has no row in fenceOf", k)
		}
	}
}

// TestRoundLateReply pins the two rounds' one asymmetry: a rejoin
// installs a reply to its current epoch even after the handshake closed
// out, while a scavenge drops a second reply from a cub it has heard.
func TestRoundLateReply(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.run(5 * time.Second)
	cub := r.cubs[2]
	r.net.Fail(1) // cub 1 never answers: the handshake has to close out
	cub.Restart()
	r.run(r.cfg.DeadmanTimeout + time.Second)
	if n := cub.RecoveryTimes().Count(); n != 1 {
		t.Fatalf("handshake closed %d times, want 1", n)
	}

	vs := msg.ViewerState{Viewer: 9, Instance: 90, File: 0, Block: 5, Slot: 3,
		Due: int64(r.eng.Now()) + int64(3*time.Second), OrigDisk: 2}
	drops := cub.Stats().StaleEpochDrops
	cub.Deliver(1, &msg.RejoinReply{From: 1, ForEpoch: cub.Epoch() - 1, States: []msg.ViewerState{vs}})
	if d := cub.Stats().StaleEpochDrops - drops; d != 1 || cub.ViewSize() != 0 {
		t.Fatalf("reply to the previous incarnation: %d drops, view %d", d, cub.ViewSize())
	}
	cub.Deliver(1, &msg.RejoinReply{From: 1, ForEpoch: cub.Epoch(), States: []msg.ViewerState{vs}})
	if st := cub.Stats(); st.ViewTransferred != 1 || cub.ViewSize() != 1 {
		t.Fatalf("late current-epoch reply: %d transferred, view %d", st.ViewTransferred, cub.ViewSize())
	}

	r.ctl.Restart()
	rep := &msg.ScavengeReply{From: 3, ForEpoch: r.ctl.Epoch()}
	r.ctl.Deliver(3, rep)
	r.ctl.Deliver(3, rep)
	r.ctl.Deliver(4, &msg.ScavengeReply{From: 4, ForEpoch: r.ctl.Epoch() - 1})
	if n := r.ctl.Stats().ScavengeReplies; n != 1 || !r.ctl.Scavenging() {
		t.Fatalf("%d replies folded (scavenging %v), want 1 and still open", n, r.ctl.Scavenging())
	}
}

// TestTombstoneOutlivesRestart: a start re-delivered after a restart is
// tombstoned afresh, and the timer its pre-restart tombstone armed must
// not forget the new one early — 41 s after it, a third delivery is a
// duplicate.
func TestTombstoneOutlivesRestart(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	cub := r.cubs[0]
	sp := &msg.StartPlay{Viewer: 5, Instance: 500, File: 0, StartBlock: 0, Bitrate: 2_000_000, Primary: true}
	cub.Deliver(msg.Controller, sp)
	r.run(19 * time.Second)
	cub.Restart()
	cub.Deliver(msg.Controller, sp)
	if d := cub.Stats().StartsDup; d != 0 {
		t.Fatalf("start after the restart counted as a duplicate (%d)", d)
	}
	r.run(41*time.Second + 500*time.Millisecond)
	cub.Deliver(msg.Controller, sp)
	if d := cub.Stats().StartsDup; d != 1 {
		t.Fatalf("re-delivered start enqueued again: %d duplicates, want 1", d)
	}
}

// TestMalformedStateRefused: a peer's viewer state naming a disk or a
// mirror part outside its slot's generation is refused by the fence and
// counted, where it used to panic the cub (a negative disk broke the
// ring arithmetic, one past the end indexed a drive the cub lacks).
func TestMalformedStateRefused(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.run(5 * time.Second)
	cub := r.cubs[2]
	due := int64(r.eng.Now()) + int64(2*time.Second)
	good := msg.ViewerState{Viewer: 7, Instance: 77, File: 0, Block: 2, Slot: 3, Due: due, OrigDisk: 2, Epoch: 1}
	bad := func(f func(*msg.ViewerState)) msg.ViewerState {
		vs := good
		f(&vs)
		return vs
	}
	for name, m := range map[string]msg.Message{
		"negative disk":     ptr(bad(func(vs *msg.ViewerState) { vs.OrigDisk = -9 })),
		"disk past the end": ptr(bad(func(vs *msg.ViewerState) { vs.OrigDisk = 10 })),
		"mirror part":       ptr(bad(func(vs *msg.ViewerState) { vs.Mirror, vs.Part = true, 2 })),
		"negative part":     ptr(bad(func(vs *msg.ViewerState) { vs.Mirror, vs.Part = true, -1 })),
		"rejoin reply": &msg.RejoinReply{From: 1, ForEpoch: cub.Epoch(),
			States: []msg.ViewerState{good, bad(func(vs *msg.ViewerState) { vs.OrigDisk = 10 })}},
		"rejoin confirm": &msg.RejoinConfirm{From: 1, Epoch: 1,
			States: []msg.ViewerState{bad(func(vs *msg.ViewerState) { vs.OrigDisk = -1 })}},
	} {
		late, before := cub.Stats().StatesLate, cubState(cub)
		cub.Deliver(1, m)
		if d := cub.Stats().StatesLate - late; d != 1 {
			t.Errorf("%s: %d refusals counted, want 1", name, d)
		}
		if after := cubState(cub); after != before {
			t.Errorf("%s: refused message changed the cub:\n%s\n%s", name, before, after)
		}
	}
	cub.Deliver(1, &good)
	if cub.ViewSize() != 1 {
		t.Fatal("well-formed state not accepted")
	}
}

func ptr[T any](v T) *T { return &v }

// cubState renders what a refused message must not touch: the view, the
// start queues and the tombstones.
func cubState(c *Cub) string {
	var b strings.Builder
	for _, k := range c.view.sortedKeys(nil) {
		fmt.Fprintf(&b, "%v:%d ", k, c.view.get(k).vs.Instance)
	}
	dkeys := make([]int32, 0, len(c.queue))
	for k := range c.queue {
		dkeys = append(dkeys, k)
	}
	slices.Sort(dkeys)
	for _, k := range dkeys {
		for _, req := range c.queue[k] {
			fmt.Fprintf(&b, "q%d:%d ", k, req.sp.Instance)
		}
	}
	redundant := make(map[msg.InstanceID]bool, len(c.redundantStart))
	for _, req := range c.redundantStart {
		redundant[req.sp.Instance] = true
	}
	fmt.Fprint(&b, c.queueLen, redundant, c.desch.m, c.cancelledStart.m, c.enqueuedStart.m,
		c.parkedInst.m, c.parkedTickets.m)
	return b.String()
}

// FuzzCubDeliver feeds arbitrary bytes, decoded as a message from an
// arbitrary sender, to a cub of the test rig serving a stream: it must
// never panic, now or in the timers the message armed, and a message its
// fence refuses must leave the view, queues and tombstones as they were.
func FuzzCubDeliver(f *testing.F) {
	vs := msg.ViewerState{Viewer: 7, Instance: 77, File: 0, Block: 2, Slot: 3, Due: int64(8 * time.Second), OrigDisk: 2, Epoch: 1}
	mirror := vs
	mirror.Mirror, mirror.OrigDisk = true, 1
	for _, m := range []msg.Message{
		&vs,
		&mirror,
		&msg.ViewerState{OrigDisk: -9, Slot: 3, Due: int64(8 * time.Second)},
		&msg.Heartbeat{From: 1, Epoch: 2},
		&msg.Heartbeat{From: msg.Controller, Epoch: 3},
		&msg.Hello{From: 3, Epoch: 4},
		&msg.StartPlay{Viewer: 5, Instance: 500, File: 1, StartBlock: 3, Primary: true, Ctl: 1},
		&msg.StartAck{Instance: 500, Slot: 4},
		&msg.Deschedule{Viewer: 1, Instance: 1, Slot: 0},
		&msg.RejoinRequest{From: 1, Epoch: 2},
		&msg.RejoinReply{From: 1, ForEpoch: 1, States: []msg.ViewerState{vs}},
		&msg.RejoinConfirm{From: 3, Epoch: 1, States: []msg.ViewerState{vs}},
		&msg.MoveOrder{Fence: 1, SrcIdx: 0, DstCub: 3, Ctl: 1},
		&msg.MoveData{Fence: 1, DstIdx: 0, From: 3, Epoch: 1},
		// Drive indexes just outside the rig's one drive per cub.
		&msg.MoveOrder{Fence: 1, SrcIdx: -1, DstCub: 3, Ctl: 1},
		&msg.MoveOrder{Fence: 1, SrcIdx: 1, DstCub: 3, DstIdx: 1, Ctl: 1},
		&msg.MoveData{Fence: 1, DstIdx: -1, From: 3, Epoch: 1},
		&msg.MoveData{Fence: 1, DstIdx: 1, From: 3, Epoch: 1},
		&msg.CubDown{Fence: 1, Down: []msg.NodeID{1, 3}},
		&msg.Park{Viewer: 1, Instance: 1, Slot: 0, Fence: 1, Ctl: 1},
		&msg.Resume{OldInstance: 1, NewInstance: 2, Ctl: 1},
		&msg.ScavengeReq{Epoch: 2},
		&msg.Batch{Msgs: []msg.Message{&vs, &msg.Heartbeat{From: 1, Epoch: 1}}},
	} {
		f.Add(int8(1), msg.Encode(m))
	}
	f.Fuzz(func(t *testing.T, from int8, b []byte) {
		m, err := msg.Decode(b)
		if err != nil {
			return
		}
		o := defaultRigOptions()
		o.fileBlocks = 200
		r := newRig(t, o)
		r.play(1, 0, 0)
		r.run(6 * time.Second)
		cub := r.cubs[2]
		msgs := []msg.Message{m}
		if batch, ok := m.(*msg.Batch); ok {
			msgs = batch.Msgs // as Cub.Deliver unwraps it
		}
		for _, m := range msgs {
			before := cubState(cub)
			if !cub.admit(msg.NodeID(from), m) {
				if after := cubState(cub); after != before {
					t.Fatalf("refused %v changed the cub:\n%s\n%s", m.Type(), before, after)
				}
				continue
			}
			cub.dispatch(m)
		}
		r.run(3 * time.Second)
	})
}
