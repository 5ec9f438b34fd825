package core

import (
	"math/rand"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/msg"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// walkItem is the model's record of one entry put on a walk.
type walkItem struct {
	e             *entry
	due, inserted sim.Time
	mirror        bool
	reads         int
	crossed       bool // the forward cursor has passed it
}

// TestWalkAgainstSortedModel drives a cub's two walks with random
// operations — entries accepted in due order, behind the read cursor,
// behind the forward cursor, at a due time already held, already
// overdue, mirror pieces among primaries; drops of the head, the tail,
// either cursor and the middle; the clock advancing; the forward cursor
// taken to a moving horizon — and holds them to a stable sort by due
// time: the list is that order, every entry's read is started exactly
// once, at the later of its read-ahead instant and its acceptance, and
// before its send, unless its due time had passed when it was accepted;
// sends come out in list order at their due time; the
// forward cursor hands over every primary that crosses the horizon; no
// cursor is left on an entry that has gone; the timer is never set later
// than the next thing due.
func TestWalkAgainstSortedModel(t *testing.T) {
	cfg := indexTestConfig(t, 1, 2, 1, 1, 20000)
	cfg.Health.Disable = true
	eng := sim.New(1)
	c := NewCub(0, cfg, clock.Sim{Eng: eng}, nopTransport{}, &countingData{}, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	ahead := sim.Time(cfg.ReadAhead)
	file := cfg.Files[0]

	var order [2][]*walkItem // per drive, stable by due
	items := map[msg.InstanceID]*walkItem{}
	sent := 0
	sink := &trace.Sink{}
	sink.Subscribe(trace.KindSet(trace.DiskQueue, trace.Serve, trace.Miss), func(ev trace.Event) {
		it := items[ev.Instance]
		if it == nil {
			t.Fatalf("%v for instance %d, which is not on a walk", ev.Kind, ev.Instance)
		}
		if ev.Kind == trace.DiskQueue {
			if it.reads++; it.reads > 1 {
				t.Fatalf("instance %d read twice", ev.Instance)
			}
			if want := max(it.due-ahead, it.inserted); ev.At != want {
				t.Fatalf("instance %d (due %v, accepted %v) read at %v, want %v", ev.Instance, it.due, it.inserted, ev.At, want)
			}
			return
		}
		d := it.e.disk
		if order[d][0] != it {
			t.Fatalf("instance %d (due %v) sent before instance %d (due %v)",
				ev.Instance, it.due, order[d][0].e.vs.Instance, order[d][0].due)
		}
		wantReads := 1
		if it.due < it.inserted {
			wantReads = 0 // overdue when accepted: missed without troubling the drive
		}
		if it.reads != wantReads || ev.At != max(it.due, it.inserted) {
			t.Fatalf("instance %d (due %v, accepted %v) sent at %v after %d reads", ev.Instance, it.due, it.inserted, ev.At, it.reads)
		}
		order[d] = order[d][1:]
		delete(items, ev.Instance)
		sent++
	})
	c.SetSink(sink)

	seq := int32(0)
	insert := func(d int, due sim.Time, mirror bool) {
		seq++
		vs := msg.ViewerState{Viewer: msg.ViewerID(seq), Instance: msg.InstanceID(seq), Slot: seq,
			Due: int64(due), Bitrate: 2_000_000, OrigDisk: int32(d), Epoch: 1}
		key := entryKey{seq, -1, int64(due)}
		if mirror {
			vs.Mirror, vs.OrigDisk, key.part = true, int32(1-d), 0
		}
		// The copy of this kind that drive d holds, of the next two blocks.
		for vs.Block = 2 * seq; ; vs.Block++ {
			if on := cfg.Layout.PrimaryDisk(file, int(vs.Block)); !mirror && on == d {
				break
			}
			if on := cfg.Layout.SecondaryDisk(file, int(vs.Block), 0); mirror && on == d {
				break
			}
		}
		it := &walkItem{e: c.newEntry(key, vs, d), due: due, inserted: eng.Now(), mirror: mirror}
		items[vs.Instance] = it
		at := len(order[d])
		for at > 0 && order[d][at-1].due > due {
			at--
		}
		order[d] = append(order[d], nil)
		copy(order[d][at+1:], order[d][at:])
		order[d][at] = it
		c.scheduleEntry(it.e)
	}
	drop := func(it *walkItem) {
		d, now := it.e.disk, eng.Now()
		if readAt := max(it.due-ahead, it.inserted); it.inserted < now && readAt < now && it.reads != 1 {
			t.Fatalf("instance %d, read due at %v, dropped unread at %v", it.e.vs.Instance, readAt, now)
		}
		for i, o := range order[d] {
			if o == it {
				order[d] = append(order[d][:i], order[d][i+1:]...)
			}
		}
		delete(items, it.e.vs.Instance)
		c.dropEntryRelease(it.e.key)
	}
	check := func(step int) {
		for d := range order {
			w := &c.drives[d].walk
			var prev *entry
			i, beforeRead, beforeFwd := 0, w.unread() != nil, w.fwd != nil
			for e := w.head; e != nil; prev, e = e, e.dueNext {
				if i >= len(order[d]) || order[d][i].e != e || e.duePrev != prev || !e.live {
					t.Fatalf("step %d: drive %d: list position %d holds %+v, model has %d entries", step, d, i, e.key, len(order[d]))
				}
				beforeRead = beforeRead && e != w.read
				beforeFwd = beforeFwd && e != w.fwd
				if it := order[d][i]; (beforeRead || w.read == nil) && !e.readStarted {
					t.Fatalf("step %d: drive %d: unread %+v is behind the read cursor", step, d, e.key)
				} else if (beforeFwd || w.fwd == nil) && !it.mirror && !it.crossed {
					t.Fatalf("step %d: drive %d: primary %+v is behind the forward cursor, never handed over", step, d, e.key)
				}
				i++
			}
			if i != len(order[d]) || w.tail != prev {
				t.Fatalf("step %d: drive %d: list holds %d entries ending %p, model %d, tail %p", step, d, i, prev, len(order[d]), w.tail)
			}
			if beforeRead || beforeFwd {
				t.Fatalf("step %d: drive %d: a cursor points off the list (read %v, forward %v)", step, d, beforeRead, beforeFwd)
			}
			if w.armedFor > w.due() {
				t.Fatalf("step %d: drive %d: timer set for %v, next due %v", step, d, w.armedFor, w.due())
			}
		}
	}

	limit := int64(0)
	latest := sim.Time(0)
	dropped := map[string]int{}
	for step := 0; step < 6000; step++ {
		d, now := rng.Intn(2), eng.Now()
		w := &c.drives[d].walk
		switch op := rng.Intn(20); {
		case op < 8:
			var due sim.Time
			switch kind := rng.Intn(10); {
			case kind < 4: // in order; one in five ties the latest
				latest = max(latest, now.Add(2500*time.Millisecond)) + sim.Time(rng.Intn(5))*sim.Time(8*time.Millisecond)
				due = latest
			case kind < 6: // inside its read-ahead: behind the read cursor
				due = now + 1 + sim.Time(rng.Int63n(int64(ahead)))
			case kind < 8 && len(order[d]) > 0: // a due time already held
				due = order[d][rng.Intn(len(order[d]))].due
			case kind < 9: // anywhere in the window: behind the forward cursor, mostly
				due = now + 1 + sim.Time(rng.Int63n(int64(2500*time.Millisecond)))
			default: // already overdue
				due = now - sim.Time(rng.Intn(2))*sim.Time(time.Millisecond)
			}
			insert(d, due, rng.Intn(4) == 0)
		case op < 11 && len(order[d]) > 0:
			pos := []string{"head", "tail", "read cursor", "forward cursor", "middle"}[rng.Intn(5)]
			target := map[string]*entry{"head": w.head, "tail": w.tail, "read cursor": w.unread(), "forward cursor": w.fwd,
				"middle": order[d][rng.Intn(len(order[d]))].e}[pos]
			if target != nil {
				dropped[pos]++
				drop(items[target.vs.Instance])
			}
		case op < 17:
			eng.RunFor(time.Duration(rng.Intn(150)) * time.Millisecond)
		default:
			limit = max(limit, int64(now.Add(2*time.Second)))
			got := w.crossing(limit, nil)
			handed := map[*entry]bool{}
			for i, e := range got {
				if !e.live || e.key.due > limit || (i > 0 && got[i-1].key.due > e.key.due) {
					t.Fatalf("step %d: crossing to %v handed over %+v (live %v) at position %d", step, sim.Time(limit), e.key, e.live, i)
				}
				handed[e] = true
			}
			for _, it := range order[d] {
				if !it.mirror && !it.crossed && int64(it.due) <= limit {
					if !handed[it.e] {
						t.Fatalf("step %d: primary %+v crossed %v and was not handed over", step, it.e.key, sim.Time(limit))
					}
					it.crossed = true
				}
			}
		}
		check(step)
	}
	for pos, n := range map[string]int{"head": 1, "tail": 1, "read cursor": 1, "forward cursor": 1, "middle": 1} {
		if dropped[pos] < n {
			t.Errorf("no drop of the %s", pos)
		}
	}
	if sent < 1000 {
		t.Errorf("only %d sends", sent)
	}

	// Left alone the walks run dry, and leave nothing behind.
	eng.RunFor(time.Minute)
	check(-1)
	for d := range c.drives {
		if w := &c.drives[d].walk; w.head != nil || w.read != nil || w.fwd != nil || w.armedFor != never {
			t.Fatalf("drive %d: walk not empty at the end: %+v", d, w)
		}
	}
	if len(items) != 0 || c.view.len() != 0 || c.BufferedBytes() != 0 || eng.Pending() != 0 {
		t.Fatalf("%d entries unsent, %d in the view, %d bytes buffered, %d events pending",
			len(items), c.view.len(), c.BufferedBytes(), eng.Pending())
	}
	if st := c.Stats(); st.IndexMisses != 0 || st.BlocksSent+st.PiecesSent+st.ServerMisses != int64(sent) {
		t.Fatalf("stats %+v for %d sends", st, sent)
	}
}
