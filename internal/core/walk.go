package core

import (
	"math"

	"tiger/internal/clock"
	"tiger/internal/sim"
)

// walk is one drive's share of the cub's view as the paper's cub holds
// it (§4): the entries the drive will serve — primaries and mirror
// pieces alike — on an intrusive list in due order, and the places the
// cub has reached in it. The head of the list is the next send. read is
// the first entry whose read has not been started; it falls due
// ReadAhead before its send, or when the entry was accepted if that is
// later — which is monotone along the list, since such an entry is due
// the instant it is accepted. fwd is the first entry the forward tick
// has not yet passed. One timer per drive is armed for the earlier of
// the next read and the next send.
//
// States arrive nearly in due order, so insertion walks in from the tail
// as clock.Releases.Add does and equal dues keep arrival order; a drop
// unlinks in place.
type walk struct {
	c          *Cub
	head, tail *entry
	read, fwd  *entry

	// armedFor is the instant timer is set for, never when none is. It is
	// what tells the one live callback from a stale one. Stop is exact
	// under both runtimes, so none is stale there; the guard stays for a
	// Clock whose Stop can lose to a callback already on its way, which
	// still runs after the walk has been re-armed for a later instant. It
	// must find nothing due and leave the live timer alone, or two timer
	// chains run from then on and every later instant is walked twice.
	timer    clock.Timer
	armedFor sim.Time
	onTimer  func() // w.fire, bound once
}

const never = sim.Time(math.MaxInt64)

// insert links e into the list by due time, and re-arms the timer if e
// falls due before the instant it is set for. An entry accepted inside
// its read-ahead window (a late insertion, a mirror piece, a rejoin
// transfer) lands among entries whose reads have been started: a cursor
// moves back to it, and skips what it has already done on its way
// forward again.
func (w *walk) insert(e *entry) {
	e.readAt = max(sim.Time(e.key.due)-sim.Time(w.c.cfg.ReadAhead), w.c.clk.Now())
	at := w.tail
	for at != nil && at.key.due > e.key.due {
		at = at.duePrev
	}
	e.duePrev = at
	if at == nil {
		e.dueNext, w.head = w.head, e
	} else {
		e.dueNext, at.dueNext = at.dueNext, e
	}
	if e.dueNext == nil {
		w.tail = e
	} else {
		e.dueNext.duePrev = e
	}
	if w.read == nil || e.key.due < w.read.key.due {
		w.read = e
	}
	if !e.vs.Mirror && (w.fwd == nil || e.key.due < w.fwd.key.due) {
		w.fwd = e
	}
	w.arm()
}

// unlink takes e out of the list, moving on a cursor that sat on it.
func (w *walk) unlink(e *entry) {
	if w.read == e {
		w.read = e.dueNext
	}
	if w.fwd == e {
		w.fwd = e.dueNext
	}
	if e.duePrev == nil {
		w.head = e.dueNext
	} else {
		e.duePrev.dueNext = e.dueNext
	}
	if e.dueNext == nil {
		w.tail = e.duePrev
	} else {
		e.dueNext.duePrev = e.duePrev
	}
	e.duePrev, e.dueNext = nil, nil
}

// unread returns the first entry whose read has not been started.
func (w *walk) unread() *entry {
	for w.read != nil && w.read.readStarted {
		w.read = w.read.dueNext
	}
	return w.read
}

// crossing appends the entries from the forward cursor up to those due
// at limit, and moves the cursor past them.
func (w *walk) crossing(limit int64, out []*entry) []*entry {
	for ; w.fwd != nil && w.fwd.key.due <= limit; w.fwd = w.fwd.dueNext {
		out = append(out, w.fwd)
	}
	return out
}

// due returns the instant of the walk's next read or send, never if
// the list holds neither.
func (w *walk) due() sim.Time {
	t := never
	if w.head != nil {
		t = sim.Time(w.head.key.due)
	}
	if r := w.unread(); r != nil {
		t = min(t, r.readAt)
	}
	return t
}

// arm makes sure the timer is set no later than the walk's next
// instant. One left set for an entry that has since gone fires idle and
// arms the next. Called from fire the handle it stops is spent — unless
// fire is running on a stale callback whose instant had come, and then
// it is the live timer, which left running would be a second chain.
func (w *walk) arm() {
	t := w.due()
	if t >= w.armedFor {
		return
	}
	w.timer.Stop()
	w.armedFor = t
	w.timer = w.c.clk.At(max(t, w.c.clk.Now()), w.onTimer)
}

// fire is the timer's callback: it does everything that fell due by the
// instant the timer was set for, reads before sends, and re-arms. Under
// the simulator that instant is now. A real timer runs late, and what
// fell due in between gets a callback of its own, as it did when every
// entry carried its timers: an executor event per due instant, however
// late. The list changes under the callback — a missed deadline can
// retire the whole drive, a hedged read inserts mirror pieces here or on
// a sibling drive — so each turn starts from the cursors again and
// nothing is remembered across a call.
func (w *walk) fire() {
	c := w.c
	upTo := w.armedFor
	if c.clk.Now() < upTo {
		return // stale: the live timer is still to come
	}
	w.armedFor = never
	for {
		if r := w.unread(); r != nil && r.readAt <= upTo {
			r.readStarted = true
			c.issueRead(r)
		} else if h := w.head; h != nil && sim.Time(h.key.due) <= upTo {
			c.service(h)
		} else {
			break
		}
	}
	w.arm()
}
