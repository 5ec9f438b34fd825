package clock

import "tiger/internal/sim"

// Releases is a queue of amounts that fall due at known instants: a
// block buffer to hand back, a share of a NIC to give up. Nothing in the
// protocol can observe such a release happening, so it needs no event:
// the owner queues it with Add and applies it by reading the clock —
// before the quantity is next changed or read it pops what is Due(now),
// each release with its own instant, in instant order (equal instants in
// the order they were added). One owner touches the queue at a time: its
// executor, or whoever holds the lock that guards it. The zero value is
// empty.
type Releases[T any] struct {
	q    []release[T]
	head int // q[:head] has been applied
}

type release[T any] struct {
	at  sim.Time
	amt T
}

// Add queues amt to fall due at instant at. Sends paced alike arrive in
// instant order and append; a shorter pace (a mirror piece among
// primaries) walks in from the back.
func (r *Releases[T]) Add(at sim.Time, amt T) {
	if r.head > 0 && r.head >= len(r.q)/2 {
		// Most of the slice is applied prefix: move the rest down, so the
		// backing array stays proportional to what is outstanding.
		r.q = r.q[:copy(r.q, r.q[r.head:])]
		r.head = 0
	}
	r.q = append(r.q, release[T]{at, amt})
	for i := len(r.q) - 1; i > r.head && r.q[i-1].at > at; i-- {
		r.q[i], r.q[i-1] = r.q[i-1], r.q[i]
	}
}

// Due reports whether the earliest release falls at or before now.
func (r *Releases[T]) Due(now sim.Time) bool {
	return r.head < len(r.q) && r.q[r.head].at <= now
}

// Len reports how many releases are queued.
func (r *Releases[T]) Len() int { return len(r.q) - r.head }

// Next reports the earliest queued instant; ok is false if none is queued.
func (r *Releases[T]) Next() (at sim.Time, ok bool) {
	if r.head == len(r.q) {
		return 0, false
	}
	return r.q[r.head].at, true
}

// Pop removes and returns the earliest release, with its instant.
func (r *Releases[T]) Pop() (at sim.Time, amt T) {
	rel := r.q[r.head]
	r.head++
	return rel.at, rel.amt
}
