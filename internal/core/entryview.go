package core

import (
	"cmp"
	"slices"
	"sort"
)

// entryKey identifies one schedule entry in a cub's view: slot number
// plus which copy (part == -1 for the primary, otherwise the mirror
// piece index).
type entryKey struct {
	slot int32
	part int8  // -1 primary, else mirror piece index
	due  int64 // the service event's due time: a slot is visited once
	// per block play time, and with small rings (cycle < MaxVStateLead)
	// a cub can legitimately hold entries for two successive visits of
	// the same slot by the same stream.
}

// visit names one service of a slot whichever copy serves it; rebuilt
// primary states are de-duplicated by it.
type visit struct {
	slot int32
	due  int64
}

// view is a cub's view of the schedule: the entries it holds, found by
// key. It is keyed by slot alone — an integer key the runtime hashes
// without calling out — and the entries of one slot hang off the map in
// a chain through entry.next: the slot's primary, its mirror pieces
// while a component is failed, and on a ring shorter than MaxVStateLead
// one more visit. That is one entry in steady state and never more than
// decluster + 2, so walking the chain costs less than hashing the whole
// key did. Memory is proportional to the view, never to the schedule.
type view struct {
	slots map[int32]*entry // slot → its entries, newest first
	n     int
}

func newView() view { return view{slots: make(map[int32]*entry)} }

// get returns the entry under k, or nil.
func (v *view) get(k entryKey) *entry {
	for e := v.slots[k.slot]; e != nil; e = e.next {
		if e.key == k {
			return e
		}
	}
	return nil
}

// put adds e, whose key must not be in the view.
func (v *view) put(e *entry) {
	e.next = v.slots[e.key.slot]
	v.slots[e.key.slot] = e
	v.n++
}

// del removes the entry under k, if there is one.
func (v *view) del(k entryKey) {
	head := v.slots[k.slot]
	for p, e := (*entry)(nil), head; e != nil; p, e = e, e.next {
		if e.key != k {
			continue
		}
		switch {
		case p != nil:
			p.next = e.next
		case e.next != nil:
			v.slots[k.slot] = e.next
		default:
			delete(v.slots, k.slot)
		}
		e.next = nil
		v.n--
		return
	}
}

// occupied reports whether the view holds anything in slot, any copy.
func (v *view) occupied(slot int32) bool { return v.slots[slot] != nil }

// len returns the number of entries in the view.
func (v *view) len() int { return v.n }

// each calls fn for every entry, in no particular order. fn must not
// change the view.
func (v *view) each(fn func(*entry)) {
	for _, e := range v.slots {
		for ; e != nil; e = e.next {
			fn(e)
		}
	}
}

// sortedKeys returns the keys of the entries pred accepts (all of them
// if pred is nil) ordered by (due, slot, part): the deterministic order
// in which anything that acts on several entries visits them. The view
// may change while the caller works through the keys.
func (v *view) sortedKeys(pred func(*entry) bool) []entryKey {
	var ks []entryKey
	if pred == nil {
		ks = make([]entryKey, 0, v.n)
	}
	v.each(func(e *entry) {
		if pred == nil || pred(e) {
			ks = append(ks, e.key)
		}
	})
	sort.Slice(ks, func(i, j int) bool { return fwdKeyLess(ks[i], ks[j]) })
	return ks
}

// slotKeys appends to ks[:0] the keys of slot's entries that pred
// accepts, in sortedKeys order, walking that slot's chain alone. A
// caller that passes a small array of its own allocates nothing.
func (v *view) slotKeys(ks []entryKey, slot int32, pred func(*entry) bool) []entryKey {
	ks = ks[:0]
	for e := v.slots[slot]; e != nil; e = e.next {
		if pred(e) {
			ks = append(ks, e.key)
		}
	}
	for i := 1; i < len(ks); i++ { // a chain is a handful of entries
		for j := i; j > 0 && fwdKeyLess(ks[j], ks[j-1]); j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}

// keysInOrder returns m's keys sorted: the order in which anything that
// acts on several entries of a map visits them.
func keysInOrder[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
