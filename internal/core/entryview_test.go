package core

import (
	"math/rand"
	"sort"
	"testing"
)

// TestViewAgainstMap holds the slot-chained view to a plain map under
// random put / get / del, concentrated on few slots so every same-slot
// shape occurs: a primary with each of its mirror pieces and a second
// visit of the slot, deleted from the head, the middle and the tail of
// the chain.
func TestViewAgainstMap(t *testing.T) {
	const decluster = 4
	rng := rand.New(rand.NewSource(1))
	v := newView()
	ref := make(map[entryKey]*entry)
	randKey := func() entryKey {
		return entryKey{
			slot: int32(rng.Intn(6)),
			part: int8(rng.Intn(decluster+1) - 1),
			due:  int64(1 + rng.Intn(2)), // two visits of the slot
		}
	}
	refKeys := func(pred func(*entry) bool) []entryKey {
		var ks []entryKey
		for k, e := range ref {
			if pred == nil || pred(e) {
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool {
			a, b := ks[i], ks[j]
			if a.due != b.due {
				return a.due < b.due
			}
			if a.slot != b.slot {
				return a.slot < b.slot
			}
			return a.part < b.part
		})
		return ks
	}
	sameKeys := func(got, want []entryKey) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	chainPos := map[string]int{}
	longest, longestSlotKeys := 0, 0
	for step := 0; step < 20000; step++ {
		k := randKey()
		switch op := rng.Intn(3); {
		case op == 0 && ref[k] == nil:
			e := &entry{key: k, disk: rng.Intn(3)}
			ref[k] = e
			v.put(e)
		case op == 1:
			if ref[k] != nil { // which link of its chain goes?
				n, at := 0, 0
				for e := v.slots[k.slot]; e != nil; e = e.next {
					if e.key == k {
						at = n
					}
					n++
				}
				switch {
				case n == 1:
					chainPos["only"]++
				case at == 0:
					chainPos["head"]++
				case at == n-1:
					chainPos["tail"]++
				default:
					chainPos["middle"]++
				}
				if n > longest {
					longest = n
				}
			}
			delete(ref, k)
			v.del(k)
		}
		if got := v.get(k); got != ref[k] {
			t.Fatalf("step %d: get(%+v) = %p, map holds %p", step, k, got, ref[k])
		}
		if v.len() != len(ref) {
			t.Fatalf("step %d: len %d, map holds %d", step, v.len(), len(ref))
		}
		for slot := int32(0); slot < 7; slot++ {
			want := false
			for rk := range ref {
				want = want || rk.slot == slot
			}
			if v.occupied(slot) != want {
				t.Fatalf("step %d: occupied(%d) = %v, want %v", step, slot, !want, want)
			}
		}
		if step%16 == 0 {
			if got, want := v.sortedKeys(nil), refKeys(nil); !sameKeys(got, want) {
				t.Fatalf("step %d: sortedKeys(nil) = %v, want %v", step, got, want)
			}
			pred := func(e *entry) bool { return e.key.part >= 0 && e.disk == 1 }
			if got, want := v.sortedKeys(pred), refKeys(pred); !sameKeys(got, want) {
				t.Fatalf("step %d: sortedKeys(pred) = %v, want %v", step, got, want)
			}
			// The slot form walks one chain: it equals sortedKeys
			// filtered to that slot.
			for slot := int32(0); slot < 7; slot++ {
				inSlot := func(e *entry) bool { return e.key.slot == slot && pred(e) }
				if got, want := v.slotKeys(nil, slot, pred), refKeys(inSlot); !sameKeys(got, want) {
					t.Fatalf("step %d: slotKeys(%d, pred) = %v, want %v", step, slot, got, want)
				}
				all := func(*entry) bool { return true }
				inSlot = func(e *entry) bool { return e.key.slot == slot }
				got, want := v.slotKeys(make([]entryKey, 2), slot, all), refKeys(inSlot)
				if !sameKeys(got, want) {
					t.Fatalf("step %d: slotKeys(%d) = %v, want %v", step, slot, got, want)
				}
				longestSlotKeys = max(longestSlotKeys, len(want))
			}
			seen := 0
			v.each(func(e *entry) {
				seen++
				if ref[e.key] != e {
					t.Fatalf("step %d: each visited %+v, not in the map", step, e.key)
				}
			})
			if seen != len(ref) {
				t.Fatalf("step %d: each visited %d entries, map holds %d", step, seen, len(ref))
			}
		}
	}
	for _, pos := range []string{"only", "head", "middle", "tail"} {
		if chainPos[pos] == 0 {
			t.Errorf("no deletion of a chain's %s entry", pos)
		}
	}
	if longest < decluster+2 {
		t.Errorf("longest chain %d, want a primary, %d pieces and a second visit", longest, decluster)
	}
	if longestSlotKeys < decluster+2 {
		t.Errorf("slotKeys compared on chains of at most %d, want %d", longestSlotKeys, decluster+2)
	}
	// Emptied, the view keeps nothing: memory follows the view, not the
	// slots ever seen.
	for k := range ref {
		v.del(k)
	}
	if v.len() != 0 || len(v.slots) != 0 {
		t.Fatalf("emptied view holds %d entries in %d slots", v.len(), len(v.slots))
	}
}
