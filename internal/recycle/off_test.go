//go:build norecycle

package recycle

import (
	"math"
	"testing"
)

type record struct {
	id   uint64
	due  int64
	slot int32
	ok   bool
	pins []int
	next *record
	fire func()
	vs   struct{ Due int64 }
}

func TestNothingReused(t *testing.T) {
	var l List[*record]
	r := &record{id: 7, due: 5, slot: 3, ok: true, pins: []int{1}, next: new(record), fire: func() {}}
	r.vs.Due = 9
	l.Put(r, 0)
	if x, ok := l.Get(); ok || x != nil || len(l) != 0 {
		t.Fatalf("got %v, %v with %d kept", x, ok, len(l))
	}
	if r.id != 0 || r.due != math.MinInt64 || r.slot != math.MinInt32 || r.ok || r.pins != nil ||
		r.next != nil || r.fire != nil || r.vs.Due != math.MinInt64 {
		t.Fatalf("handed-back record not poisoned: %+v", *r)
	}
}

func TestPoisonSlice(t *testing.T) {
	s := make([]record, 1, 2)
	s[0].due, s[:2][1].slot = 4, 6
	if Reuse(s) {
		t.Fatal("a slice handed back may be reused")
	}
	if s[0].due != math.MinInt64 || s[:2][1].slot != math.MinInt32 {
		t.Fatalf("slice not poisoned to its capacity: %+v", s[:2])
	}
}
