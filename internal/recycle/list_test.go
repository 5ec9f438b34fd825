//go:build !norecycle

package recycle

import "testing"

func TestGetOnEmptyList(t *testing.T) {
	var l List[*int]
	if x, ok := l.Get(); ok || x != nil {
		t.Fatalf("empty list gave %v, %v", x, ok)
	}
}

func TestLastInFirstOut(t *testing.T) {
	var l List[*int]
	a, b, c := new(int), new(int), new(int)
	for _, x := range []*int{a, b, c} {
		l.Put(x, 0)
	}
	for _, want := range []*int{c, b, a} {
		if x, ok := l.Get(); !ok || x != want {
			t.Fatalf("got %p, %v, want %p", x, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("drained list gave a record")
	}
}

func TestBound(t *testing.T) {
	var l List[*int]
	first := new(int)
	l.Put(first, 2)
	l.Put(new(int), 2)
	l.Put(new(int), 2)
	if len(l) != 2 || l[0] != first {
		t.Fatalf("bound 2 kept %d records", len(l))
	}
	var unbounded List[*int]
	for range 1000 {
		unbounded.Put(new(int), 0)
	}
	if len(unbounded) != 1000 {
		t.Fatalf("bound 0 kept %d of 1000", len(unbounded))
	}
}

func TestWipe(t *testing.T) {
	var l List[*int]
	l.Put(new(int), 0)
	l.Wipe()
	if _, ok := l.Get(); ok || l != nil {
		t.Fatal("wiped list still holds records")
	}
}
