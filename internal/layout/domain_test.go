package layout

import (
	"reflect"
	"testing"

	"tiger/internal/msg"
)

// The failure-domain grouping and the mirror-exhaustion math are the
// foundation the degradation governor's park decisions rest on, so they
// are pinned here against hand-computed geometry.

func deadSet(cubs ...int) func(msg.NodeID) bool {
	m := make(map[msg.NodeID]bool, len(cubs))
	for _, c := range cubs {
		m[msg.NodeID(c)] = true
	}
	return func(z msg.NodeID) bool { return m[z] }
}

func TestDomainGrouping(t *testing.T) {
	c := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4, DomainSize: 4}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.NumDomains(); got != 4 {
		t.Fatalf("NumDomains = %d, want 4 (three full racks and a ragged tail)", got)
	}
	if got := c.DomainOfCub(5); got != 1 {
		t.Fatalf("DomainOfCub(5) = %d, want 1", got)
	}
	if got := c.CubsOfDomain(1); !reflect.DeepEqual(got, []msg.NodeID{4, 5, 6, 7}) {
		t.Fatalf("CubsOfDomain(1) = %v, want [4 5 6 7]", got)
	}
	// 14 is not a multiple of 4: the last domain holds only cubs 12, 13.
	if got := c.CubsOfDomain(3); !reflect.DeepEqual(got, []msg.NodeID{12, 13}) {
		t.Fatalf("CubsOfDomain(3) = %v, want the ragged tail [12 13]", got)
	}
	// Unset domain size means singleton domains.
	s := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	if got := s.NumDomains(); got != 14 {
		t.Fatalf("NumDomains with DomainSize 0 = %d, want 14", got)
	}
	if got := s.CubsOfDomain(9); !reflect.DeepEqual(got, []msg.NodeID{9}) {
		t.Fatalf("singleton CubsOfDomain(9) = %v", got)
	}
}

func TestUnservableGeometry(t *testing.T) {
	c := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4, DomainSize: 4}

	// Any single death is fully mirror-covered.
	for i := 0; i < c.Cubs; i++ {
		if got := c.UnservableCubs(deadSet(i)); len(got) != 0 {
			t.Fatalf("single death of cub %d exhausts %v", i, got)
		}
	}
	// A scattered pair outside each other's decluster span is covered too.
	if got := c.UnservableCubs(deadSet(2, 9)); len(got) != 0 {
		t.Fatalf("scattered pair exhausts %v", got)
	}
	// An adjacent pair breaches the first victim's span: cub 5's mirror
	// pieces live on cubs 6..9, and 6 is dead. Cub 6's own span (7..10)
	// is intact, so only cub 5 is unservable.
	if got := c.UnservableCubs(deadSet(5, 6)); !reflect.DeepEqual(got, []msg.NodeID{5}) {
		t.Fatalf("adjacent pair: unservable cubs %v, want [5]", got)
	}
	// Its disks are exactly cub 5's strided four.
	if got := c.UnservableDisks(deadSet(5, 6)); !reflect.DeepEqual(got, []int{5, 19, 33, 47}) {
		t.Fatalf("adjacent pair: unservable disks %v, want [5 19 33 47]", got)
	}
	// A whole domain (cubs 4..7): each of 4, 5, 6 has a dead successor
	// inside its span; 7's span (8..11) survives.
	if got := c.UnservableCubs(deadSet(4, 5, 6, 7)); !reflect.DeepEqual(got, []msg.NodeID{4, 5, 6}) {
		t.Fatalf("whole domain: unservable cubs %v, want [4 5 6]", got)
	}
	if got := c.UnservableDisks(deadSet(4, 5, 6, 7)); len(got) != 12 {
		t.Fatalf("whole domain: %d unservable disks, want 12", len(got))
	}
	// The wrap: killing the last and first cubs breaches the last cub's
	// span through the ring seam.
	if got := c.UnservableCubs(deadSet(13, 0)); !reflect.DeepEqual(got, []msg.NodeID{13}) {
		t.Fatalf("seam pair: unservable cubs %v, want [13]", got)
	}
}
