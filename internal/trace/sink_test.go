package trace

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSinkFanOutAnyOrder subscribes four consumers with different kind
// sets in every one of the 24 orders: each sees exactly the events of
// its kinds, in emission order, whatever was subscribed around it, and
// cancelling one leaves the other three attached.
func TestSinkFanOutAnyOrder(t *testing.T) {
	kinds := []Kinds{KindSet(Insert), AllKinds, KindSet(Serve), KindSet(Miss, Park)}
	events := []Event{
		{Kind: Insert, Slot: 1}, {Kind: Serve, Slot: 2}, {Kind: Miss, Slot: 3},
		{Kind: Serve, Slot: 4}, {Kind: Park, Slot: 5}, {Kind: Quarantine, Slot: 6},
	}
	want := make([][]Event, len(kinds))
	for i, ks := range kinds {
		for _, e := range events {
			if ks&(1<<e.Kind) != 0 {
				want[i] = append(want[i], e)
			}
		}
	}
	var permute func(order, rest []int)
	permute = func(order, rest []int) {
		if len(rest) > 0 {
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				permute(append(order[:len(order):len(order)], rest[i]), next)
			}
			return
		}
		var s Sink
		got := make([][]Event, len(kinds))
		cancel := make([]func(), len(kinds))
		for _, i := range order {
			cancel[i] = s.Subscribe(kinds[i], func(e Event) { got[i] = append(got[i], e) })
		}
		for _, e := range events {
			if s.Wants(e.Kind) {
				s.Emit(e)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: subscribers saw %v, want %v", order, got, want)
		}
		// Cancel the serve-only subscriber: the ring-like one (all
		// kinds) still hears serves, and nobody else changes.
		cancel[2]()
		for _, e := range events {
			if s.Wants(e.Kind) {
				s.Emit(e)
			}
		}
		for i := range kinds {
			n := 2 * len(want[i])
			if i == 2 {
				n = len(want[i])
			}
			if len(got[i]) != n {
				t.Fatalf("order %v, after cancelling subscriber 2: subscriber %d saw %d events, want %d", order, i, len(got[i]), n)
			}
		}
	}
	permute(nil, []int{0, 1, 2, 3})
}

// TestSinkWants is the emit sites' guard: a nil sink and an empty one
// want nothing; a sink wants exactly the union of its subscribers'
// kinds, and stops wanting a kind when its last subscriber leaves.
func TestSinkWants(t *testing.T) {
	var nilSink *Sink
	var s Sink
	if nilSink.Wants(Serve) || s.Wants(Serve) {
		t.Fatal("a sink without subscribers wants serves")
	}
	cancelInsert := s.Subscribe(KindSet(Insert), func(Event) {})
	cancelServe := s.Subscribe(KindSet(Serve, Insert), func(Event) {})
	state := func() string { return fmt.Sprint(s.Wants(Insert), s.Wants(Serve), s.Wants(Miss)) }
	if got := state(); got != "true true false" {
		t.Fatalf("wants insert/serve/miss = %s", got)
	}
	cancelServe()
	if got := state(); got != "true false false" {
		t.Fatalf("after the serve subscriber left: %s", got)
	}
	cancelInsert()
	cancelInsert() // cancelling twice is harmless
	if got := state(); got != "false false false" {
		t.Fatalf("after everyone left: %s", got)
	}
}
