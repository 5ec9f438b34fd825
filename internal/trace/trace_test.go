package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"tiger/internal/msg"
	"tiger/internal/sim"
)

func ev(at int64, slot int32, k Kind) Event {
	return Event{At: sim.Time(at), Node: 1, Kind: k, Slot: slot, Instance: 7, Block: 3}
}

func TestRingRetainsChronological(t *testing.T) {
	r := NewRing(4)
	for i := int64(1); i <= 10; i++ {
		r.Add(ev(i, int32(i), Serve))
	}
	if r.Total() != 10 || r.Len() != 4 {
		t.Fatalf("total=%d len=%d", r.Total(), r.Len())
	}
	got := r.Events()
	for i, e := range got {
		if e.At != sim.Time(7+i) {
			t.Fatalf("event %d at %v; want chronological tail", i, e.At)
		}
	}
}

func TestRingUnderfilled(t *testing.T) {
	r := NewRing(8)
	r.Add(ev(1, 1, Insert))
	r.Add(ev(2, 2, Serve))
	got := r.Events()
	if len(got) != 2 || got[0].At != 1 || got[1].At != 2 {
		t.Fatalf("events %v", got)
	}
}

func TestSlotHistory(t *testing.T) {
	r := NewRing(16)
	r.Add(ev(1, 5, Insert))
	r.Add(ev(2, 6, Insert))
	r.Add(ev(3, 5, Serve))
	r.Add(ev(4, 5, Park))
	h := r.SlotHistory(5)
	if len(h) != 3 {
		t.Fatalf("slot history %v", h)
	}
	if h[0].Kind != Insert || h[1].Kind != Serve || h[2].Kind != Park {
		t.Fatalf("wrong order: %v", h)
	}
}

func TestDumpAndStrings(t *testing.T) {
	r := NewRing(4)
	r.Add(Event{At: sim.Time(1e9), Node: 3, Kind: Miss, Slot: 9, Instance: 2, Block: 4, Mirror: true})
	d := r.Dump()
	for _, want := range []string{"cub3", "miss", "slot=9", "mirror", "1 retained"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump lacks %q:\n%s", want, d)
		}
	}
	if Kind(99).String() == "" {
		t.Error("empty name for an unknown kind")
	}
}

// TestKindSerialisedByName pins what makes renumbering the kinds safe:
// every kind has its own name, and the JSONL export carries the name,
// never the number.
func TestKindSerialisedByName(t *testing.T) {
	r := NewRing(32)
	names := make(map[string]Kind)
	for k := Insert; k <= Unservable; k++ {
		name := k.String()
		if prev, dup := names[name]; dup || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name of its own: %q (also kind %d: %v)", k, name, prev, dup)
		}
		names[name] = k
		r.Add(Event{Kind: k, Slot: int32(k)})
	}
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")[1:] // skip the header
	if len(lines) != len(names) {
		t.Fatalf("%d event lines for %d kinds", len(lines), len(names))
	}
	for _, line := range lines {
		var je struct {
			Kind string `json:"kind"`
			Slot int32  `json:"slot"`
		}
		if err := json.Unmarshal([]byte(line), &je); err != nil {
			t.Fatal(err)
		}
		if k, ok := names[je.Kind]; !ok || int32(k) != je.Slot {
			t.Fatalf("line %s: kind %q does not name kind %d", line, je.Kind, je.Slot)
		}
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	r := NewRing(0)
	r.Add(ev(1, 1, Serve))
	r.Add(ev(2, 2, Serve))
	if r.Len() != 1 || r.Events()[0].At != 2 {
		t.Fatalf("clamped ring kept %d events", r.Len())
	}
}

func TestRingConcurrentAdd(t *testing.T) {
	// The rt runtime shares one ring across every cub executor; run
	// under -race this verifies Add/Events/Dump are safe in parallel.
	r := NewRing(64)
	var wg sync.WaitGroup
	const workers, each = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Add(Event{At: sim.Time(i), Node: msg.NodeID(w), Kind: Serve, Slot: int32(i)})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		_ = r.Events()
		_ = r.Len()
		_ = r.Dropped()
	}
	wg.Wait()
	if got := r.Total(); got != workers*each {
		t.Fatalf("total %d, want %d", got, workers*each)
	}
	if got := r.Dropped(); got != workers*each-64 {
		t.Fatalf("dropped %d, want %d", got, workers*each-64)
	}
	if r.Len() != 64 {
		t.Fatalf("retained %d, want 64", r.Len())
	}
}

func TestRingWriteJSONL(t *testing.T) {
	r := NewRing(8)
	r.Add(Event{At: sim.Time(1e9), Node: 3, Kind: Insert, Slot: 7, Instance: 42, Block: 9})
	r.Add(Event{At: sim.Time(2e9), Node: 1, Kind: Miss, Slot: 8, Instance: 43, Block: 10, Mirror: true})
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), b.String())
	}
	var hdr struct {
		Header   bool   `json:"header"`
		Total    uint64 `json:"total"`
		Dropped  uint64 `json:"dropped"`
		Retained int    `json:"retained"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if !hdr.Header || hdr.Total != 2 || hdr.Dropped != 0 || hdr.Retained != 2 {
		t.Fatalf("bad header: %+v", hdr)
	}
	lines = lines[1:]
	var e struct {
		AtNs   int64  `json:"at_ns"`
		Node   int32  `json:"node"`
		Kind   string `json:"kind"`
		Slot   int32  `json:"slot"`
		Inst   int64  `json:"inst"`
		Block  int32  `json:"block"`
		Mirror bool   `json:"mirror"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.AtNs != 1e9 || e.Node != 3 || e.Kind != "insert" || e.Slot != 7 || e.Inst != 42 || e.Block != 9 || e.Mirror {
		t.Fatalf("bad first line: %+v", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "miss" || !e.Mirror {
		t.Fatalf("bad second line: %+v", e)
	}
}
