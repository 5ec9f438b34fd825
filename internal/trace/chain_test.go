package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tiger/internal/msg"
	"tiger/internal/sim"
)

// hop is a traced step of block (inst, block) with the given slack.
func hop(inst msg.InstanceID, block int32, at int64, node msg.NodeID, k Kind, slack int64) Hop {
	return Hop{Instance: inst, Block: block, At: sim.Time(at), Node: node, Kind: k,
		Due: at + slack, Slot: 3, Disk: -1, Traced: true}
}

func TestChainLogRecordAndChain(t *testing.T) {
	l := NewChainLog(8, 16)
	l.Record(hop(7, 1, 10, 0, Insert, 4000))
	l.Record(hop(7, 1, 20, 0, DiskQueue, 3000))
	l.Record(hop(7, 1, 30, 0, Serve, 1000))
	l.Record(hop(7, 2, 40, 1, State, 5000))

	got := l.Chain(7, 1)
	if len(got) != 3 || got[0].Kind != Insert || got[2].Kind != Serve {
		t.Fatalf("chain %v", got)
	}
	if got[1].Slack() != 3000 {
		t.Fatalf("slack %d", got[1].Slack())
	}
	if l.Len() != 2 {
		t.Fatalf("len %d", l.Len())
	}
	if c := l.Chain(7, 99); c != nil {
		t.Fatalf("missing chain returned %v", c)
	}
	// The returned chain is a copy: appending hops later must not alias.
	l.Record(hop(7, 1, 35, 0, Receipt, 500))
	if len(got) != 3 {
		t.Fatal("Chain result aliased the live log")
	}
}

func TestChainLogEvictsInsertionOrder(t *testing.T) {
	l := NewChainLog(3, 4)
	for b := int32(1); b <= 5; b++ {
		l.Record(hop(1, b, int64(b), 0, Insert, 0))
	}
	// Blocks 1 and 2 are the oldest chains and must be gone; 3..5 retained.
	if l.Chain(1, 1) != nil || l.Chain(1, 2) != nil {
		t.Fatal("oldest chains survived eviction")
	}
	for b := int32(3); b <= 5; b++ {
		if l.Chain(1, b) == nil {
			t.Fatalf("block %d evicted out of order", b)
		}
	}
	if l.ChainsEvicted() != 2 {
		t.Fatalf("evicted %d, want 2", l.ChainsEvicted())
	}
	keys := l.Keys()
	if len(keys) != 3 || keys[0].Block != 3 || keys[2].Block != 5 {
		t.Fatalf("keys %v", keys)
	}
}

func TestChainLogHopCap(t *testing.T) {
	l := NewChainLog(2, 3)
	for i := int64(0); i < 10; i++ {
		l.Record(hop(1, 1, i, 0, State, 0))
	}
	if got := len(l.Chain(1, 1)); got != 3 {
		t.Fatalf("retained %d hops, want 3", got)
	}
	if l.HopsDropped() != 7 {
		t.Fatalf("dropped %d hops, want 7", l.HopsDropped())
	}
}

func TestChainLogNilSafe(t *testing.T) {
	var l *ChainLog // what a reader holds while tracing is off
	if l.Chain(1, 1) != nil || l.Keys() != nil || l.Len() != 0 ||
		l.ChainsEvicted() != 0 || l.HopsDropped() != 0 {
		t.Fatal("nil log not inert")
	}
}

func TestSortHopsDeterministic(t *testing.T) {
	hops := []Hop{
		{At: 20, Node: 2, Kind: Serve},
		{At: 10, Node: 1, Kind: State},
		{At: 20, Node: 1, Kind: DiskRead},
		{At: 10, Node: 0, Kind: State},
	}
	SortHops(hops)
	want := []Kind{State, State, DiskRead, Serve}
	for i, k := range want {
		if hops[i].Kind != k {
			t.Fatalf("position %d: %v, want %v (%v)", i, hops[i].Kind, k, hops)
		}
	}
	if hops[0].Node != 0 || hops[1].Node != 1 {
		t.Fatalf("same-instant same-kind hops not node-ordered: %v", hops)
	}
}

func TestHopJSONForm(t *testing.T) {
	h := Hop{At: sim.Time(2e9), Node: 3, Kind: DiskRead, Due: 2e9 + 1500, Slot: 9, Disk: 12, Mirror: true}
	b, err := json.Marshal(h.JSON())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"disk-read"`, `"slack_ns":1500`, `"disk":12`, `"mirror":true`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("json lacks %s: %s", want, b)
		}
	}
}

// TestChainRecordAllocBudget pins the tracing cost: steady-state
// recording into a warm log performs no allocations — all chain and hop
// storage is preallocated and recycled through eviction.
func TestChainRecordAllocBudget(t *testing.T) {
	l := NewChainLog(4, 4)
	// Warm every slot so eviction recycling is the steady state.
	for b := int32(0); b < 8; b++ {
		l.Record(Hop{Instance: 1, Block: b, Kind: Insert, Traced: true})
	}
	b := int32(100)
	if a := testing.AllocsPerRun(500, func() {
		l.Record(Hop{Instance: 1, Block: b, Kind: Insert, Traced: true}) // new chain: recycled slot
		l.Record(Hop{Instance: 1, Block: b, Kind: Serve})                // existing chain: append in place
		b++
	}); a != 0 {
		t.Errorf("steady-state Record allocated %.1f/op, want 0", a)
	}
}

// TestChainOpensOnlyForTracedSteps pins the store's admission rule: an
// untraced step never opens a chain (an untraced stream costs a traced
// run nothing), but joins one a traced step opened — the receipt, whose
// delivery carries no flag, closes its block's chain that way.
func TestChainOpensOnlyForTracedSteps(t *testing.T) {
	l := NewChainLog(4, 4)
	l.Record(Hop{Instance: 1, Block: 1, Kind: Receipt})
	l.Record(Hop{Instance: 1, Block: 1, Kind: Serve})
	if l.Len() != 0 {
		t.Fatalf("untraced steps opened %d chains", l.Len())
	}
	l.Record(Hop{Instance: 1, Block: 1, Kind: Serve, Traced: true})
	l.Record(Hop{Instance: 1, Block: 1, Kind: Receipt})
	if got := l.Chain(1, 1); len(got) != 2 || got[1].Kind != Receipt {
		t.Fatalf("chain %v, want serve then receipt", got)
	}
}

func TestRingJSONLHeaderReportsDrops(t *testing.T) {
	r := NewRing(2)
	for i := int64(1); i <= 5; i++ {
		r.Add(Event{At: sim.Time(i), Kind: Serve})
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	var hdr struct {
		Header   bool   `json:"header"`
		Total    uint64 `json:"total"`
		Dropped  uint64 `json:"dropped"`
		Retained int    `json:"retained"`
	}
	if err := json.Unmarshal([]byte(first), &hdr); err != nil {
		t.Fatal(err)
	}
	if !hdr.Header || hdr.Total != 5 || hdr.Dropped != 3 || hdr.Retained != 2 {
		t.Fatalf("header %+v, want total=5 dropped=3 retained=2", hdr)
	}
}
