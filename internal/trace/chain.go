// Causal block chains: while the Ring answers "what happened on this
// cub recently", a ChainLog answers "what happened to THIS block" — the
// step sequence admit → insert → state → disk-queue → disk-read →
// (hedge) → serve → receipt, each stamped with sim-time and the deadline
// slack remaining when it fired. A log is a sink subscriber (Record) that
// keeps the steps of traced streams, so with no log subscribed the
// chain-only kinds are never built; the on path is bounded: at most
// maxChains block chains of maxHops hops each, oldest chain evicted first
// in strict insertion order (never map order) so traced runs replay
// byte-identically.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"tiger/internal/msg"
)

// ChainKinds are the steps a block's chain is made of.
var ChainKinds = KindSet(Admit, Insert, State, Deschedule, DiskQueue, DiskRead, Hedge, Serve, Miss, Receipt)

// Hop is one causal step as a chain returns it: the event the sink
// carried. Disk is -1 for hops not tied to a disk.
type Hop = Event

// JSONHop is the JSONL/report wire form of a Hop.
type JSONHop struct {
	AtNs    int64  `json:"at_ns"`
	Node    int32  `json:"node"`
	Kind    string `json:"kind"`
	SlackNs int64  `json:"slack_ns"`
	Slot    int32  `json:"slot"`
	Disk    int32  `json:"disk,omitempty"`
	Mirror  bool   `json:"mirror,omitempty"`
}

// JSON converts the hop to its wire form.
func (h Hop) JSON() JSONHop {
	return JSONHop{
		AtNs: int64(h.At), Node: int32(h.Node), Kind: h.Kind.String(),
		SlackNs: h.Slack(), Slot: h.Slot, Disk: h.Disk, Mirror: h.Mirror,
	}
}

// ChainKey identifies one block of one stream instance.
type ChainKey struct {
	Instance msg.InstanceID
	Block    int32
}

// Less orders keys by (instance, block).
func (k ChainKey) Less(o ChainKey) bool {
	if k.Instance != o.Instance {
		return k.Instance < o.Instance
	}
	return k.Block < o.Block
}

// SortHops orders a chain merged from several cubs' logs. Sim time is
// the primary key; (kind, node, disk) break the rare same-instant ties
// deterministically.
func SortHops(hops []Hop) {
	sort.Slice(hops, func(i, j int) bool {
		a, b := hops[i], hops[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Disk < b.Disk
	})
}

// chainSlot is one reusable chain cell; after eviction its hops slice
// keeps its capacity so steady-state recording stays allocation-free.
type chainSlot struct {
	key  ChainKey
	hops []Hop
}

// ChainLog is a bounded per-node store of causal chains. A nil *ChainLog
// is valid and empty, so readers need no separate enable flag.
type ChainLog struct {
	mu      sync.Mutex
	index   map[ChainKey]int
	slots   []chainSlot
	next    int // eviction cursor once slots is full
	maxHops int

	chainsEvicted atomic.Uint64
	hopsDropped   atomic.Uint64
}

// NewChainLog creates a log of up to maxChains chains of maxHops hops
// each. Bounds below 1 are clamped.
func NewChainLog(maxChains, maxHops int) *ChainLog {
	if maxChains < 1 {
		maxChains = 1
	}
	if maxHops < 1 {
		maxHops = 1
	}
	return &ChainLog{
		index:   make(map[ChainKey]int, maxChains),
		slots:   make([]chainSlot, 0, maxChains),
		maxHops: maxHops,
	}
}

// Record is the sink subscriber: it appends the step to its block's
// chain, creating the chain (and evicting the oldest, in insertion order)
// as needed. Only a traced step opens a chain; an untraced one is kept
// only if its block's chain is already open — which is how the receipt,
// whose delivery carries no trace flag, closes the chain it belongs to.
func (l *ChainLog) Record(h Hop) {
	key := ChainKey{Instance: h.Instance, Block: h.Block}
	l.mu.Lock()
	i, ok := l.index[key]
	if !ok {
		if !h.Traced {
			l.mu.Unlock()
			return
		}
		if len(l.slots) < cap(l.slots) {
			l.slots = append(l.slots, chainSlot{key: key, hops: make([]Hop, 0, l.maxHops)})
			i = len(l.slots) - 1
		} else {
			i = l.next
			l.next = (l.next + 1) % cap(l.slots)
			delete(l.index, l.slots[i].key)
			l.slots[i].key = key
			l.slots[i].hops = l.slots[i].hops[:0]
			l.chainsEvicted.Add(1)
		}
		l.index[key] = i
	}
	if len(l.slots[i].hops) >= l.maxHops {
		l.mu.Unlock()
		l.hopsDropped.Add(1)
		return
	}
	l.slots[i].hops = append(l.slots[i].hops, h)
	l.mu.Unlock()
}

// Chain returns a copy of the block's hops, or nil if the chain was
// never recorded (or already evicted). Safe on a nil receiver.
func (l *ChainLog) Chain(inst msg.InstanceID, block int32) []Hop {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.index[ChainKey{Instance: inst, Block: block}]
	if !ok {
		return nil
	}
	return append([]Hop(nil), l.slots[i].hops...)
}

// Keys returns the retained chain keys sorted by (instance, block).
func (l *ChainLog) Keys() []ChainKey {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]ChainKey, 0, len(l.index))
	for k := range l.index {
		out = append(out, k)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Len returns the number of retained chains.
func (l *ChainLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.index)
}

// ChainsEvicted returns how many whole chains overflow has evicted.
func (l *ChainLog) ChainsEvicted() uint64 {
	if l == nil {
		return 0
	}
	return l.chainsEvicted.Load()
}

// HopsDropped returns how many hops were discarded because their chain
// was already at maxHops.
func (l *ChainLog) HopsDropped() uint64 {
	if l == nil {
		return 0
	}
	return l.hopsDropped.Load()
}
