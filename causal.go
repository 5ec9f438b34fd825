package tiger

import (
	"sort"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

// Causal block tracing (DESIGN §9). EnableCausalTrace subscribes one
// bounded ChainLog per cub plus one for the controller to the cluster's
// step sink; from then on every admitted play is stamped traced
// (StartPlay.Trace = 1), the flag rides in every viewer state derived
// from it, and each node the block passes through reports the
// chain-only steps too — admit, state, disk-queue, disk-read, receipt
// beside the insert, hedge, serve and miss everyone sees — stamped with
// sim-time and remaining deadline slack. Recording is observation-only:
// no timers, no messages, no map-order dependence, so a traced run is
// byte-identical to an untraced one, and with tracing off a chain-only
// step costs one mask test.

// DefaultChainBounds are the per-cub chain-log bounds EnableCausalTrace
// uses when given non-positive values: enough chains to hold every
// in-flight block of a full schedule, hops bounded well above the
// longest legitimate chain (admit + insert + state + queue + read +
// hedge + send + receipt, with mirror pieces multiplying the middle).
const (
	DefaultMaxChains = 4096
	DefaultMaxHops   = 64
)

// EnableCausalTrace attaches causal chain recording to every cub and
// the controller. maxChains and maxHops bound each node's log;
// non-positive values take the defaults. Call once, before starting
// load.
func (c *Cluster) EnableCausalTrace(maxChains, maxHops int) {
	if maxChains <= 0 {
		maxChains = DefaultMaxChains
	}
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	c.chainMaxChains, c.chainMaxHops = maxChains, maxHops
	// One store per node — msg.Controller is node -1, so the controller's
	// comes first — so eviction order does not depend on how the nodes'
	// steps interleave across shards.
	c.chains = make([]*trace.ChainLog, 1+len(c.Cubs))
	for i := range c.chains {
		c.chains[i] = trace.NewChainLog(maxChains, maxHops)
	}
	c.sink.Subscribe(trace.ChainKinds, func(e trace.Event) { c.chains[1+e.Node].Record(e) })
}

// CausalTraceEnabled reports whether chain recording is attached.
func (c *Cluster) CausalTraceEnabled() bool { return c.chains != nil }

// CausalChain merges one block's hops from the controller's and every
// cub's logs into a single time-ordered chain. Returns nil when the
// block was never traced (or its chains have been evicted everywhere).
func (c *Cluster) CausalChain(inst msg.InstanceID, block int32) []trace.Hop {
	var hops []trace.Hop
	for _, l := range c.chains {
		hops = append(hops, l.Chain(inst, block)...)
	}
	trace.SortHops(hops)
	return hops
}

// CausalKeys returns the union of retained chain keys across all logs,
// sorted by (instance, block).
func (c *Cluster) CausalKeys() []trace.ChainKey {
	seen := make(map[trace.ChainKey]bool)
	var out []trace.ChainKey
	for _, l := range c.chains {
		for _, k := range l.Keys() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	// The keys are distinct, so the order does not depend on the sort's
	// stability.
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// CausalChains returns every retained chain, merged and time-ordered,
// keyed in (instance, block) order — the attribution engine's input.
func (c *Cluster) CausalChains() [][]trace.Hop {
	keys := c.CausalKeys()
	out := make([][]trace.Hop, 0, len(keys))
	for _, k := range keys {
		if ch := c.CausalChain(k.Instance, k.Block); len(ch) > 0 {
			out = append(out, ch)
		}
	}
	return out
}

// ChainDrops sums eviction and overflow counters across every log: how
// much causal history the bounded buffers shed.
func (c *Cluster) ChainDrops() (chainsEvicted, hopsDropped uint64) {
	for _, l := range c.chains {
		chainsEvicted += l.ChainsEvicted()
		hopsDropped += l.HopsDropped()
	}
	return
}
