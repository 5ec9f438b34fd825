package tiger

import (
	"sort"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

// Causal block tracing (DESIGN §14). EnableCausalTrace attaches one
// bounded ChainLog per cub plus one at the controller; from then on
// every admitted play is stamped traced (StartPlay.Trace = 1), the flag
// rides in every viewer state derived from it, and each cub the block
// passes through records typed hops — admit, insert, state, disk-queue,
// disk-read, hedge, send/miss, receipt — stamped with sim-time and
// remaining deadline slack. Recording is observation-only: no timers,
// no messages, no map-order dependence, so a traced run is byte-
// identical to an untraced one, and with tracing off the hot path pays
// a single nil test.

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
	c.ctlChain = trace.NewChainLog(maxChains, maxHops)
	c.Controller.SetChainLog(c.ctlChain)
	c.chains = make([]*trace.ChainLog, len(c.Cubs))
	for i, cub := range c.Cubs {
		c.chains[i] = trace.NewChainLog(maxChains, maxHops)
		cub.SetChainLog(c.chains[i])
	}
}

// CausalTraceEnabled reports whether chain recording is attached.
func (c *Cluster) CausalTraceEnabled() bool { return c.ctlChain != nil }

// attachChainLog gives a cub created mid-run (elastic growth) its own
// chain log, sized like the others. No-op when tracing is off.
func (c *Cluster) attachChainLog(cub interface{ SetChainLog(*trace.ChainLog) }) {
	if c.ctlChain == nil {
		return
	}
	l := trace.NewChainLog(c.chainMaxChains, c.chainMaxHops)
	c.chains = append(c.chains, l)
	cub.SetChainLog(l)
}

// CausalChain merges one block's hops from the controller's and every
// cub's logs into a single time-ordered chain. Returns nil when the
// block was never traced (or its chains have been evicted everywhere).
func (c *Cluster) CausalChain(inst msg.InstanceID, block int32) []trace.Hop {
	var hops []trace.Hop
	hops = append(hops, c.ctlChain.Chain(inst, block)...)
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
	add := func(ks []trace.ChainKey) {
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	add(c.ctlChain.Keys())
	for _, l := range c.chains {
		add(l.Keys())
	}
	// The keys are distinct, so the order does not depend on the sort's
	// stability.
	sort.Slice(out, func(i, j int) bool { return chainKeyLess(out[i], out[j]) })
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
	chainsEvicted = c.ctlChain.ChainsEvicted()
	hopsDropped = c.ctlChain.HopsDropped()
	for _, l := range c.chains {
		chainsEvicted += l.ChainsEvicted()
		hopsDropped += l.HopsDropped()
	}
	return
}

func chainKeyLess(a, b trace.ChainKey) bool {
	if a.Instance != b.Instance {
		return a.Instance < b.Instance
	}
	return a.Block < b.Block
}
