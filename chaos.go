package tiger

import (
	"fmt"
	"sync"
	"time"

	"tiger/internal/chaos"
	"tiger/internal/disk"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
	"tiger/internal/trace"
)

// This file adapts a Cluster to the chaos scenario engine
// (internal/chaos): the System shim the runner drives, the standard
// invariant set checked every tick, and one scenario run under it.

// chaosSystem adapts *Cluster to chaos.System: the cluster's own
// methods, plus those that name a drive by cub-local index, which keeps
// schedules valid across layout changes — including mid-run restripes
// that renumber every disk.
type chaosSystem struct{ *Cluster }

func (s chaosSystem) NumCubs() int                 { return len(s.Cubs) }
func (s chaosSystem) Net() *netsim.Network         { return s.Cluster.Net }
func (s chaosSystem) Disk(cub, idx int) *disk.Disk { return s.Cubs[cub].Disk(idx) }
func (s chaosSystem) FailDisk(cub, idx int)        { s.Cubs[cub].FailDisk(idx) }

// serveKey identifies one block or mirror-piece service. Exactly one cub
// may perform each: the slot owner for primaries, the covering disk's
// cub for mirror pieces. Two cubs serving the same key is the
// double-service the distributed schedule must never produce.
type serveKey struct {
	inst   msg.InstanceID
	seq    int32
	mirror bool
	part   int8
}

type serveRec struct {
	by msg.NodeID
	at sim.Time
}

// servePruneAfter bounds the serve oracle's memory: duplicate services
// of one key are near-simultaneous (a mirror piece is due within one
// block-play of its primary), so records older than this cannot witness
// a violation any more.
const servePruneAfter = 10 * time.Second

// ChaosHarness attaches the chaos invariant set to a cluster. It
// subscribes a double-service oracle to the cubs' serve events (beside
// the built-in slot-conflict oracle, the trace ring and the flight
// recorder), and derives the runner's Invariants from the cluster's
// counters, baselined at harness creation so earlier history is not
// re-reported. Close unsubscribes it.
type ChaosHarness struct {
	c *Cluster

	// mu guards the serve oracle's state: under sim.Sharded serve events
	// arrive from concurrent shard goroutines. Single-engine runs pay one
	// uncontended lock per serve.
	mu         sync.Mutex
	serves     map[serveKey]serveRec
	doubles    int
	lastDouble string
	reported   int // doubles already surfaced as violations

	baseSlot  int   // oracle violations at harness creation
	baseState int64 // state conflicts at harness creation

	unsubscribe func()
}

// NewChaosHarness subscribes the harness to the cluster's event sink.
func NewChaosHarness(c *Cluster) *ChaosHarness {
	h := &ChaosHarness{
		c:         c,
		serves:    make(map[serveKey]serveRec),
		baseSlot:  c.InvariantViolations(),
		baseState: c.TotalCubStats().Conflicts,
	}
	h.unsubscribe = c.sink.Subscribe(trace.KindSet(trace.Serve), h.onServe)
	return h
}

// Close detaches the serve oracle; the other subscribers stay.
func (h *ChaosHarness) Close() { h.unsubscribe() }

func (h *ChaosHarness) onServe(e trace.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cub := e.Node
	k := serveKey{inst: e.Instance, seq: e.PlaySeq, mirror: e.Mirror, part: e.Part}
	if prev, ok := h.serves[k]; ok && prev.by != cub {
		h.doubles++
		h.lastDouble = fmt.Sprintf("instance %d playseq %d (mirror=%v part %d) served by cub %v and cub %v",
			e.Instance, e.PlaySeq, e.Mirror, e.Part, prev.by, cub)
		if fr := h.c.flight; fr != nil {
			fr.doubleServe(e, h.lastDouble)
		}
		return
	}
	// Stamp the record with the state's due time, not the cluster clock:
	// under sim.Sharded this runs on shard goroutines, where reading
	// another shard's engine clock would race. Due is within one state
	// lead of now, which is far inside the prune horizon.
	h.serves[k] = serveRec{by: cub, at: sim.Time(e.Due)}
}

func (h *ChaosHarness) pruneServes() {
	h.mu.Lock()
	defer h.mu.Unlock()
	cut := h.c.Now().Add(-servePruneAfter)
	for k, r := range h.serves {
		if r.at < cut {
			delete(h.serves, k)
		}
	}
}

// DoubleServes returns how many duplicate services the oracle observed.
func (h *ChaosHarness) DoubleServes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.doubles
}

// Converged reports whether the cluster has returned to a clean steady
// state: no cub believes any peer dead, and no mirror load covers a cub
// whose own disks are all healthy. Cubs with genuinely failed disks are
// excluded — their mirror load is the permanent failed-mode coverage the
// paper's declustering is for, not residue to drain.
func (h *ChaosHarness) Converged() bool {
	for i, cub := range h.c.Cubs {
		if cub.BelievedDead() != 0 {
			return false
		}
		if cub.FailedDisks() == 0 && h.c.MirrorLoadFor(i) != 0 {
			return false
		}
	}
	return true
}

// Invariants returns the standard invariant set, baselined now. The
// counter-backed checks (slot conflicts, state conflicts, double
// service) report each new event once; the quiet-only checks (mirror
// conservation, convergence) engage once no fault is outstanding and
// the scenario's settle period has elapsed.
func (h *ChaosHarness) Invariants() []chaos.Invariant {
	c := h.c
	return []chaos.Invariant{
		{Name: "slot-conflict", Check: func(bool) error {
			if v := c.InvariantViolations(); v > h.baseSlot {
				n := v - h.baseSlot
				h.baseSlot = v
				return fmt.Errorf("%d new slot double-occupancies", n)
			}
			return nil
		}},
		{Name: "state-conflict", Check: func(bool) error {
			if v := c.TotalCubStats().Conflicts; v > h.baseState {
				n := v - h.baseState
				h.baseState = v
				return fmt.Errorf("%d new viewer-state conflicts", n)
			}
			return nil
		}},
		{Name: "double-service", Check: func(bool) error {
			h.pruneServes()
			if h.doubles > h.reported {
				n := h.doubles - h.reported
				h.reported = h.doubles
				return fmt.Errorf("%d double services (last: %s)", n, h.lastDouble)
			}
			return nil
		}},
		{Name: "mirror-conservation", Check: func(quiet bool) error {
			if !quiet {
				return nil
			}
			for i, cub := range c.Cubs {
				if cub.FailedDisks() == 0 {
					if ml := c.MirrorLoadFor(i); ml != 0 {
						return fmt.Errorf("%d mirror entries cover healthy cub %d at rest", ml, i)
					}
				}
			}
			return nil
		}},
		{Name: "convergence", Check: func(quiet bool) error {
			if !quiet {
				return nil
			}
			for i, cub := range c.Cubs {
				if n := cub.BelievedDead(); n != 0 {
					return fmt.Errorf("cub %d still believes %d peers dead at rest", i, n)
				}
			}
			return nil
		}},
	}
}

// Runner wires a chaos runner for sc to the harness's cluster: its
// invariant set, and the flight recorder's dump the moment an invariant
// fires, while the implicated chains are still in the bounded buffers.
//
// When sc leaves Settle zero, Runner derives it from the cluster's
// protocol timings rather than chaos.DefaultSettle: a covering cub that
// never believed the victim dead has no death to refute, so its mirror
// pieces drain only by being served — the last one was created just
// before refutation from a state up to MaxVStateLead (plus a few block
// plays of mirror-creation walk-back) ahead of the clock. The quiet-state
// invariants must not engage before that horizon passes.
func (h *ChaosHarness) Runner(sc chaos.Scenario) (*chaos.Runner, error) {
	c := h.c
	if sc.Settle == 0 {
		sc.Settle = c.Cfg.DeadmanTimeout + c.Cfg.MaxVStateLead + 5*c.Cfg.Sched.BlockPlay
	}
	r, err := chaos.NewRunner(chaosSystem{c}, sc, h.Invariants())
	if err != nil {
		return nil, err
	}
	if fr := c.flight; fr != nil {
		r.OnViolation = func(v chaos.Violation) { fr.violation(v.Invariant, v.Err) }
	}
	return r, nil
}

// ChaosOutcome is the result of one scenario run: the runner's report
// plus the cluster's delivery and protocol-counter deltas over the run.
type ChaosOutcome struct {
	Report *chaos.Report

	// Viewer delivery deltas across the run.
	BlocksOK     int64
	BlocksLost   int64
	MirrorBlocks int64

	// Protocol counter deltas across the run.
	DeathsRefuted  int64
	MirrorsRetired int64
	Rejoins        int64
	StartsDup      int64
	StatesDup      int64

	// Converged is true when the cluster returned to a clean steady
	// state (no death beliefs, mirror load drained) after the last
	// scheduled step; Recovery is how long that took, at invariant-tick
	// granularity.
	Converged bool
	Recovery  time.Duration

	// Flight holds the failure flight recorder's dumps captured during
	// the run — one causal chain plus event window per oracle trigger.
	// Empty unless EnableFlightRecorder was called before the run.
	Flight []FlightDump
}

// RunChaos drives this cluster through one scenario under the standard
// invariant set (ChaosHarness.Runner). The cluster keeps running streams
// throughout; ramp load before calling. Recovery is measured from the
// scenario's last step (normally the final heal) to the first tick at
// which the system has converged.
func (c *Cluster) RunChaos(sc chaos.Scenario) (*ChaosOutcome, error) {
	h := NewChaosHarness(c)
	defer h.Close()
	r, err := h.Runner(sc)
	if err != nil {
		return nil, err
	}

	var lastStep time.Duration
	for _, st := range sc.Steps {
		if st.At > lastStep {
			lastStep = st.At
		}
	}
	healAt := c.Now().Add(lastStep)
	conv := sim.Time(-1)
	r.OnTick = func(now sim.Time, quiet bool) {
		if conv < 0 && now >= healAt && h.Converged() {
			conv = now
		}
	}

	ok0, lost0, mir0 := c.ViewerTotals()
	cs0 := c.TotalCubStats()
	rep, err := r.Run()
	if err != nil {
		return nil, err
	}
	ok1, lost1, mir1 := c.ViewerTotals()
	cs1 := c.TotalCubStats()

	out := &ChaosOutcome{
		Report:         rep,
		BlocksOK:       ok1 - ok0,
		BlocksLost:     lost1 - lost0,
		MirrorBlocks:   mir1 - mir0,
		DeathsRefuted:  cs1.DeathsRefuted - cs0.DeathsRefuted,
		MirrorsRetired: cs1.MirrorsRetired - cs0.MirrorsRetired,
		Rejoins:        cs1.Rejoins - cs0.Rejoins,
		StartsDup:      cs1.StartsDup - cs0.StartsDup,
		StatesDup:      cs1.StatesDup - cs0.StatesDup,
		Converged:      conv >= 0,
	}
	if out.Converged {
		out.Recovery = conv.Sub(healAt)
	}
	if fr := c.flight; fr != nil {
		out.Flight = fr.Dumps()
	}
	return out, nil
}

// PartitionScenario cuts the victim cub's links to its next width ring
// successors — its deadman monitors and mirror neighbours — for cut
// long, then heals them and runs tail of quiet time. With width 2 the
// victim loses both cubs that watch it: they declare it dead and build
// mirror load while it keeps serving, the canonical false-death
// split-brain the healing rule exists for.
func PartitionScenario(victim, width, numCubs int, cut, tail time.Duration, seed int64) chaos.Scenario {
	const lead = 2 * time.Second
	var steps []chaos.Step
	for k := 1; k <= width; k++ {
		peer := (victim + k) % numCubs
		steps = append(steps,
			chaos.Step{At: lead, Kind: chaos.CutLink, A: victim, B: peer},
			chaos.Step{At: lead + cut, Kind: chaos.HealLink, A: victim, B: peer},
		)
	}
	return chaos.Scenario{
		Name:     fmt.Sprintf("partition-%dx-%s", width, cut),
		Seed:     seed,
		Duration: lead + cut + tail,
		Steps:    steps,
	}
}
