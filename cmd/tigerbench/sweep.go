package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tiger"
	"tiger/internal/core"
	"tiger/internal/obs/attr"
)

// The mechanisms every sweep in this command shares: the fan-out over
// independent points, the named arms of a gated fault sweep and their
// zero-column gate, the traced variant of a run, the before/after
// counter window, the drain-until-quiet loop and the option presets.

// forEachPoint runs fn(0..n-1), fanning out over at most -parallel
// workers (0 = GOMAXPROCS). Every point builds its own cluster around
// its own engine from copied options, shares nothing and writes only its
// own pre-sized output slot, so results — and output bytes — are the
// sequential loop's at any width. The returned error is the
// lowest-indexed one, the one a sequential loop would have reported.
func forEachPoint(n int, fn func(i int) error) error {
	par := *parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// arm is one named point of a gated fault sweep. run builds the arm's
// cluster from the sweep's options, injects its faults and checks its
// gates; a failed gate still returns the point as measured.
type arm[P any] struct {
	name string
	run  func(tiger.Options) (P, error)
}

// runArms runs the arms that names selects — every arm when it names
// none — over forEachPoint, and names the arm in a failure.
func runArms[P any](o tiger.Options, arms []arm[P], names []string) ([]P, error) {
	if len(names) > 0 {
		var kept []arm[P]
		var have []string
		for _, a := range arms {
			if !slices.Contains(have, a.name) {
				have = append(have, a.name)
			}
			if slices.Contains(names, a.name) {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("no arms match %v (have %v)", names, have)
		}
		arms = kept
	}
	out := make([]P, len(arms))
	err := forEachPoint(len(arms), func(i int) error {
		p, err := arms[i].run(o)
		out[i] = p
		if err != nil {
			return fmt.Errorf("arm %s: %w", arms[i].name, err)
		}
		return nil
	})
	return out, err
}

// zeroColumns is the gate every fault sweep applies to an arm: no block
// lost beyond lossCap, none served twice, no invariant violated.
func zeroColumns(lost, lossCap int64, doubles, violations int) error {
	if lost > lossCap {
		return fmt.Errorf("%d blocks lost (cap %d)", lost, lossCap)
	}
	if doubles != 0 {
		return fmt.Errorf("%d double services", doubles)
	}
	if violations != 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

// traced is what -attr adds to a run's result: the per-component slack
// attribution over the run's traced blocks and the flight recorder's
// dumps of the ones that missed. Embedded last in a result type, its
// fields stay last in the JSON, and without -attr they are absent.
type traced struct {
	Attribution *attr.Table        `json:"attribution,omitempty"`
	Flight      []tiger.FlightDump `json:"flight,omitempty"`
}

// startTrace turns on the protocol ring, causal tracing and the flight
// recorder when on. Call it on a new cluster, before any load.
func startTrace(c *tiger.Cluster, on bool) {
	if on {
		c.EnableTrace(4096)
		c.EnableCausalTrace(0, 0)
		c.EnableFlightRecorder(0)
	}
}

// collect fills t from a cluster startTrace turned tracing on for.
func (t *traced) collect(c *tiger.Cluster) {
	if !c.CausalTraceEnabled() {
		return
	}
	t.Attribution = attr.Build(c.CausalChains())
	if fr := c.FlightRecorder(); fr != nil {
		t.Flight = fr.Dumps()
	}
}

// render prints t's attribution table under title; name is the
// experiment whose BENCH file holds the flight dumps.
func (t traced) render(title, name string) {
	if t.Attribution == nil {
		return
	}
	fmt.Printf("\n%s — where the slack went:\n", title)
	t.Attribution.Render(os.Stdout)
	if n := len(t.Flight); n > 0 {
		fmt.Printf("flight recorder: %d failure dumps captured (see BENCH_%s.json)\n", n, name)
	}
}

// window is a cluster's cumulative delivery and protocol counters at one
// instant; delta gives what accumulated since, the numbers a sweep
// reports over its measured window.
type window struct {
	ok, lost, mirror int64
	violations       int
	cubs             core.CubStats
}

func snapshot(c *tiger.Cluster) window {
	w := window{violations: c.InvariantViolations(), cubs: c.TotalCubStats()}
	w.ok, w.lost, w.mirror = c.ViewerTotals()
	return w
}

// delta returns the counters accumulated since w.
func (w window) delta(c *tiger.Cluster) window {
	d := snapshot(c)
	d.ok -= w.ok
	d.lost -= w.lost
	d.mirror -= w.mirror
	d.violations -= w.violations
	dv, wv := reflect.ValueOf(&d.cubs).Elem(), reflect.ValueOf(w.cubs)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() - wv.Field(i).Int())
	}
	return d
}

// drainCap bounds the drain loop.
const drainCap = 3 * time.Minute

// drain runs c in half-second steps until the governor holds nothing
// parked, queued or unservable, the harness sees the cluster converged
// and at least active streams play, or until drainCap passes. Quiet must
// hold for six samples in a row: convergence can flicker while residual
// mirror entries from the crash-window hedges fall due, and one clean
// sample mid-drain must not stop the clock. It returns the seconds from
// its start to the first sample of the quiet run, or to the cap.
func drain(c *tiger.Cluster, h *tiger.ChaosHarness, active int) float64 {
	const step = 500 * time.Millisecond
	const quietNeed = 6
	start := c.Now()
	quiet := 0
	for c.Now().Sub(start) < drainCap {
		gs := c.Controller.GovernorStats()
		if gs.Parked == 0 && gs.QueueLen == 0 && gs.Unservable == 0 &&
			c.Active() >= active && h.Converged() {
			quiet++
			if quiet >= quietNeed {
				break
			}
		} else {
			quiet = 0
		}
		c.RunFor(step)
	}
	sec := c.Now().Sub(start).Seconds()
	if quiet >= quietNeed {
		sec -= float64(quiet-1) * step.Seconds()
	}
	return sec
}

// faultOnly sizes o at cubs cubs and zeroes the loss sources that are no
// fault's doing: client drops, ramp stagger, and the drives' ~2e-6
// slow-outlier blips (which reproduce the paper's §5 late blocks, but
// here would add an O(reads) floor of misses hiding the losses the
// sweeps gate on). File starts spread over every disk, and the
// simulation shards by size.
func faultOnly(o tiger.Options, cubs int) tiger.Options {
	o.Cubs = cubs
	if disks := cubs * o.DisksPerCub; o.NumFiles < disks {
		o.NumFiles = disks
	}
	o.ClientDropProb = 0
	o.RampSpacing = 0
	o.DiskParams.BlipProb = 0
	o.Shards = scaleShards(cubs)
	return o
}

// scaleShards picks the shard count for a cluster size: serial for
// small clusters (where coordinator windows cost more than they save),
// growing with size up to eight shards. A pure function of the cub
// count so the committed artifacts do not depend on the host machine;
// worker count never changes results (byte-identical guarantee).
func scaleShards(cubs int) int {
	return min(max(cubs/32, 1), 8)
}

// shortFiles gives o twelve 100-block files (~100 s plays), so an old
// striping generation drains by EOF on experiment timescales (DESIGN
// §13), admits to full capacity and staggers the ramp by 50 ms: a
// zero-spacing flash ramp phase-locks every stream's EOF, and a
// synchronized replay storm against the drain phase is a different
// experiment.
func shortFiles(o tiger.Options) tiger.Options {
	o.ClientDropProb = 0
	o.NumFiles = 12
	o.FileBlocks = 100
	o.AdmitLimit = 1.0
	o.RampSpacing = 50 * time.Millisecond
	return o
}
