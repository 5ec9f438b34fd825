package main

import (
	"fmt"
	"strconv"
	"time"

	"tiger"
)

// chaosPoint is one row of the partition-duration sweep.
type chaosPoint struct {
	PartitionSec   float64
	Streams        int
	Converged      bool
	RecoverySec    float64 // last heal to convergence
	BlocksOK       int64
	BlocksLost     int64
	MirrorBlocks   int64
	DeathsRefuted  int64
	MirrorsRetired int64
	Rejoins        int64 // must stay 0: refutation heals without restart
	Violations     int
}

// runChaosSweep measures split-brain healing across partition durations:
// for each cut length it builds a fresh cluster, ramps it to half
// capacity, cuts cub 5 off from both its successors for that long,
// heals, and records recovery time and delivery loss. Each point is
// gated on its zero columns: no block lost, no invariant violated (a
// double service is one), and no rejoin — the paper restarts a machine
// to recover from false death, the refutation path heals without one.
func runChaosSweep(o tiger.Options, cuts []time.Duration) ([]chaosPoint, error) {
	o.ClientDropProb = 0
	out := make([]chaosPoint, len(cuts))
	err := forEachPoint(len(cuts), func(i int) error {
		c, err := tiger.New(o)
		if err != nil {
			return err
		}
		if err := c.RampTo(c.Capacity() / 2); err != nil {
			return err
		}
		c.RunFor(10 * time.Second)

		// Cut the victim off from every cub that holds its mirror pieces —
		// the next Decluster ring successors. They all monitor its
		// heartbeats, so on heal every piece holder refutes and retires
		// immediately instead of draining residual entries by serving them.
		const victim = 5
		width := max(o.Decluster, 2)
		sc := tiger.PartitionScenario(victim, width, len(c.Cubs), cuts[i], 30*time.Second, o.Seed)
		res, err := c.RunChaos(sc)
		if err != nil {
			return err
		}
		out[i] = chaosPoint{
			PartitionSec:   cuts[i].Seconds(),
			Streams:        c.Active(),
			Converged:      res.Converged,
			RecoverySec:    res.Recovery.Seconds(),
			BlocksOK:       res.BlocksOK,
			BlocksLost:     res.BlocksLost,
			MirrorBlocks:   res.MirrorBlocks,
			DeathsRefuted:  res.DeathsRefuted,
			MirrorsRetired: res.MirrorsRetired,
			Rejoins:        res.Rejoins,
			Violations:     len(res.Report.Violations),
		}
		if err := zeroColumns(res.BlocksLost, 0, 0, out[i].Violations); err != nil {
			return fmt.Errorf("cut %v: %w", cuts[i], err)
		}
		if res.Rejoins != 0 {
			return fmt.Errorf("cut %v: %d rejoins (refutation must heal without a restart)", cuts[i], res.Rejoins)
		}
		return nil
	})
	return out, err
}

// chaosSweep prints and gates the partition-duration sweep: cut a cub
// off from both of its ring successors (the cubs that monitor it and
// hold its mirror pieces) for increasing durations, heal, and measure
// how long the split-brain takes to clear. The paper's only recovery
// from false death is a machine restart; the refutation path retires the
// false death without one.
func chaosSweep(o tiger.Options) error {
	header("Chaos: partition-duration sweep (split-brain healing)",
		"false deaths are refuted on proof of life -- no restart, zero conflicts, bounded loss")
	cuts := []time.Duration{
		5 * time.Second, 10 * time.Second, 20 * time.Second,
		30 * time.Second, 60 * time.Second,
	}
	pts, err := runChaosSweep(o, cuts)
	fmt.Printf("%10s %8s %10s %9s %8s %8s %9s %8s %10s\n",
		"cut", "streams", "recovery", "refuted", "retired", "rejoins", "lost", "mirror", "violations")
	for _, p := range pts {
		if p.Streams == 0 {
			continue // point aborted before setup (its error is reported below)
		}
		rec := "never"
		if p.Converged {
			rec = fmt.Sprintf("%.1fs", p.RecoverySec)
		}
		fmt.Printf("%9.0fs %8d %10s %9d %8d %8d %9d %8d %10d\n",
			p.PartitionSec, p.Streams, rec, p.DeathsRefuted, p.MirrorsRetired,
			p.Rejoins, p.BlocksLost, p.MirrorBlocks, p.Violations)
	}
	if err != nil {
		return err
	}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			f1(p.PartitionSec), strconv.Itoa(p.Streams), f1(p.RecoverySec),
			strconv.FormatInt(p.BlocksLost, 10), strconv.FormatInt(p.DeathsRefuted, 10),
			strconv.FormatInt(p.Rejoins, 10), strconv.Itoa(p.Violations),
		})
	}
	if err := writeCSV("chaos",
		[]string{"partition_s", "streams", "recovery_s", "blocks_lost", "deaths_refuted", "rejoins", "violations"},
		rows); err != nil {
		return err
	}
	return writeJSON("chaos", pts)
}
