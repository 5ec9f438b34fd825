package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tiger"
)

// grayOptions is the gray-failure test shape: big enough that one
// fail-slow disk saturates and streams genuinely lose blocks, small
// enough to sweep quickly.
func grayOptions() tiger.Options {
	o := tiger.DefaultOptions()
	o.Cubs = 6
	o.DisksPerCub = 2
	o.Decluster = 2
	o.NumFiles = 8
	o.FileBlocks = 600
	o.ClientDropProb = 0
	return o
}

// The acceptance bar: with one disk at 3× nominal service time, the
// monitor must hold loss under 0.5% of blocks while the unmitigated arm
// does measurably worse, quarantine the drive within a bounded window,
// and never double-serve a block.
func TestGrayFailAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	pts, err := runGrayFailSweep(grayOptions(), 0, []float64{3}, 45*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points for 1 factor", len(pts))
	}
	hedged, bare := pts[0], pts[1]
	for _, p := range pts {
		t.Logf("factor %.1f hedge=%v: ok=%d lost=%d (%.3f%%) mirror=%d hedges=%d/%d/%d misses=%d suspected=%v(%.1fs) quarantined=%v(%.1fs) doubles=%d",
			p.Factor, p.Hedge, p.BlocksOK, p.BlocksLost, p.LossPct, p.MirrorBlocks,
			p.HedgesIssued, p.HedgeLocalWins, p.HedgeMirrorWins, p.ServerMisses,
			p.Suspected, p.TimeToSuspectSec, p.Quarantined, p.TimeToQuarantineSec, p.DoubleServes)
	}
	if !hedged.Hedge || bare.Hedge {
		t.Fatalf("arm order wrong: %+v / %+v", hedged.Hedge, bare.Hedge)
	}
	if hedged.LossPct >= 0.5 {
		t.Errorf("hedged loss %.3f%%, want < 0.5%%", hedged.LossPct)
	}
	if bare.BlocksLost <= hedged.BlocksLost {
		t.Errorf("unmitigated lost %d blocks, hedged %d — mitigation shows no benefit", bare.BlocksLost, hedged.BlocksLost)
	}
	if !hedged.Quarantined || hedged.TimeToQuarantineSec > 15 {
		t.Errorf("quarantine %v at %.1fs, want within 15s", hedged.Quarantined, hedged.TimeToQuarantineSec)
	}
	if hedged.DoubleServes != 0 || bare.DoubleServes != 0 {
		t.Errorf("double serves: hedged %d, bare %d", hedged.DoubleServes, bare.DoubleServes)
	}
	if bare.Suspected || bare.Quarantined {
		t.Errorf("disabled monitor still detected: %+v", bare)
	}
}

// The sweep must be byte-reproducible: same options, same bytes out.
func TestGrayFailSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	run := func() []byte {
		pts, err := runGrayFailSweep(grayOptions(), 24, []float64{2}, 20*time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("sweep not deterministic:\n%s\n%s", a, b)
	}
}
