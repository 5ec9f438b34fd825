package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tiger"
	"tiger/internal/core"
	"tiger/internal/layout"
)

// withParallelism runs fn at the given sweep width and restores the
// previous setting afterwards.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := *parallel
	*parallel = n
	defer func() { *parallel = prev }()
	fn()
}

func TestForEachPointOrderAndErrors(t *testing.T) {
	withParallelism(t, 4, func() {
		out := make([]int, 100)
		if err := forEachPoint(len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("slot %d holds %d", i, v)
			}
		}

		// The reported error must be the lowest-indexed one, exactly as a
		// sequential loop would have surfaced it first.
		errAt := func(bad ...int) error {
			return forEachPoint(100, func(i int) error {
				for _, b := range bad {
					if i == b {
						return fmt.Errorf("point %d", i)
					}
				}
				return nil
			})
		}
		if err := errAt(42, 7, 90); err == nil || err.Error() != "point 7" {
			t.Fatalf("got %v, want point 7", err)
		}
	})

	// Width 1 must not spawn goroutines and must stop at the first error.
	withParallelism(t, 1, func() {
		ran := 0
		sentinel := errors.New("stop")
		err := forEachPoint(10, func(i int) error {
			ran++
			if i == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) || ran != 4 {
			t.Fatalf("sequential path ran %d points, err %v", ran, err)
		}
	})
}

// TestSweepParallelEquivalence asserts the fan-out's determinism claim:
// fanning sweep points out over workers yields byte-identical results to
// the sequential run, because each point is a pure function of its
// options.
func TestSweepParallelEquivalence(t *testing.T) {
	quanta := []time.Duration{0, 50 * time.Millisecond, 250 * time.Millisecond}
	var seq, par []fragmentationPoint
	withParallelism(t, 1, func() {
		var err error
		seq, err = runAblationFragmentation(14, 100_000_000, quanta, 7)
		if err != nil {
			t.Fatal(err)
		}
	})
	withParallelism(t, len(quanta), func() {
		var err error
		par, err = runAblationFragmentation(14, 100_000_000, quanta, 7)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fragmentation sweep diverged:\nseq %+v\npar %+v", seq, par)
	}

	if testing.Short() {
		t.Skip("cluster sweep equivalence is a full-mode test")
	}
	o := quickOptions()
	cubs := []int{7, 14}
	var seqS, parS []scalePoint
	withParallelism(t, 1, func() {
		var err error
		seqS, err = runScalability(o, cubs, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
	})
	withParallelism(t, len(cubs), func() {
		var err error
		parS, err = runScalability(o, cubs, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(seqS, parS) {
		t.Fatalf("scalability sweep diverged:\nseq %+v\npar %+v", seqS, parS)
	}
}

// TestAttrSweepParallelEquivalence asserts traced sweeps stay
// byte-identical at any -parallel width: attribution tables and flight
// dumps included.
func TestAttrSweepParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	run := func(width int) []byte {
		var b []byte
		withParallelism(t, width, func() {
			pts, err := runGrayFailSweep(grayOptions(), 24, []float64{2}, 15*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			var mErr error
			b, mErr = json.Marshal(pts)
			if mErr != nil {
				t.Fatal(mErr)
			}
		})
		return b
	}
	seq, par := run(1), run(2)
	if !bytes.Equal(seq, par) {
		t.Fatalf("traced sweep diverged across parallel widths:\n%s\n%s", seq, par)
	}
}

func TestCPUCharges(t *testing.T) {
	got := busy(100, 1, 1, 1)
	want := 100*perDataByte + perCtlMsg + perDiskOp + perStartReq
	if got != want {
		t.Fatalf("busy %v, want %v", got, want)
	}
}

// TestBusyFromCounters pins which counters feed each machine's modelled
// CPU time: every payload byte sent, every message delivered or gossip
// batch sent, every disk read and every start or stop request.
func TestBusyFromCounters(t *testing.T) {
	cfg := &core.Config{BlockSize: 1000, Layout: layout.Config{Decluster: 4}}
	if got, want := cubBusy(core.CubStats{BlocksSent: 2, PiecesSent: 3, MsgsRecv: 5, GossipBatches: 7, DiskReads: 11}, cfg),
		busy(2*1000+3*250, 5+7, 11, 0); got != want {
		t.Errorf("cub busy %v, want %v", got, want)
	}
	if got, want := ctrlBusy(core.ControllerStats{Requests: 2, MsgsRecv: 3}), busy(0, 3, 0, 2); got != want {
		t.Errorf("controller busy %v, want %v", got, want)
	}
}

func TestCPUCalibration(t *testing.T) {
	// §5: a cub sending 43 primary streams plus its mirroring share
	// (13.4 MB/s total) ran at just over 80% CPU and never above 85%.
	load := duty(busy(13_400_000, 0, 0, 0), time.Second) // one second of failed-mode sending
	if load < 0.75 || load > 0.88 {
		t.Fatalf("failed-mode packetization load %.2f, want ~0.83", load)
	}
}

func TestLoadClamps(t *testing.T) {
	if l := duty(2*time.Second, time.Second); l != 1 {
		t.Fatalf("load %v, want clamp to 1", l)
	}
	if l := duty(time.Second, 0); l != 0 {
		t.Fatalf("zero window load %v", l)
	}
	if l := duty(2*time.Second, 4*time.Second); l != 0.5 {
		t.Fatalf("load %v, want 0.5", l)
	}
}

func TestLoadClampsExactlyAtOne(t *testing.T) {
	// busy == wall is 100% exactly; a hair over must clamp back to 1.0.
	if l := duty(time.Second, time.Second); l != 1 {
		t.Fatalf("load %v, want exactly 1", l)
	}
	if l := duty(time.Second+time.Nanosecond, time.Second); l != 1 {
		t.Fatalf("load %v, want clamp to 1", l)
	}
	if l := duty(time.Second-time.Nanosecond, time.Second); l >= 1 {
		t.Fatalf("load %v, want < 1", l)
	}
}

func TestWindowLoads(t *testing.T) {
	o := tiger.DefaultOptions()
	o.Cubs, o.DisksPerCub, o.Decluster = 5, 1, 2
	o.NumFiles, o.FileBlocks, o.ClientDropProb = 4, 600, 0
	c, err := tiger.New(o)
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot(c)
	if err := c.RampTo(10); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)
	first := w.load(c, 0, -1)
	if first.Streams != 10 {
		t.Fatalf("streams %d", first.Streams)
	}
	if first.CubCPU <= 0 || first.DiskLoad <= 0 || first.CtlTrafficBps <= 0 {
		t.Fatalf("empty loads: %+v", first)
	}
	// A zero-length window returns zeros rather than dividing by zero.
	empty := snapshot(c).load(c, 0, -1)
	if empty.CubCPU != 0 || empty.CtlTrafficBps != 0 {
		t.Fatalf("zero window produced loads: %+v", empty)
	}
	// Loads reflect only the new window, not cumulative history.
	c.StopAll()
	c.RunFor(30 * time.Second)
	w = snapshot(c)
	c.RunFor(10 * time.Second)
	idle := w.load(c, 0, -1)
	if idle.CubCPU > 0.01 || idle.DataRateBps > 1 {
		t.Fatalf("idle window shows load: %+v", idle)
	}
}

// TestWindowLoadIsDeterministic closes one window many times: each close
// must report the same bits. Summed over the disks in map order, the
// mean duty differs in its last digits between closes.
func TestWindowLoadIsDeterministic(t *testing.T) {
	c, err := tiger.New(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(300); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	w := snapshot(c)
	c.RunFor(10 * time.Second)
	for i, want := 1, w.load(c, 0, -1); i < 32; i++ {
		if got := w.load(c, 0, -1); got != want {
			t.Fatalf("close %d sampled %+v, close 0 %+v", i, got, want)
		}
	}
}

// TestWindowSurvivesGrowRestripe opens a window before a restripe adds
// two cubs and closes it after: the window matches cubs by ID, so the
// born cubs count from zero and every live cub gets a CPU share.
func TestWindowSurvivesGrowRestripe(t *testing.T) {
	c, err := tiger.New(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(100); err != nil {
		t.Fatal(err)
	}
	w := snapshot(c)
	if err := c.StartRestripe(16); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	d := w.delta(c)
	if len(d.cub) != 16 {
		t.Fatalf("%d cubs in the window, want 16", len(d.cub))
	}
	for _, cub := range c.Cubs {
		st := d.cub[cub.ID()]
		if cub.ID() >= 14 && st != cub.Stats() {
			t.Errorf("cub %d born mid-window: window %+v, counters %+v", cub.ID(), st, cub.Stats())
		}
		if u := duty(cubBusy(st, c.Cfg), d.at.Sub(w.at)); u <= 0 || u >= 1 {
			t.Errorf("cub %d CPU share %v", cub.ID(), u)
		}
	}
	if s := w.load(c, 0, -1); s.CubCPU <= 0 || s.DiskLoad <= 0 {
		t.Fatalf("empty loads: %+v", s)
	}
}
