package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
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
