package tiger

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// shardedTestOptions is the small loaded cluster of the sharded
// determinism tests: 8 cubs x 2 disks, one-minute files.
func shardedTestOptions(shards, workers int) Options {
	o := DefaultOptions()
	o.Cubs = 8
	o.DisksPerCub = 2
	o.Decluster = 2
	o.ClientDropProb = 0
	o.RampSpacing = 20 * time.Millisecond
	o.NumFiles = 16
	o.FileBlocks = 60
	o.Shards = shards
	o.ShardWorkers = workers
	o.Seed = 11
	return o
}

// shardedDigest runs a fixed loaded scenario on an S-sharded cluster
// with the given worker count and digests everything observable: per-cub
// protocol counters, viewer outcomes, loss totals, per-shard event
// counts, the exact startup-latency sequence, and the metrics export. A sharded simulation
// is a pure function of (options, shard count); the worker count only
// changes which goroutine executes a shard's window, so digests must be
// byte-identical across worker counts.
func shardedDigest(t *testing.T, shards, workers int) string {
	t.Helper()
	c, err := New(shardedTestOptions(shards, workers))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity() * 3 / 4); err != nil {
		t.Fatal(err)
	}
	c.RunFor(45 * time.Second)
	// Stop a deterministic subset mid-run, then keep serving.
	stopped := 0
	for inst := InstanceID(1); stopped < 10 && inst < 10000; inst++ {
		if s, ok := c.Streams()[inst]; ok {
			s.Stop()
			stopped++
		}
	}
	c.RunFor(30 * time.Second)

	digest := fmt.Sprintf("t:%d;ev:%d;", int64(c.Now()), c.EventsProcessed())
	for i, cub := range c.Cubs {
		st := cub.Stats()
		digest += fmt.Sprintf("cub%d:%d/%d/%d/%d/%d/%d;", i,
			st.BlocksSent, st.PiecesSent, st.Inserts, st.StatesRecv,
			st.ServerMisses, st.Conflicts)
	}
	ok, lost, mirror := c.ViewerTotals()
	digest += fmt.Sprintf("v:%d/%d/%d;", ok, lost, mirror)
	digest += fmt.Sprintf("loss:%d/%d;", c.Loss.ServerMissed, c.Loss.ClientMissed)
	cs := c.Controller.Stats()
	digest += fmt.Sprintf("ctl:%d/%d/%d/%d;", cs.Starts, cs.Stops, cs.Acks, cs.EOFs)
	for _, p := range c.StartupPoints {
		digest += fmt.Sprintf("%d,", p.Latency.Nanoseconds())
	}
	// The registry is part of the observable history: every cub's
	// collected counters and its span histograms, float sums included.
	var metrics bytes.Buffer
	if err := c.ExportMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	return digest + ";" + metrics.String()
}

// TestShardedByteIdentical is the cluster-level half of the sharded
// determinism guarantee: for each shard count, running the partitioned
// model serially (1 worker) and in parallel (2, 4, 8 workers) must
// produce byte-identical observable histories. Run with -race to also
// certify the coordination (the barrier and mailbox single-writer
// discipline) data-race free under real concurrency.
func TestShardedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("replay run")
	}
	for _, shards := range []int{2, 4, 8} {
		serial := shardedDigest(t, shards, 1)
		for _, workers := range []int{2, 4, 8} {
			par := shardedDigest(t, shards, workers)
			if par != serial {
				i := 0
				for i < len(serial) && i < len(par) && serial[i] == par[i] {
					i++
				}
				lo := i - 40
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("shards=%d workers=%d diverged from serial at byte %d:\n serial: ...%s\n par:    ...%s",
					shards, workers, i,
					serial[lo:min(i+40, len(serial))], par[lo:min(i+40, len(par))])
			}
		}
	}
}

// TestShardedServes sanity-checks that a sharded cluster actually
// serves: streams ramp, blocks arrive on time, and nothing is lost at
// three-quarters load.
func TestShardedServes(t *testing.T) {
	o := DefaultOptions()
	o.Cubs = 8
	o.DisksPerCub = 2
	o.Decluster = 2
	o.ClientDropProb = 0
	o.RampSpacing = 20 * time.Millisecond
	o.NumFiles = 16
	o.Shards = 4
	o.Seed = 5
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity() * 3 / 4); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	ok, lost, _ := c.ViewerTotals()
	if ok == 0 {
		t.Fatal("no blocks delivered on a sharded cluster")
	}
	if lost != 0 {
		t.Fatalf("%d blocks lost at 3/4 load on a healthy sharded cluster", lost)
	}
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", c.Shards())
	}
	if c.EventsProcessed() == 0 {
		t.Fatal("EventsProcessed() = 0")
	}
}

// TestStartRestripeRefusesSharded: a restripe would build the new cubs
// on shard 0's engine and flip every cub's generation from it, while
// netsim delivers to cub i on shard i mod S — a data race under
// concurrent workers. A sharded cluster refuses, and keeps serving.
func TestStartRestripeRefusesSharded(t *testing.T) {
	c, err := New(shardedTestOptions(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RampTo(c.Capacity() / 4); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if err := c.StartRestripe(10); err == nil {
		t.Fatal("a sharded cluster started a restripe")
	}
	if p := c.RestripePhase(); p.Active() || len(c.Cubs) != 8 {
		t.Fatalf("after the refusal: phase %q, %d cubs", p, len(c.Cubs))
	}
	c.RunFor(10 * time.Second)
	if _, lost, _ := c.ViewerTotals(); lost != 0 {
		t.Fatalf("%d blocks lost after the refused restripe", lost)
	}
}

// TestShardedRefusesFlightRecorder: a recorder's triggers fire on shard
// goroutines, and a dump reads shard 0's clock, the causal chains and
// the ring — a data race under concurrent workers. A sharded cluster
// attaches none, and deadline misses after two crashes still run clean.
func TestShardedRefusesFlightRecorder(t *testing.T) {
	c, err := New(shardedTestOptions(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(1024)
	c.EnableCausalTrace(0, 0)
	if fr := c.EnableFlightRecorder(0); fr != nil || c.FlightRecorder() != nil {
		t.Fatal("a sharded cluster attached a flight recorder")
	}
	if err := c.RampTo(c.Capacity() / 2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	c.CrashCub(2)
	c.CrashCub(3)
	c.RunFor(20 * time.Second)
	if c.Loss.ServerMissed == 0 {
		t.Fatal("no deadline missed: the run never reached the recorder's trigger")
	}
}
