package tiger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"tiger/internal/obs/attr"
	"tiger/internal/trace"
)

// TestCausalChainLifecycle plays one traced stream and checks that the
// causal chains cover the full hop taxonomy — admit at the controller,
// insert under ownership, state acceptance, the disk pipeline, send,
// and the viewer-side receipt — in non-decreasing time order.
func TestCausalChainLifecycle(t *testing.T) {
	c, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableCausalTrace(0, 0)
	if !c.CausalTraceEnabled() {
		t.Fatal("causal trace did not enable")
	}
	s, err := c.Play(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)

	// Block 0's chain begins with the controller's admit hop.
	first := c.CausalChain(s.Instance, 0)
	if len(first) == 0 {
		t.Fatal("no chain recorded for block 0")
	}
	if first[0].Kind != trace.Admit {
		t.Fatalf("block 0 chain starts with %v, want admit: %v", first[0].Kind, first)
	}

	// Across the stream's chains, every hop kind of the steady-state
	// pipeline must appear, and each chain must be time-ordered with any
	// receipt as its final hop.
	chains := c.CausalChains()
	if len(chains) < 10 {
		t.Fatalf("only %d chains for a 20s stream", len(chains))
	}
	kinds := map[trace.Kind]bool{}
	for _, ch := range chains {
		for i, h := range ch {
			kinds[h.Kind] = true
			if i > 0 && h.At < ch[i-1].At {
				t.Fatalf("hops out of time order: %v", ch)
			}
			if h.Kind == trace.Receipt && i != len(ch)-1 {
				t.Fatalf("receipt is not the final hop: %v", ch)
			}
		}
	}
	for _, k := range []trace.Kind{
		trace.Admit, trace.Insert, trace.State,
		trace.DiskQueue, trace.DiskRead, trace.Serve, trace.Receipt,
	} {
		if !kinds[k] {
			t.Errorf("no %v hop recorded across %d chains", k, len(chains))
		}
	}

	// The attribution engine must digest them: receipts seen, no misses
	// on a healthy half-empty system, slack charged somewhere.
	tab := attr.Build(chains)
	if tab.Chains != len(chains) || tab.Receipts == 0 || tab.Misses != 0 {
		t.Fatalf("attribution: %d chains, %d receipts, %d misses", tab.Chains, tab.Receipts, tab.Misses)
	}
	if tab.TotalNs <= 0 || len(tab.Rows) == 0 {
		t.Fatalf("no slack attributed: total=%d rows=%d", tab.TotalNs, len(tab.Rows))
	}
}

// causalScenarioDigest runs an eventful scenario (ramp, cub failure,
// revival) and digests everything observable. traced additionally turns
// on the protocol ring, causal chains (deliberately tiny, to exercise
// eviction), and the flight recorder.
func causalScenarioDigest(t *testing.T, traced bool) string {
	t.Helper()
	o := smallOptions()
	o.Seed = 11
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		c.EnableTrace(1024)
		c.EnableCausalTrace(64, 8)
		c.EnableFlightRecorder(8)
	}
	if err := c.RampTo(c.Capacity() / 2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(15 * time.Second)
	c.FailCub(2)
	c.RunFor(15 * time.Second)
	c.ReviveCub(2)
	c.RunFor(10 * time.Second)

	digest := ""
	for i, cub := range c.Cubs {
		st := cub.Stats()
		digest += fmt.Sprintf("cub%d:%d/%d/%d/%d/%d;", i,
			st.BlocksSent, st.PiecesSent, st.Inserts, st.StatesRecv, st.ServerMisses)
	}
	ok, lost, mirror := c.ViewerTotals()
	digest += fmt.Sprintf("v:%d/%d/%d;", ok, lost, mirror)
	for _, p := range c.StartupPoints {
		digest += fmt.Sprintf("%d,", p.Latency.Nanoseconds())
	}
	return digest
}

// TestCausalTraceObservationOnly asserts the tentpole's core claim:
// tracing is observation-only. A run with the ring, causal chains, and
// flight recorder all enabled must be byte-identical to the same run
// with them off — no timers, no messages, no map-order dependence.
func TestCausalTraceObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("replay run")
	}
	off := causalScenarioDigest(t, false)
	on := causalScenarioDigest(t, true)
	if off != on {
		i := 0
		for i < len(off) && i < len(on) && off[i] == on[i] {
			i++
		}
		lo := i - 40
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("tracing perturbed the run at byte %d:\n off: ...%s\n on:  ...%s",
			i, off[lo:min(i+40, len(off))], on[lo:min(i+40, len(on))])
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
			pts, err := RunGrayFailSweepAttr(grayOptions(), 24, []float64{2}, 15*time.Second, true)
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

// TestFlightRecorderCapturesMisses drives a system into deadline misses
// (one disk grossly fail-slow, monitor off) and checks the flight
// recorder auto-dumps the implicated blocks' causal chains.
func TestFlightRecorderCapturesMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	o := grayOptions()
	o.Health.Disable = true
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(4096)
	c.EnableCausalTrace(0, 0)
	fr := c.EnableFlightRecorder(16)
	if err := c.RampTo(c.Capacity()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)
	c.FailDiskSlow(grayVictim(c), 4)
	c.RunFor(30 * time.Second)

	dumps := fr.Dumps()
	if len(dumps) == 0 {
		t.Fatal("no flight dumps despite a 4x fail-slow disk with the monitor off")
	}
	if len(dumps) > 16 {
		t.Fatalf("dump cap not honored: %d > 16", len(dumps))
	}
	withChains := 0
	for _, d := range dumps {
		if d.Reason == "" {
			t.Fatalf("dump without a reason: %+v", d)
		}
		if len(d.Events) == 0 {
			t.Fatalf("dump without neighbor events: %+v", d)
		}
		if len(d.Hops) > 0 {
			withChains++
		}
	}
	if withChains == 0 {
		t.Fatal("no dump carried a causal chain")
	}
}

// TestCausalKeysMergeLargeLogs merges the logs of a controller and 14
// cubs, 4 096 chains each, the way the bench's traced pass leaves them:
// every log sorted, the union interleaved. The merged keys are distinct,
// so "strictly increasing and nothing missing" is the one order any
// correct sort gives — the order the quadratic insertion sort gave, which
// took 1.5 s here.
func TestCausalKeysMergeLargeLogs(t *testing.T) {
	const logs, perLog = 15, 4096
	all := make([]*trace.ChainLog, logs)
	for i := range all {
		all[i] = trace.NewChainLog(perLog, 1)
	}
	c := &Cluster{chains: all}
	want := map[trace.ChainKey]bool{}
	for i, l := range all {
		for j := 0; j < perLog; j++ {
			// A block's chain lives on every cub it passed through: a
			// quarter of log i's keys are also in log i+1.
			n := j*logs + i
			if j%4 == 0 {
				n = (j+1)*logs + (i+1)%logs
			}
			k := trace.ChainKey{Instance: InstanceID(1 + n%977), Block: int32(n / 977)}
			l.Record(trace.Hop{Instance: k.Instance, Block: k.Block, Traced: true})
			want[k] = true
		}
	}
	start := time.Now()
	keys := c.CausalKeys()
	took := time.Since(start)
	if len(keys) != len(want) {
		t.Fatalf("%d keys merged, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if !want[k] {
			t.Fatalf("key %v was in no log", k)
		}
		if i > 0 && !keys[i-1].Less(k) {
			t.Fatalf("keys %v, %v out of (instance, block) order at %d", keys[i-1], k, i)
		}
	}
	if took > time.Second {
		t.Fatalf("merging %d keys took %v", len(keys), took)
	}
	t.Logf("%d keys merged in %v", len(keys), took)
}

// TestSubscribersAgree holds the step record's subscribers to one
// another. On a fully traced 14-cub run with a crash (tracing on before
// the first play, so every state is traced; chain bounds large enough
// that nothing is shed), the span histograms and the chain logs heard
// the same steps: per stage, the histograms' summed count equals the
// number of chain hops of the kinds recorded under it. And the loss
// log's server half, a third subscriber, agrees with the cubs' own
// ServerMisses counters.
func TestSubscribersAgree(t *testing.T) {
	o := DefaultOptions()
	o.Seed = 7
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableCausalTrace(1<<14, 16)
	if err := c.RampTo(200); err != nil {
		t.Fatal(err)
	}
	c.RunFor(15 * time.Second)
	c.CrashCub(5)
	c.RunFor(15 * time.Second)
	c.RestartCub(5)
	c.RunFor(10 * time.Second)
	if ev, dropped := c.ChainDrops(); ev != 0 || dropped != 0 {
		t.Fatalf("chain logs shed %d chains, %d hops; raise the test's bounds", ev, dropped)
	}

	stageOf := map[trace.Kind]string{
		trace.Insert: "insert", trace.State: "state", trace.DiskRead: "read",
		trace.Serve: "send", trace.Miss: "send", trace.Receipt: "receipt",
	}
	hops := map[string]uint64{}
	for _, ch := range c.CausalChains() {
		for _, h := range ch {
			if st, ok := stageOf[h.Kind]; ok {
				hops[st]++
			}
		}
	}
	spans := map[string]uint64{}
	for _, p := range c.Registry().Snapshot() {
		if p.Name == "tiger_block_deadline_slack_seconds" {
			spans[p.Labels["stage"]] += p.Count
		}
	}
	for _, st := range []string{"insert", "state", "read", "send", "receipt"} {
		if spans[st] == 0 || spans[st] != hops[st] {
			t.Errorf("stage %s: span histograms counted %d, chain logs hold %d hops", st, spans[st], hops[st])
		}
	}
	if missed := c.TotalCubStats().ServerMisses; missed == 0 || c.Loss.ServerMissed != missed {
		t.Errorf("loss log heard %d server misses, the cubs counted %d (want equal, and a crash to cause some)",
			c.Loss.ServerMissed, missed)
	}
}
