package tiger

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/obs"
	"tiger/internal/trace"
)

// seriesValues indexes a registry snapshot by name{labels}, with the
// labels in canonical form.
func seriesValues(c *Cluster) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range c.Registry().Snapshot() {
		out[p.Name+"{"+obs.Labels(p.Labels).String()+"}"] = p.Value
	}
	return out
}

// TestRegistryReadsCubStats is the end-to-end half of "count once": after
// a crash and restart under churn, every series a CubStats field names
// reads, for every cub, exactly what Cubs[i].Stats() says — there is no
// second set of counters left to drift.
func TestRegistryReadsCubStats(t *testing.T) {
	c := churnCrashRestart(t, 2, 60*time.Second)
	got := seriesValues(c)
	checked := 0
	for i, cub := range c.Cubs {
		st := reflect.ValueOf(cub.Stats())
		for f := 0; f < st.NumField(); f++ {
			name, _, _ := strings.Cut(st.Type().Field(f).Tag.Get("metric"), ",")
			key := fmt.Sprintf(`%s{cub="%d"}`, name, i)
			if v, ok := got[key]; !ok || v != float64(st.Field(f).Int()) {
				t.Errorf("%s = %v (present %v), Cubs[%d].Stats().%s = %d",
					key, v, ok, i, st.Type().Field(f).Name, st.Field(f).Int())
			}
			checked++
		}
	}
	for _, moved := range []string{"tiger_cub_rejoins_total", "tiger_cub_mirrors_made_total", "tiger_cub_gossip_batches_total"} {
		sum := 0.0
		for i := range c.Cubs {
			sum += got[fmt.Sprintf(`%s{cub="%d"}`, moved, i)]
		}
		if sum == 0 {
			t.Errorf("%s is zero on every cub: the run did not exercise it", moved)
		}
	}
	t.Logf("%d series equal their struct field", checked)
}

// TestShardedMetricsSurface: a sharded cluster is instrumented like any
// other. Every cub exports its tiger_cub_* and tiger_disk_* series, the
// exported blocks-sent counters sum to TotalCubStats, the lifecycle span
// histograms fill, and the whole export is byte-identical whether one
// worker or two ran the shards.
func TestShardedMetricsSurface(t *testing.T) {
	var exports [2]string
	for w := range exports {
		c, err := New(shardedTestOptions(2, w+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RampTo(c.Capacity() * 3 / 4); err != nil {
			t.Fatal(err)
		}
		c.RunFor(30 * time.Second)
		var b bytes.Buffer
		if err := c.ExportMetrics(&b); err != nil {
			t.Fatal(err)
		}
		exports[w] = b.String()
		if w > 0 {
			continue
		}
		got := seriesValues(c)
		sent := 0.0
		for i, cub := range c.Cubs {
			for _, name := range []string{"tiger_cub_blocks_sent_total", "tiger_cub_view_entries", "tiger_cub_epoch"} {
				if _, ok := got[fmt.Sprintf(`%s{cub="%d"}`, name, i)]; !ok {
					t.Errorf("cub %d exports no %s", i, name)
				}
			}
			for d := range cub.Disks() {
				if _, ok := got[fmt.Sprintf(`tiger_disk_reads_total{cub="%d",disk="%d"}`, i, d)]; !ok {
					t.Errorf("cub %d disk %d exports no tiger_disk_reads_total", i, d)
				}
			}
			sent += got[fmt.Sprintf(`tiger_cub_blocks_sent_total{cub="%d"}`, i)]
		}
		if total := c.TotalCubStats().BlocksSent; sent != float64(total) || total == 0 {
			t.Errorf("exported blocks-sent counters sum to %v, TotalCubStats().BlocksSent = %d", sent, total)
		}
		spans := uint64(0)
		for _, p := range c.Registry().Snapshot() {
			if p.Name == "tiger_block_deadline_slack_seconds" && p.Labels["stage"] == "send" {
				spans += p.Count
			}
		}
		if spans == 0 {
			t.Error("no send-stage spans recorded on the sharded cluster")
		}
	}
	if exports[0] != exports[1] {
		t.Errorf("ExportMetrics differs between 1 and 2 shard workers (%d vs %d bytes)", len(exports[0]), len(exports[1]))
	}
}

// fanOutRun drives a small governed cluster through inserts, serves,
// deadline misses (a fail-slow disk with the monitor off) and parks (an
// adjacent pair crash), with the ring, a chaos harness and the flight
// recorder subscribed in the given order beside the built-in oracle, and
// returns what each of the four saw.
func fanOutRun(t *testing.T, order []string) (c *Cluster, h *ChaosHarness, seen string) {
	t.Helper()
	o := governorTestOptions(7)
	o.Health.Disable = true
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	var ring *trace.Ring
	var fr *FlightRecorder
	for _, who := range order {
		switch who {
		case "ring":
			ring = c.EnableTrace(1 << 16)
		case "harness":
			h = NewChaosHarness(c)
		case "flight":
			fr = c.EnableFlightRecorder(1 << 10)
		}
	}
	if err := c.RampTo(24); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	c.FailDiskSlow(1, 30)
	c.RunFor(10 * time.Second)
	c.CrashCub(3)
	c.CrashCub(4)
	c.RunFor(5 * time.Second)

	count := make(map[trace.Kind]int)
	var b strings.Builder
	for _, e := range ring.Events() {
		switch e.Kind {
		case trace.Insert, trace.Serve, trace.Miss, trace.Park:
			count[e.Kind]++
			fmt.Fprintf(&b, "%d:%d:%v:%d:%d;", e.At, e.Node, e.Kind, e.Instance, e.Block)
		}
	}
	if ring.Dropped() != 0 {
		t.Fatal("ring overflowed; widen it")
	}
	for _, k := range []trace.Kind{trace.Insert, trace.Serve, trace.Miss, trace.Park} {
		if count[k] == 0 {
			t.Fatalf("order %v: the run produced no %v event", order, k)
		}
	}
	// Each subscriber heard what the ring heard of its kinds.
	h.mu.Lock()
	serves := len(h.serves)
	h.mu.Unlock()
	if serves != count[trace.Serve] {
		t.Errorf("order %v: harness recorded %d serves, ring %d", order, serves, count[trace.Serve])
	}
	if got := int(fr.Triggered()); got != count[trace.Miss]+count[trace.Park] {
		t.Errorf("order %v: flight recorder triggered %d times, ring has %d misses + %d parks",
			order, got, count[trace.Miss], count[trace.Park])
	}
	if got := int(c.TotalCubStats().Inserts); got != count[trace.Insert] {
		t.Errorf("order %v: cubs inserted %d times, ring has %d inserts", order, got, count[trace.Insert])
	}
	for _, d := range fr.Dumps() {
		fmt.Fprintf(&b, "%d:%s;", d.AtNs, d.Reason)
	}
	fmt.Fprintf(&b, "oracle:%d/%d;doubles:%d", len(c.oracle.slots), c.InvariantViolations(), h.DoubleServes())
	return c, h, b.String()
}

// TestSinkFanOut: the event sink's subscribers stack. In every
// subscription order the ring, the chaos harness, the flight recorder
// and the slot oracle see the same insert/serve/miss/park sequence;
// closing the harness leaves the other three attached.
func TestSinkFanOut(t *testing.T) {
	orders := [][]string{
		{"ring", "harness", "flight"}, {"ring", "flight", "harness"},
		{"harness", "ring", "flight"}, {"harness", "flight", "ring"},
		{"flight", "ring", "harness"}, {"flight", "harness", "ring"},
	}
	var first string
	for i, order := range orders {
		c, h, seen := fanOutRun(t, order)
		if i == 0 {
			first = seen
		} else if seen != first {
			t.Fatalf("order %v saw a different history than order %v", order, orders[0])
		}
		if i > 0 {
			h.Close()
			continue
		}
		h.mu.Lock()
		serves := len(h.serves)
		h.mu.Unlock()
		ringTotal, triggered := c.ring.Total(), c.flight.Triggered()
		h.Close()
		// The pair crash parked every stream; bring the cubs back so the
		// re-admitted streams meet the slow disk again.
		c.RestartCub(3)
		c.RestartCub(4)
		c.RunFor(40 * time.Second)
		if got := len(h.serves); got != serves {
			t.Errorf("closed harness still hears serves: %d -> %d", serves, got)
		}
		if c.ring.Total() == ringTotal {
			t.Error("closing the harness detached the ring")
		}
		if c.flight.Triggered() == triggered {
			t.Error("closing the harness detached the flight recorder")
		}
	}
}

// TestSinkReachesRestripeBornCubs grows the paper's array 14 -> 16: the
// two cubs created mid-run report to every subscriber attached before
// they existed — ring and harness hear their serves — and the registry
// collects them like the original fourteen.
func TestSinkReachesRestripeBornCubs(t *testing.T) {
	o := elasticTestOptions()
	o.Cubs, o.DisksPerCub, o.Decluster = 14, 4, 4
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ring := c.EnableTrace(1 << 12)
	h := NewChaosHarness(c)
	defer h.Close()
	phases := 0
	c.sink.Subscribe(trace.KindSet(trace.RestripePhase), func(trace.Event) { phases++ })
	if err := c.RampTo(c.Capacity() / 2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if err := c.StartRestripe(16); err != nil {
		t.Fatal(err)
	}
	if !waitPhase(c, core.RestripeDone, 10*time.Minute) {
		t.Fatalf("restripe never finished (phase %q)", c.RestripePhase())
	}
	c.RunFor(30 * time.Second)

	got := seriesValues(c)
	for cub := 14; cub < 16; cub++ {
		if n := len(ring.Filter(func(e trace.Event) bool { return e.Kind == trace.Serve && int(e.Node) == cub })); n == 0 {
			t.Errorf("the ring holds no serve by cub %d", cub)
		}
		heard := false
		for _, rec := range h.serves {
			heard = heard || int(rec.by) == cub
		}
		if !heard {
			t.Errorf("the harness heard no serve by cub %d", cub)
		}
		key := `tiger_cub_blocks_sent_total{cub="` + strconv.Itoa(cub) + `"}`
		if v := got[key]; v == 0 || v != float64(c.Cubs[cub].Stats().BlocksSent) {
			t.Errorf("%s = %v, Stats().BlocksSent = %d", key, v, c.Cubs[cub].Stats().BlocksSent)
		}
	}
	if phases < 4 {
		t.Errorf("%d restripe phase transitions reached the sink, want copy, cutover, drain, (linger,) done", phases)
	}
}
