package attr

import (
	"strings"
	"testing"

	"tiger/internal/trace"
)

func TestBuildChargesSlackDeltas(t *testing.T) {
	// insert(slack 100ms) → state(90ms) → disk-queue(80ms) →
	// disk-read(30ms, disk 3) → send(10ms): gossip 10, queue 10, read
	// 50, send 20 (ms).
	ch := []trace.Hop{
		{At: 0, Kind: trace.Insert, Due: 100e6},
		{At: 10e6, Kind: trace.State, Due: 10e6 + 90e6},
		{At: 20e6, Kind: trace.DiskQueue, Due: 20e6 + 80e6, Disk: 3},
		{At: 70e6, Kind: trace.DiskRead, Due: 70e6 + 30e6, Disk: 3},
		{At: 90e6, Kind: trace.Serve, Due: 90e6 + 10e6, Disk: 3},
	}
	tab := Build([][]trace.Hop{ch})
	if tab.Chains != 1 || tab.Hops != 5 {
		t.Fatalf("chains=%d hops=%d", tab.Chains, tab.Hops)
	}
	want := map[string]int64{
		"gossip": 10e6, "disk-queue": 10e6, "disk-read": 50e6, "send-wait": 20e6,
	}
	got := map[string]int64{}
	for _, r := range tab.Rows {
		got[r.Component] = r.TotalNs
	}
	for comp, ns := range want {
		if got[comp] != ns {
			t.Errorf("component %s: got %d want %d", comp, got[comp], ns)
		}
	}
	if tab.TotalNs != 90e6 {
		t.Errorf("TotalNs = %d, want 90e6", tab.TotalNs)
	}
	// disk-read dominates: first row.
	if tab.Rows[0].Component != "disk-read" {
		t.Errorf("top row = %s, want disk-read", tab.Rows[0].Component)
	}
	// The disk-tied rows name disk 3.
	foundDisk := false
	for _, r := range tab.DiskRows {
		if r.Component == "disk-read" && r.Disk == 3 && r.TotalNs == 50e6 {
			foundDisk = true
		}
	}
	if !foundDisk {
		t.Errorf("no disk-read row for disk 3: %+v", tab.DiskRows)
	}
}

func TestBuildAdmitAndReceiptUseElapsed(t *testing.T) {
	// Admit has no deadline (slack 0) and receipt slack uses the viewer
	// basis, so both pairs must be charged by elapsed time.
	ch := []trace.Hop{
		{At: 0, Kind: trace.Admit, Due: 0},
		{At: 40e6, Kind: trace.Insert, Due: 40e6 + 100e6},
		{At: 50e6, Kind: trace.Serve, Due: 50e6 + 90e6},
		{At: 58e6, Kind: trace.Receipt, Due: 58e6 + 500e6},
	}
	tab := Build([][]trace.Hop{ch})
	got := map[string]int64{}
	for _, r := range tab.Rows {
		got[r.Component] = r.TotalNs
	}
	if got["insert-wait"] != 40e6 {
		t.Errorf("insert-wait = %d, want 40e6 (elapsed, not slack delta)", got["insert-wait"])
	}
	if got["network"] != 8e6 {
		t.Errorf("network = %d, want 8e6 (elapsed, not slack delta)", got["network"])
	}
	if tab.Receipts != 1 {
		t.Errorf("Receipts = %d, want 1", tab.Receipts)
	}
}

func TestBuildSkipsNegativeDeltas(t *testing.T) {
	ch := []trace.Hop{
		{At: 0, Kind: trace.Insert, Due: 50e6},
		{At: 5e6, Kind: trace.State, Due: 5e6 + 80e6}, // mirror branch, laxer basis
	}
	tab := Build([][]trace.Hop{ch})
	if tab.Reordered != 1 {
		t.Errorf("Reordered = %d, want 1", tab.Reordered)
	}
	if tab.TotalNs != 0 {
		t.Errorf("TotalNs = %d, want 0", tab.TotalNs)
	}
}

func TestBuildCountsMissesAndDescheds(t *testing.T) {
	miss := []trace.Hop{
		{At: 0, Kind: trace.Insert, Due: 10e6},
		{At: 15e6, Kind: trace.Miss, Due: 15e6 - 5e6},
	}
	desch := []trace.Hop{
		{At: 0, Kind: trace.Insert, Due: 10e6},
		{At: 2e6, Kind: trace.Deschedule, Due: 2e6 + 8e6},
	}
	tab := Build([][]trace.Hop{miss, desch})
	if tab.Misses != 1 || tab.Descheds != 1 {
		t.Errorf("misses=%d descheds=%d, want 1/1", tab.Misses, tab.Descheds)
	}
}

func TestBucketSaturation(t *testing.T) {
	var r Row
	r.add(500)  // < 1µs
	r.add(5e6)  // < 10ms
	r.add(30e9) // way past the last bound: overflow bucket
	if r.Buckets[0] != 1 || r.Buckets[NumBuckets-1] != 1 {
		t.Errorf("buckets = %v", r.Buckets)
	}
	if r.MaxNs != 30e9 {
		t.Errorf("MaxNs = %d", r.MaxNs)
	}
}

func TestRenderShape(t *testing.T) {
	ch := []trace.Hop{
		{At: 0, Kind: trace.Insert, Due: 100e6},
		{At: 20e6, Kind: trace.DiskRead, Due: 20e6 + 40e6, Disk: 1},
	}
	var sb strings.Builder
	Build([][]trace.Hop{ch}).Render(&sb)
	out := sb.String()
	for _, want := range []string{"slack attribution", "disk-read", "per-disk", "disk 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestComponentNamesTotal(t *testing.T) {
	kinds := []trace.Kind{
		trace.Admit, trace.Insert, trace.State, trace.Deschedule,
		trace.DiskQueue, trace.DiskRead, trace.Hedge, trace.Serve,
		trace.Miss, trace.Receipt,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		c := Component(k)
		if c == "other" || c == "" {
			t.Errorf("kind %v has no component name", k)
		}
		if seen[c] {
			t.Errorf("component %q reused", c)
		}
		seen[c] = true
	}
}
