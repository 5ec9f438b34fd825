package core

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiger/internal/disk"
	"tiger/internal/netsim"
	"tiger/internal/obs"
)

// unexported names the stats fields that deliberately have no series,
// each with its reason. Everything else numeric must carry a metric tag.
var unexported = map[string]string{
	"netsim.Stats.ByteSecs":   "NIC occupancy integral: bringing it up to date is a write (NodeStats folds the clock forward), which a scrape must not make",
	"netsim.Stats.PeakRate":   "part of the same NIC occupancy accounting; experiments read it through NodeStats",
	"netsim.Stats.OverloadNs": "part of the same NIC occupancy accounting; experiments read it through NodeStats",
}

// TestStatsStructsAreTheSeriesTable pins "count once": every exported
// numeric field of a stats struct is a series (exactly one, by a name no
// other field uses) or sits on the short list above, so a counter added
// to a struct without a series — or a series added without a field —
// cannot happen silently.
func TestStatsStructsAreTheSeriesTable(t *testing.T) {
	names := make(map[string]string)
	used := make(map[string]bool)
	for _, v := range []any{CubStats{}, ControllerStats{}, GovernorStats{}, disk.Stats{}, netsim.Stats{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			field := typ.String() + "." + f.Name
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int32, reflect.Int64, reflect.Float64:
			default:
				t.Fatalf("%s: a %v in a stats struct; extend this test", field, f.Type)
			}
			tag, ok := f.Tag.Lookup("metric")
			if !ok {
				if unexported[field] == "" {
					t.Errorf("%s has no metric tag and no reason on the unexported list", field)
				}
				used[field] = true
				continue
			}
			name, opt, _ := strings.Cut(tag, ",")
			if prev, dup := names[name]; dup {
				t.Errorf("%s and %s both export %s", prev, field, name)
			}
			names[name] = field
			if f.Tag.Get("help") == "" {
				t.Errorf("%s: series %s has no help text", field, name)
			}
			if counter := opt != "gauge"; counter != strings.HasSuffix(name, "_total") {
				t.Errorf("%s: %q: counters, and only counters, end in _total", field, tag)
			}
		}
	}
	for field := range unexported {
		if !used[field] {
			t.Errorf("unexported list names %s, which is not an untagged stats field", field)
		}
	}
}

// TestSnapshotCollect checks how a snapshot is assembled and labelled: a
// counter from the stats struct, a gauge read at snapshot time, and one
// series set per drive. (That every CubStats field arrives, on every cub,
// is the root package's TestRegistryReadsCubStats.)
func TestSnapshotCollect(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	c := r.cubs[0]
	got := make(map[string]float64)
	c.Snapshot().Collect(func(d *obs.Desc, labels string, v float64) {
		got[d.Name+"{"+labels+"}"] = v
	})
	if v := got[`tiger_cub_states_recv_total{cub="0"}`]; v != float64(c.Stats().StatesRecv) || v == 0 {
		t.Errorf("states-received counter = %v, Stats().StatesRecv = %d", v, c.Stats().StatesRecv)
	}
	if v := got[`tiger_cub_view_entries{cub="0"}`]; v != float64(c.ViewSize()) || v == 0 {
		t.Errorf("view gauge = %v, ViewSize = %d", v, c.ViewSize())
	}
	for d, dk := range c.Disks() {
		key := `tiger_disk_reads_total{cub="0",disk="` + strconv.Itoa(d) + `"}`
		if v, ok := got[key]; !ok || v != float64(dk.Stats().Reads) {
			t.Errorf("%s = %v (present %v), drive says %d", key, v, ok, dk.Stats().Reads)
		}
	}
}

// TestSnapshotListsDrivesInOrder: /debug/vars and tigerctl stats print a
// snapshot's drives as it lists them, so it lists them in disk order,
// every time.
func TestSnapshotListsDrivesInOrder(t *testing.T) {
	o := defaultRigOptions()
	o.cubs, o.disksPerCub = 4, 4
	c := newRig(t, o).cubs[1]
	for i := 0; i < 20; i++ {
		ds := c.Snapshot().Disks
		if len(ds) != o.disksPerCub || !slices.IsSortedFunc(ds, func(a, b DiskSnapshot) int { return a.Disk - b.Disk }) {
			t.Fatalf("snapshot %d lists drives %v", i, ds)
		}
	}
}
