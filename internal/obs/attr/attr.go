// Package attr folds causal block chains into per-component
// deadline-slack attribution: for every traced block, the slack
// remaining at each hop is differenced against the previous hop, and
// the consumed slack is charged to the component that spent it — the
// insertion queue, the gossip ring, a disk's queue, the disk read
// itself, the hedge machinery, the send scheduler, or the network. The
// result is the "where the slack went" table: a run whose disk 3 is
// degraded shows disk 3's queue and read rows absorbing the slack that
// healthy runs leave to the send stage.
//
// Two hop pairs are charged by elapsed time instead of slack delta,
// because their slack fields use different bases: admit→insert (the
// admit hop predates the deadline, its slack is recorded as zero) and
// send→receipt (receipt slack is measured against the viewer's play
// deadline, not the cub's service due time).
package attr

import (
	"fmt"
	"io"
	"sort"

	"tiger/internal/trace"
)

// Component names one slack-consuming stage, keyed by the hop that
// closes it.
func Component(k trace.Kind) string {
	switch k {
	case trace.Admit:
		return "admit"
	case trace.Insert:
		return "insert-wait"
	case trace.State:
		return "gossip"
	case trace.Deschedule:
		return "desched"
	case trace.DiskQueue:
		return "disk-queue"
	case trace.DiskRead:
		return "disk-read"
	case trace.Hedge:
		return "hedge"
	case trace.Serve:
		return "send-wait"
	case trace.Miss:
		return "miss"
	case trace.Receipt:
		return "network"
	}
	return "other"
}

// BucketBounds are the histogram bucket upper bounds in nanoseconds;
// the final bucket is unbounded.
var BucketBounds = [...]int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// NumBuckets is len(BucketBounds)+1: one overflow bucket.
const NumBuckets = len(BucketBounds) + 1

func bucketOf(ns int64) int {
	for i, b := range BucketBounds {
		if ns < b {
			return i
		}
	}
	return NumBuckets - 1
}

// Row is one component's (optionally one disk's) slack consumption.
type Row struct {
	Component string            `json:"component"`
	Disk      int32             `json:"disk"` // -1 in the per-component rows
	Count     int64             `json:"count"`
	TotalNs   int64             `json:"total_ns"`
	MaxNs     int64             `json:"max_ns"`
	Share     float64           `json:"share"` // of all attributed slack
	Buckets   [NumBuckets]int64 `json:"buckets"`
}

func (r *Row) add(ns int64) {
	r.Count++
	r.TotalNs += ns
	if ns > r.MaxNs {
		r.MaxNs = ns
	}
	r.Buckets[bucketOf(ns)]++
}

// Table is the folded attribution across a set of chains.
type Table struct {
	// Rows aggregates per component, largest total first.
	Rows []Row `json:"rows"`
	// DiskRows breaks the disk-tied components (disk-queue, disk-read,
	// hedge) out per disk, largest total first — the rows that name a
	// degraded drive.
	DiskRows []Row `json:"disk_rows,omitempty"`

	Chains    int   `json:"chains"`
	Hops      int   `json:"hops"`
	TotalNs   int64 `json:"total_ns"`
	Misses    int64 `json:"misses"`
	Descheds  int64 `json:"descheds"`
	Receipts  int64 `json:"receipts"`
	Reordered int64 `json:"reordered,omitempty"` // pairs skipped: slack rose
}

type rowKey struct {
	comp string
	disk int32
}

// diskTied reports whether a component is broken out per disk.
func diskTied(k trace.Kind) bool {
	return k == trace.DiskQueue || k == trace.DiskRead || k == trace.Hedge
}

// Build folds chains (each already time-ordered, e.g. via
// trace.SortHops) into an attribution table.
func Build(chains [][]trace.Hop) *Table {
	t := &Table{}
	comps := make(map[string]*Row)
	disks := make(map[rowKey]*Row)
	charge := func(k trace.Kind, disk int32, ns int64) {
		comp := Component(k)
		r := comps[comp]
		if r == nil {
			r = &Row{Component: comp, Disk: -1}
			comps[comp] = r
		}
		r.add(ns)
		t.TotalNs += ns
		if diskTied(k) && disk >= 0 {
			dk := rowKey{comp, disk}
			dr := disks[dk]
			if dr == nil {
				dr = &Row{Component: comp, Disk: disk}
				disks[dk] = dr
			}
			dr.add(ns)
		}
	}
	for _, ch := range chains {
		if len(ch) == 0 {
			continue
		}
		t.Chains++
		t.Hops += len(ch)
		for i := 1; i < len(ch); i++ {
			prev, cur := ch[i-1], ch[i]
			switch cur.Kind {
			case trace.Miss:
				t.Misses++
			case trace.Deschedule:
				t.Descheds++
			case trace.Receipt:
				t.Receipts++
			}
			var consumed int64
			switch {
			case prev.Kind == trace.Admit, cur.Kind == trace.Receipt:
				consumed = int64(cur.At) - int64(prev.At)
			default:
				consumed = prev.Slack() - cur.Slack()
			}
			if consumed < 0 {
				// Slack rose between hops: the chain interleaves branches
				// with different deadline bases (a mirror piece against its
				// primary). Not a consumption; count and skip.
				t.Reordered++
				continue
			}
			charge(cur.Kind, cur.Disk, consumed)
		}
	}
	for _, r := range comps {
		t.Rows = append(t.Rows, *r)
	}
	for _, r := range disks {
		t.DiskRows = append(t.DiskRows, *r)
	}
	if t.TotalNs > 0 {
		for i := range t.Rows {
			t.Rows[i].Share = float64(t.Rows[i].TotalNs) / float64(t.TotalNs)
		}
		for i := range t.DiskRows {
			t.DiskRows[i].Share = float64(t.DiskRows[i].TotalNs) / float64(t.TotalNs)
		}
	}
	sortRows(t.Rows)
	sortRows(t.DiskRows)
	return t
}

// sortRows orders by total consumed descending, then by (component,
// disk) for deterministic output.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalNs != rows[j].TotalNs {
			return rows[i].TotalNs > rows[j].TotalNs
		}
		if rows[i].Component != rows[j].Component {
			return rows[i].Component < rows[j].Component
		}
		return rows[i].Disk < rows[j].Disk
	})
}

// renderDiskRows caps the per-disk section of the rendered table: rows
// are sorted largest-consumer first, so past the head they are the
// healthy drives saying nothing interesting. The JSON form keeps all.
const renderDiskRows = 8

// Render writes the fixed-width "where the slack went" table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "slack attribution: %d chains, %d hops, %.3f ms consumed",
		t.Chains, t.Hops, float64(t.TotalNs)/1e6)
	if t.Misses > 0 || t.Descheds > 0 {
		fmt.Fprintf(w, " (%d misses, %d descheds)", t.Misses, t.Descheds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %8s %12s %12s %7s\n", "component", "count", "total ms", "max ms", "share")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-12s %8d %12.3f %12.3f %6.1f%%\n",
			r.Component, r.Count, float64(r.TotalNs)/1e6, float64(r.MaxNs)/1e6, 100*r.Share)
	}
	if len(t.DiskRows) > 0 {
		fmt.Fprintf(w, "%-12s %8s %12s %12s %7s\n", "per-disk", "count", "total ms", "max ms", "share")
		for i, r := range t.DiskRows {
			if i == renderDiskRows {
				fmt.Fprintf(w, "… %d more per-disk rows (full set in the JSON report)\n",
					len(t.DiskRows)-renderDiskRows)
				break
			}
			fmt.Fprintf(w, "%-12s %8d %12.3f %12.3f %6.1f%%  disk %d\n",
				r.Component, r.Count, float64(r.TotalNs)/1e6, float64(r.MaxNs)/1e6, 100*r.Share, r.Disk)
		}
	}
}
