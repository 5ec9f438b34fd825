package disk

import (
	"container/heap"

	"tiger/internal/sim"
)

// pending is one outstanding read. The drive owns the records: Read takes
// one from the drive's free list and it goes back when the read leaves
// the drive — withdrawn from the queue by Cancel, or at its completion
// event — so a steady stream of reads allocates nothing.
type pending struct {
	size int64
	zone Zone
	due  sim.Time
	seq  uint64
	done func(completed sim.Time, ok bool)
	// cancelled marks a read withdrawn after service started: the
	// platter operation cannot be stopped, but the completion callback
	// is suppressed.
	cancelled bool

	// Set when service starts, read by the completion event.
	completed sim.Time
	failed    bool
	// complete is the completion event's callback, bound to the record
	// once when it is first allocated.
	complete func()
}

// pendingHeap orders by (due, seq): earliest deadline first, the
// schedule order of the paper's disk operation (§3.1), so a freshly
// inserted viewer's first block (smallest lead) is not stuck behind
// prefetches for far-future sends. Equal deadlines go in arrival order.
type pendingHeap []*pending

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(*pending)) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

var _ heap.Interface = (*pendingHeap)(nil)
