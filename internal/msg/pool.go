package msg

import (
	"sync"

	"tiger/internal/recycle"
)

// pooled marks the kinds a cub receives once per block served: a Pool
// keeps these, and only these, for reuse.
var pooled = [numTypes]bool{
	TViewerState: true, TDeschedule: true, THeartbeat: true, TBatch: true, TBlockData: true,
}

// maxFree bounds the records a Pool keeps per kind, so a burst does not
// stay on the heap after it has been handled.
const maxFree = 1024

// Pool holds released records of the per-block kinds (ViewerState,
// Deschedule, Heartbeat, Batch, BlockData) for the next decode to
// overwrite, so a receiver that hands each one back once it has been
// handled decodes a steady stream of them with no allocation. Records of
// every other kind are always fresh, and a receiver may keep them.
//
// A nil *Pool is valid and always empty: decoding with it is the fresh
// decode. A Pool is safe for concurrent use — a connection's reader
// takes records while its executor hands them back.
type Pool struct {
	mu   sync.Mutex
	free [numTypes]recycle.List[Message]
}

// Get returns a record of kind t: one released earlier if p holds one,
// else a fresh one. A recycled record's fields hold whatever they held.
func (p *Pool) Get(t Type) Message {
	if p != nil && pooled[t] {
		p.mu.Lock()
		m, ok := p.free[t].Get()
		p.mu.Unlock()
		if ok {
			return m
		}
	}
	return types[t].new()
}

// Release hands m back for a later Get; a Batch's elements go back with
// it, and it keeps its emptied Msgs slice. The caller must hold no
// reference to m (nor to a Batch's elements) afterwards. A record of a
// kind p does not keep is left alone.
func (p *Pool) Release(m Message) {
	p.mu.Lock()
	p.put(m)
	p.mu.Unlock()
}

func (p *Pool) put(m Message) {
	t := m.Type()
	if !pooled[t] {
		return
	}
	if b, ok := m.(*Batch); ok {
		for i, e := range b.Msgs {
			p.put(e)
			b.Msgs[i] = nil
		}
		b.Msgs = b.Msgs[:0]
	}
	p.free[t].Put(m, maxFree)
}
