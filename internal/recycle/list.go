// Package recycle is the free list every owner of reused records keeps,
// and the switch that turns reuse off. Under the build tag norecycle no
// record is reused, and one handed back is poisoned, so a holder that
// reads it afterwards reads poison, not a new occupant.
package recycle

// List holds one owner's records ready for reuse, last in first out.
type List[T any] []T

// Get takes the record put last, or reports false when there is none:
// the owner then makes and binds a fresh one.
func (l *List[T]) Get() (x T, ok bool) {
	n := len(*l)
	if off || n == 0 {
		return x, false
	}
	x, (*l)[n-1] = (*l)[n-1], x
	*l = (*l)[:n-1]
	return x, true
}

// Put hands x back. The list keeps at most bound records, any number when
// bound is 0, and leaves the rest to the collector.
func (l *List[T]) Put(x T, bound int) {
	if Reuse(x) && (bound == 0 || len(*l) < bound) {
		*l = append(*l, x)
	}
}

// Reuse reports whether x, handed back by the last holder that reads it,
// may be reused. Under norecycle it poisons x first and reports false.
func Reuse(x any) bool {
	poison(x)
	return !off
}

// Wipe empties the list, for a restart.
func (l *List[T]) Wipe() { *l = nil }
