package sim

import "fmt"

// Sharded is a conservative parallel coordinator over S independent
// engines ("shards"). It exploits the classic lookahead property of
// conservative parallel DES (Chandy–Misra–Bryant): if every cross-shard
// interaction is delayed by at least the lookahead L — in Tiger, the
// network's minimum link latency — then within any window [T, T+L) the
// shards cannot affect each other, so their event queues may be executed
// concurrently without violating the global event order.
//
// The protocol per window is:
//
//  1. Run every shard's engine up to the window end — strictly before
//     the end for interior windows (RunBefore), inclusively for the
//     final window of a RunUntil (RunUntil). During the window a shard
//     may Post cross-shard work; the lookahead bound guarantees every
//     posted instant is at or after the window end.
//  2. Barrier.
//  3. Drain the S×S mailboxes single-threaded in a fixed order —
//     destination-major, then source 0..S-1, preserving append order —
//     injecting each posted callback into its destination engine, then
//     run the barrier hook (OnBarrier), still single-threaded, where the
//     model may touch any shard's state.
//
// Because shard execution is deterministic (each engine's order is a
// pure function of its queue) and the drain order is fixed, the
// sequence numbers assigned to injected events — and therefore the
// global tie-break order — are identical for any worker count,
// including 1. That is the byte-identical guarantee: a W-worker run of
// an S-sharded model produces exactly the bytes of the same model run
// serially.
type Sharded struct {
	engines   []*Engine
	lookahead Duration
	workers   int
	now       Time
	// mail[src][dst] is written only by shard src during a window and
	// read only by the coordinator after the barrier, so it needs no
	// lock; the WaitGroup/channel barrier provides the happens-before.
	mail [][][]post
	hook func()
}

// post is one cross-shard injection: run fn at instant at on the
// destination shard.
type post struct {
	at Time
	fn func()
}

// window is one conservative execution quantum.
type window struct {
	end   Time
	final bool
}

// NewSharded builds a coordinator over the given engines. lookahead is
// the minimum cross-shard interaction delay (the model must guarantee
// it; Tiger uses the network's base link latency). workers bounds the
// goroutines executing shards concurrently; 1 runs the same partitioned
// model serially, byte-identically.
func NewSharded(engines []*Engine, lookahead Duration, workers int) *Sharded {
	if len(engines) == 0 {
		panic("sim: NewSharded with no engines")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{engines: engines, lookahead: lookahead, workers: workers}
	s.mail = make([][][]post, len(engines))
	for i := range s.mail {
		s.mail[i] = make([][]post, len(engines))
	}
	return s
}

// Shards reports the number of shards.
func (s *Sharded) Shards() int { return len(s.engines) }

// Now returns the coordinator's virtual time: every engine has been run
// at least to this instant.
func (s *Sharded) Now() Time { return s.now }

// Processed sums the events executed across all shards.
func (s *Sharded) Processed() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.processed
	}
	return n
}

// Post schedules fn at instant at on shard dst. It must be called from
// shard src's execution context (its engine's callbacks) during a
// window, and at must be no earlier than the end of that window — which
// the lookahead contract guarantees when at is at least the posting
// shard's current time plus the lookahead.
func (s *Sharded) Post(src, dst int, at Time, fn func()) {
	s.mail[src][dst] = append(s.mail[src][dst], post{at: at, fn: fn})
}

// OnBarrier sets fn to run on the coordinator after every drain: the
// one that opens each RunUntil and the one after every window. No shard
// runs while fn does.
func (s *Sharded) OnBarrier(fn func()) { s.hook = fn }

// RunUntil advances the whole sharded model to t, window by window.
func (s *Sharded) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: sharded RunUntil(%v) before now %v", t, s.now))
	}
	run := s.serialWindows
	if s.workers > 1 && len(s.engines) > 1 {
		var stop func()
		run, stop = s.parallelWindows()
		defer stop()
	}
	// Driver code running between RunUntil calls (shard 0's execution
	// context at the coordinator's current time) may itself have posted
	// cross-shard work; fold it into the engine queues before the first
	// window so the idle hop below sees it. Such posts respect the same
	// lookahead bound, so they are never in any engine's past.
	s.drain()
	for {
		start := s.now
		// Hop over idle stretches: with every mailbox drained, nothing
		// can fire anywhere before the earliest queued event.
		if nxt, ok := s.nextEvent(); !ok {
			start = t
		} else if nxt > start {
			start = nxt
			if start > t {
				start = t
			}
		}
		end := start.Add(s.lookahead)
		if end >= t {
			run(window{end: t, final: true})
			s.drain()
			s.now = t
			return
		}
		run(window{end: end, final: false})
		s.drain()
		s.now = end
	}
}

// RunFor advances the sharded model by d.
func (s *Sharded) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// runShard executes one shard's window.
func (s *Sharded) runShard(i int, w window) {
	if w.final {
		s.engines[i].RunUntil(w.end)
	} else {
		s.engines[i].RunBefore(w.end)
	}
}

// serialWindows runs every shard on the calling goroutine.
func (s *Sharded) serialWindows(w window) {
	for i := range s.engines {
		s.runShard(i, w)
	}
}

// parallelWindows starts a persistent worker pool striping shards over
// workers and returns (run one window, stop the pool). The done channel
// receives after a worker's writes, and the next cmd send follows the
// coordinator's drain, so mailbox accesses are ordered without locks.
func (s *Sharded) parallelWindows() (func(window), func()) {
	w := s.workers
	if w > len(s.engines) {
		w = len(s.engines)
	}
	cmd := make([]chan window, w)
	done := make(chan struct{}, w)
	for i := 0; i < w; i++ {
		cmd[i] = make(chan window, 1)
		go func(i int) {
			for win := range cmd[i] {
				for sh := i; sh < len(s.engines); sh += w {
					s.runShard(sh, win)
				}
				done <- struct{}{}
			}
		}(i)
	}
	run := func(win window) {
		for _, c := range cmd {
			c <- win
		}
		for i := 0; i < w; i++ {
			<-done
		}
	}
	stop := func() {
		for _, c := range cmd {
			close(c)
		}
	}
	return run, stop
}

// nextEvent reports the earliest queued event time across all shards.
func (s *Sharded) nextEvent() (Time, bool) {
	var best Time
	ok := false
	for _, e := range s.engines {
		if at, queued := e.Next(); queued && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// drain injects every mailbox post into its destination engine, in a
// fixed order so injected sequence numbers — and hence the global event
// order — do not depend on the worker count, and then runs the barrier
// hook.
func (s *Sharded) drain() {
	for dst := range s.engines {
		e := s.engines[dst]
		for src := range s.engines {
			box := s.mail[src][dst]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				e.At(box[i].at, box[i].fn)
				box[i].fn = nil
			}
			s.mail[src][dst] = box[:0]
		}
	}
	if s.hook != nil {
		s.hook()
	}
}
