package trace

// Kinds is a set of event kinds.
type Kinds uint32

// AllKinds selects every kind.
const AllKinds = ^Kinds(0)

// KindSet returns the set holding ks.
func KindSet(ks ...Kind) Kinds {
	var s Kinds
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Sink is where protocol steps go. A node reports each step once, into
// the sink of the node it runs on; every consumer — the span histograms,
// the loss log, the slot oracle, the trace ring, the causal chain logs, a
// chaos harness's serve oracle, the flight recorder — is a subscriber.
// Nodes that share a sink (the controller and all cubs of a simulated
// cluster, including cubs created mid-run) share its subscribers.
//
// Subscribers run in subscription order, synchronously, in the emitting
// node's execution context; under a sharded simulation that is a shard
// goroutine, so a subscriber attached there takes its own lock.
// Subscribe and the returned cancel must not race Emit: call them where
// the emitting nodes are not running (before the run, between RunFor
// slices, on an rt node's executor).
type Sink struct {
	want Kinds
	subs []*subscriber
}

type subscriber struct {
	kinds Kinds
	fn    func(Event)
}

// Wants reports whether any subscriber asked for kind k. Emit sites test
// it first, so an event nobody wants costs one test and is never built.
// A nil sink wants nothing.
func (s *Sink) Wants(k Kind) bool { return s != nil && s.want&(1<<k) != 0 }

// Emit hands e to every subscriber of its kind.
func (s *Sink) Emit(e Event) {
	for _, sub := range s.subs {
		if sub.kinds&(1<<e.Kind) != 0 {
			sub.fn(e)
		}
	}
}

// Subscribe adds fn for the given kinds and returns the function that
// removes it again.
func (s *Sink) Subscribe(kinds Kinds, fn func(Event)) (cancel func()) {
	sub := &subscriber{kinds, fn}
	s.set(append(s.subs[:len(s.subs):len(s.subs)], sub))
	return func() {
		var rest []*subscriber
		for _, o := range s.subs {
			if o != sub {
				rest = append(rest, o)
			}
		}
		s.set(rest)
	}
}

// set installs a new subscriber list — never edited in place, so an Emit
// under way keeps walking the list it started on.
func (s *Sink) set(subs []*subscriber) {
	s.subs, s.want = subs, 0
	for _, sub := range subs {
		s.want |= sub.kinds
	}
}
