package obs

import (
	"strings"
	"testing"
	"time"

	"tiger/internal/sim"
	"tiger/internal/trace"
)

// step is an event of kind k that fired at now for a service due at due.
func step(k trace.Kind, due, now time.Duration) trace.Event {
	return trace.Event{Kind: k, Due: int64(due), At: sim.Time(now)}
}

// slackStep is an event of kind k with the given slack in seconds.
func slackStep(k trace.Kind, seconds float64) trace.Event {
	return step(k, time.Duration(seconds*float64(time.Second)), 0)
}

// TestSpanDoubleObserve covers re-served blocks: a deschedule and
// re-insertion makes the same stage fire twice for one block. Both
// observations must accumulate — histograms are additive, and no
// duplicate series may appear in the exposition.
func TestSpanDoubleObserve(t *testing.T) {
	r := NewRegistry()
	s := NewSpanRecorder(r, Labels{"cub": "1"})
	s.Observe(step(trace.Insert, 4*time.Second, 1*time.Second))
	s.Observe(step(trace.Insert, 4*time.Second, 2*time.Second)) // re-inserted later
	if got := s.Hist(trace.Insert).Count(); got != 2 {
		t.Fatalf("double observe count = %d, want 2", got)
	}
	if got := s.Hist(trace.Insert).Sum(); got != 5 {
		t.Fatalf("double observe sum = %v, want 3+2", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	series := `tiger_block_deadline_slack_seconds_count{cub="1",stage="insert"}`
	if n := strings.Count(b.String(), series); n != 1 {
		t.Fatalf("%d copies of %s in exposition, want 1", n, series)
	}
}

// TestSpanOutlivesStream covers late observations: the recorder has no
// per-stream lifecycle, so a receipt that straggles in after the stream
// stopped (and after earlier stages went quiet) must still be recorded
// against the same histograms, not dropped or reset.
func TestSpanOutlivesStream(t *testing.T) {
	r := NewRegistry()
	s := NewSpanRecorder(r, nil)
	s.Observe(step(trace.Serve, 2*time.Second, 2*time.Second)) // the stream's last send, zero slack
	before := s.Hist(trace.Receipt).Count()

	// The stream is gone; its final block's last byte arrives much
	// later, deeply past the play deadline.
	s.Observe(slackStep(trace.Receipt, -42.5))
	if got := s.Hist(trace.Receipt).Count(); got != before+1 {
		t.Fatalf("straggler receipt not recorded: %d -> %d", before, got)
	}
	if got := s.Hist(trace.Receipt).Sum(); got != -42.5 {
		t.Fatalf("straggler slack sum = %v, want -42.5", got)
	}
	// Earlier stages are untouched by the straggler.
	if got := s.Hist(trace.Serve).Count(); got != 1 {
		t.Fatalf("send count perturbed: %d", got)
	}
}

// TestSpanBucketSaturation covers slack beyond the histogram bounds in
// both directions: a miss worse than the most negative bound lands in
// the first bucket, margin beyond the largest bound lands in the +Inf
// overflow bucket, and neither is lost.
func TestSpanBucketSaturation(t *testing.T) {
	r := NewRegistry()
	s := NewSpanRecorder(r, nil)
	lo := DefaultSlackBounds[0]
	hi := DefaultSlackBounds[len(DefaultSlackBounds)-1]
	s.Observe(slackStep(trace.DiskRead, lo*10)) // far worse than any bound
	s.Observe(slackStep(trace.DiskRead, hi*10)) // far more margin than any bound
	s.Observe(slackStep(trace.DiskRead, 0))     // exactly on a bound, for contrast

	counts, sum, n := s.Hist(trace.DiskRead).snapshot()
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	if want := lo*10 + hi*10; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	if len(counts) != len(DefaultSlackBounds)+1 {
		t.Fatalf("%d buckets for %d bounds", len(counts), len(DefaultSlackBounds))
	}
	if counts[0] != 1 {
		t.Fatalf("deep miss not in first bucket: %v", counts)
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("deep margin not in overflow bucket: %v", counts)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("bucket totals %d != count %d", total, n)
	}
}
