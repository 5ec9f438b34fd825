package obs

import (
	"time"

	"tiger/internal/trace"
)

// spanStage names, as `stage` label values, the points in a scheduled
// block's lifecycle whose deadline slack is kept as a distribution: slot
// insertion under ownership, the gossiped viewer state arriving at the
// serving cub, the disk read completing, the send coming due (made or
// missed — a late viewer state lands here with negative slack, so the
// distribution shows the whole story), and the last byte reaching the
// client.
var spanStage = [trace.NumKinds]string{
	trace.Insert:   "insert",
	trace.State:    "state",
	trace.DiskRead: "read",
	trace.Serve:    "send",
	trace.Miss:     "send",
	trace.Receipt:  "receipt",
}

// SpanKinds are the steps a SpanRecorder subscribes to.
var SpanKinds = trace.KindSet(trace.Insert, trace.State, trace.DiskRead, trace.Serve, trace.Miss, trace.Receipt)

// DefaultSlackBounds bracket the deadline-slack distribution: negative
// buckets are missed deadlines, positive ones are margin. The range
// covers both demo-scale (250 ms blocks) and paper-scale (1 s blocks)
// timings.
var DefaultSlackBounds = []float64{
	-5, -1, -0.25, -0.05, 0,
	0.05, 0.25, 1, 2.5, 5, 10, 30,
}

// SpanRecorder folds one node's block-lifecycle steps into per-stage
// deadline-slack histograms: each observation is (due - now) in
// seconds, so the distribution directly answers "how much margin did
// the pipeline have at each stage, and how often did it run negative".
// Times are sim.Time from the reporting node's clock, so the same
// recorder reports virtual-time slack under the simulator and wall-clock
// slack under the rt runtime.
type SpanRecorder struct {
	hist [trace.NumKinds]*Histogram // by kind; nil outside SpanKinds
}

// NewSpanRecorder registers the per-stage histograms under
// tiger_block_deadline_slack_seconds with the given extra labels.
func NewSpanRecorder(reg *Registry, ls Labels) *SpanRecorder {
	s := &SpanRecorder{}
	for k, stage := range spanStage {
		if stage == "" {
			continue
		}
		l := Labels{"stage": stage}
		for lk, v := range ls {
			l[lk] = v
		}
		s.hist[k] = reg.Histogram("tiger_block_deadline_slack_seconds",
			"Deadline slack (due minus now, seconds) of block-lifecycle stages; negative is a missed deadline.",
			l, DefaultSlackBounds)
	}
	return s
}

// Observe is the sink subscriber (for SpanKinds): it records the step's
// slack under its stage.
func (s *SpanRecorder) Observe(e trace.Event) {
	s.hist[e.Kind].Observe(time.Duration(e.Slack()).Seconds())
}

// Hist exposes the histogram a step kind is recorded under (tests and
// pretty-printers).
func (s *SpanRecorder) Hist(k trace.Kind) *Histogram { return s.hist[k] }
