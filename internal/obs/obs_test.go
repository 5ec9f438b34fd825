package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiger/internal/trace"
)

// testStats stands in for a component's stats struct.
type testStats struct {
	Inserts  int64         `metric:"tiger_test_inserts_total" help:"Insertions."`
	Busy     time.Duration `metric:"tiger_test_busy_seconds_total"`
	Nested   inner
	Untagged int64
}

type inner struct {
	View int  `metric:"tiger_test_view_entries,gauge" help:"Entries."`
	Down bool `metric:"tiger_test_down,gauge"`
}

var testSeries = SeriesOf(testStats{})

// constant registers a function-backed counter that always reads v.
func constant(r *Registry, name, help string, ls Labels, v float64) {
	r.CounterFunc(name, help, ls, func() float64 { return v })
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	st := testStats{Inserts: 3, Busy: 1500 * time.Millisecond, Nested: inner{View: 5, Down: true}, Untagged: 9}
	r.AddCollector(func(emit Emit) { testSeries.Collect(emit, Labels{"cub": "0"}.String(), &st) })
	r.GaugeFunc("tiger_test_gauge", "", nil, func() float64 { return 3 })
	// Same name+labels keeps the first registration.
	r.GaugeFunc("tiger_test_gauge", "", nil, func() float64 { return 4 })

	read := func() map[string]Point {
		out := make(map[string]Point)
		for _, p := range r.Snapshot() {
			out[p.Name] = p
		}
		return out
	}
	got := read()
	for name, want := range map[string]float64{
		"tiger_test_inserts_total":      3,
		"tiger_test_busy_seconds_total": 1.5,
		"tiger_test_view_entries":       5,
		"tiger_test_down":               1,
		"tiger_test_gauge":              3,
	} {
		if p, ok := got[name]; !ok || p.Value != want {
			t.Fatalf("%s = %+v (present %v), want %v", name, p, ok, want)
		}
	}
	if len(got) != 5 {
		t.Fatalf("%d series, want 5 (the untagged field must not export): %v", len(got), got)
	}
	if p := got["tiger_test_view_entries"]; p.Type != "gauge" || p.Labels["cub"] != "0" {
		t.Fatalf("gauge point = %+v", p)
	}
	if p := got["tiger_test_inserts_total"]; p.Type != "counter" {
		t.Fatalf("counter point = %+v", p)
	}
	// Nothing is mirrored: the next encode reads the struct again.
	st.Inserts = 8
	if p := read()["tiger_test_inserts_total"]; p.Value != 8 {
		t.Fatalf("after the struct moved, series = %v, want 8", p.Value)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tiger_test_seconds", "", nil, []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	counts, sum, n := h.snapshot()
	if n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if sum != 555.55 {
		t.Fatalf("sum = %v, want 555.55", sum)
	}
	// 0.05 -> le=0.1, 0.5 -> le=1, 5 -> le=10, 50 and 500 -> overflow.
	want := []uint64{1, 1, 1, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	constant(r, "tiger_cub_inserts_total", "Slot insertions.", Labels{"cub": "1"}, 7)
	// A collected series joins the registered one's family, in label order.
	d := &Desc{Name: "tiger_cub_inserts_total", Help: "Slot insertions."}
	view := &Desc{Name: "tiger_view_entries", Gauge: true}
	r.AddCollector(func(emit Emit) {
		emit(d, Labels{"cub": "0"}.String(), 3)
		emit(view, Labels{"cub": "0"}.String(), 12)
	})
	r.GaugeFunc("tiger_up", "", nil, func() float64 { return 1 })
	h := r.Histogram("tiger_lat_seconds", "", nil, []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP tiger_cub_inserts_total Slot insertions.",
		"# TYPE tiger_cub_inserts_total counter",
		`tiger_cub_inserts_total{cub="0"} 3`,
		`tiger_cub_inserts_total{cub="1"} 7`,
		"# TYPE tiger_view_entries gauge",
		"# TYPE tiger_lat_seconds histogram",
		`tiger_lat_seconds_bucket{le="1"} 1`,
		`tiger_lat_seconds_bucket{le="2"} 2`,
		`tiger_lat_seconds_bucket{le="+Inf"} 3`,
		"tiger_lat_seconds_sum 11",
		"tiger_lat_seconds_count 3",
		`tiger_view_entries{cub="0"} 12`,
		"tiger_up 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("encoding missing %q:\n%s", want, out)
		}
	}
	// Series within a family must be label-sorted.
	if strings.Index(out, `cub="0"`) > strings.Index(out, `cub="1"`) {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

func TestSnapshotJSONL(t *testing.T) {
	r := NewRegistry()
	constant(r, "tiger_a_total", "", Labels{"cub": "0"}, 4)
	r.Histogram("tiger_b_seconds", "", nil, []float64{1}).Observe(3)

	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), b.String())
	}
	var p Point
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiger_a_total" || p.Value != 4 || p.Labels["cub"] != "0" {
		t.Fatalf("bad first point: %+v", p)
	}
	if err := json.Unmarshal([]byte(lines[1]), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiger_b_seconds" || p.Count != 1 || p.Sum != 3 || len(p.Counts) != 2 || p.Counts[1] != 1 {
		t.Fatalf("bad histogram point: %+v", p)
	}
}

func TestSpanRecorder(t *testing.T) {
	r := NewRegistry()
	s := NewSpanRecorder(r, Labels{"cub": "2"})
	s.Observe(step(trace.DiskRead, 2*time.Second, 1*time.Second)) // +1 s slack
	s.Observe(step(trace.Miss, 2*time.Second, 3*time.Second))     // -1 s: missed
	if got := s.Hist(trace.DiskRead).Count(); got != 1 {
		t.Fatalf("read count = %d, want 1", got)
	}
	if got := s.Hist(trace.DiskRead).Sum(); got != 1 {
		t.Fatalf("read slack sum = %v, want 1", got)
	}
	// A missed send lands in the same distribution as a made one.
	if got := s.Hist(trace.Serve).Sum(); got != -1 || s.Hist(trace.Miss) != s.Hist(trace.Serve) {
		t.Fatalf("send slack sum = %v, want -1", got)
	}
	// SpanKinds is exactly the kinds that have a stage.
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		if wants, has := SpanKinds&trace.KindSet(k) != 0, s.Hist(k) != nil; wants != has {
			t.Errorf("kind %v: in SpanKinds %v, has a histogram %v", k, wants, has)
		}
	}
}

// TestHistogramMeanMax covers what the experiments read off a histogram
// its owner built without a registry, and that a registry exports that
// same instance.
func TestHistogramMeanMax(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 3} { // 0.01: bounds are inclusive
		h.Observe(v)
	}
	if h.Count() != 5 || h.Max() != 3 {
		t.Fatalf("count %d max %v", h.Count(), h.Max())
	}
	if want := (0.005 + 0.01 + 0.05 + 0.5 + 3) / 5; h.Mean() != want {
		t.Fatalf("mean %v, want %v", h.Mean(), want)
	}
	counts, _, _ := h.snapshot()
	for i, want := range []uint64{2, 1, 1, 1} {
		if counts[i] != want {
			t.Fatalf("bucket %d count %d, want %d", i, counts[i], want)
		}
	}
	r := NewRegistry()
	r.AddHistogram("tiger_test_seconds", "", nil, h)
	for _, p := range r.Snapshot() {
		if p.Name == "tiger_test_seconds" && p.Count != 5 {
			t.Fatalf("registry exports %+v, not the owner's histogram", p)
		}
	}
	neg := NewHistogram(nil)
	neg.Observe(-2)
	neg.Observe(-3)
	if neg.Max() != -2 {
		t.Fatalf("max of negatives %v, want -2", neg.Max())
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds accepted")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestHistogramOverflowBoundary(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(1)                    // inclusive upper bound: in-range
	h.Observe(math.Nextafter(1, 2)) // one past the bound: overflow
	h.Observe(3600)                 // deep overflow
	counts, _, _ := h.snapshot()
	if counts[0] != 1 {
		t.Fatalf("bound bucket %d, want 1 (upper bounds are inclusive)", counts[0])
	}
	if counts[1] != 2 {
		t.Fatalf("overflow bucket %d, want 2", counts[1])
	}
	if h.Max() != 3600 {
		t.Fatalf("max %v", h.Max())
	}
}

// TestConcurrentObserveEncode exercises the registry the way the rt
// runtime does — cub executors observing, and attaching, while the HTTP
// handler encodes — and relies on `go test -race` to catch races.
func TestConcurrentObserveEncode(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 4, 5000
	var n atomic.Int64
	total := &Desc{Name: "tiger_race_total"}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.AddCollector(func(emit Emit) { emit(total, "", float64(n.Load())) })
			h := r.Histogram("tiger_race_seconds", "", nil, DefaultSlackBounds)
			s := NewSpanRecorder(r, Labels{"cub": "7"})
			for j := 0; j < iters; j++ {
				n.Add(1)
				h.Observe(float64(j % 13))
				s.Observe(step(trace.Serve, time.Duration(j), 0))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, p := range r.Snapshot() {
		if p.Name == "tiger_race_total" && p.Value != workers*iters {
			t.Fatalf("counter = %v, want %d", p.Value, workers*iters)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	constant(r, "tiger_esc_total", "", Labels{"path": `a\b` + "\n" + `"q"`}, 1)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\\b\n\"q\""`) {
		t.Fatalf("bad escaping: %s", b.String())
	}
	pts := r.Snapshot()
	if got := pts[0].Labels["path"]; got != `a\b`+"\n"+`"q"` {
		t.Fatalf("snapshot round-trip = %q", got)
	}
}
