// Package obs is the unified observability layer for Tiger: a
// dependency-free metrics registry of named, labelled series, a
// Prometheus-text-format encoder for tigerd's /metrics endpoint, a
// JSONL snapshot export for machine-readable run artifacts, and a
// block-lifecycle span recorder (span.go).
//
// Counters and gauges are collected, not mirrored: a component counts
// in its own stats struct, and a collector (Registry.AddCollector,
// usually over a Series table built from the struct's field tags) reads
// that struct when the registry is encoded. Only distributions are pushed:
// bounded histograms, which take a short mutex because under the rt
// runtime every cub's executor observes in parallel with the HTTP
// scrape handler.
//
// Timestamps flowing into the registry are sim.Time values obtained
// from an internal/clock Clock, so the same series carry virtual time
// when recorded under the simulator and wall-clock time under rt —
// which substrate produced a snapshot is part of the run's metadata,
// not of the encoding.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels attach dimensions to a series (for example
// {"cub": "3", "disk": "12"}). Series with the same name must carry the
// same label keys.
type Labels map[string]string

// kind is the Prometheus metric type of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Histogram is a fixed-bound histogram in the Prometheus style:
// observations land in the first bucket whose upper bound is >= v, the
// encoder emits cumulative bucket counts with `le` labels plus _sum and
// _count series. A short mutex serializes Observe against Encode. It is
// the one histogram type: a component that reads its own distribution
// (a cub's recovery times) owns one from NewHistogram and a registry, if
// there is one, exports that same instance (Registry.AddHistogram).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last is the +Inf overflow bucket
	sum    float64
	max    float64
	n      uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds;
// an implicit overflow bucket takes samples above the last.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must ascend")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the mean sample (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns copies of the bucket counts, sum, and count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return counts, h.sum, h.n
}

// Desc names one family of collected series.
type Desc struct {
	Name, Help string
	Gauge      bool // a counter otherwise
}

// Emit receives one collected sample: its family, its label set in
// canonical form (Labels.String), and its current value.
type Emit func(d *Desc, labels string, v float64)

// series is one labelled time series inside a family: a function read at
// encode time, a histogram, or a value a collector just reported.
type series struct {
	labels string // canonical rendered label set, "" for none
	fn     func() float64
	hist   *Histogram
	value  float64
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series // canonical label string -> series
}

// Registry holds instrument families and encodes them. Creating an
// instrument that already exists (same name and labels) returns the
// existing one, so attach paths are idempotent.
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family
	collectors []func(Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// String renders a label set in canonical form: sorted-key order,
// k="v"[,k="v"]...
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q's escapes (\\, \", \n) coincide with the Prometheus text
		// format's label escapes for the characters Tiger ever emits.
		fmt.Fprintf(&b, "%s=%q", k, ls[k])
	}
	return b.String()
}

func (r *Registry) get(name, help string, k kind, ls Labels, mk func() *series) *series {
	key := ls.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, k))
	}
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labels = key
	f.series[key] = s
	return s
}

// CounterFunc registers a counter whose value is read from fn at encode
// time. fn must be safe to call from any goroutine (read an atomic).
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() float64) {
	r.get(name, help, kindCounter, ls, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a gauge whose value is read from fn at encode
// time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.get(name, help, kindGauge, ls, func() *series { return &series{fn: fn} })
}

// AddCollector registers a collector: at every encode it is called on the
// encoding goroutine and reports current values through emit. This is how
// the counters and gauges a component keeps in its own stats struct reach
// the registry without being mirrored into it — the collector reads the
// struct (or a snapshot taken where the struct may be read) at scrape
// time, typically through a Series table. Register each collector once.
func (r *Registry) AddCollector(c func(Emit)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Histogram returns the histogram with the given name, labels, and
// ascending upper bounds, creating it on first use. Bounds are only
// consulted at creation; later calls reuse the existing buckets.
func (r *Registry) Histogram(name, help string, ls Labels, bounds []float64) *Histogram {
	return r.get(name, help, kindHistogram, ls, func() *series {
		return &series{hist: NewHistogram(bounds)}
	}).hist
}

// AddHistogram exports a histogram its owner built with NewHistogram.
func (r *Registry) AddHistogram(name, help string, ls Labels, h *Histogram) {
	r.get(name, help, kindHistogram, ls, func() *series { return &series{hist: h} })
}

// gathered is one family at encode time, its series evaluated and in
// label order.
type gathered struct {
	name, help string
	kind       kind
	list       []series
}

// gather evaluates every series — registered functions, histograms, and
// whatever the collectors report — into families in name order: the one
// view both encoders walk.
func (r *Registry) gather() []*gathered {
	r.mu.Lock()
	byName := make(map[string]*gathered, len(r.fams))
	var out []*gathered
	add := func(name, help string, k kind) *gathered {
		f := &gathered{name: name, help: help, kind: k}
		byName[name] = f
		out = append(out, f)
		return f
	}
	for _, rf := range r.fams {
		f := add(rf.name, rf.help, rf.kind)
		for _, s := range rf.series {
			f.list = append(f.list, *s)
		}
	}
	collectors := r.collectors
	r.mu.Unlock()

	// Functions and collectors run outside the lock: they read other
	// components' state and may take those components' locks.
	for _, f := range out {
		for i := range f.list {
			if fn := f.list[i].fn; fn != nil {
				f.list[i].value = fn()
			}
		}
	}
	for _, c := range collectors {
		c(func(d *Desc, labels string, v float64) {
			f := byName[d.Name]
			if f == nil {
				k := kindCounter
				if d.Gauge {
					k = kindGauge
				}
				f = add(d.Name, d.Help, k)
			}
			f.list = append(f.list, series{labels: labels, value: v})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for _, f := range out {
		l := f.list
		sort.SliceStable(l, func(i, j int) bool { return l[i].labels < l[j].labels })
	}
	return out
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
