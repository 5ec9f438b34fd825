package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are written down. The program reads it at start,
// so a metric it forgets to report, or reports under a name the file does
// not list, fails the run instead of silently drifting from the contract.
type benchSpec struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the repository root (`go run
// ./bench`) or from the package directory (`go test ./bench`).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", firstErr)
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// defs returns the metric list a run must print: end-to-end metrics from
// an untraced run, per-layer metrics from a traced one.
func (s *benchSpec) defs(traced bool) []metricDef {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// result is what one run of one workload produced.
type result struct {
	Traced    bool
	Attempted int64 // start requests made
	Failed    int64 // start requests refused or never served
	values    map[string]float64
	notes     []string // human-readable lines printed above the result
	problems  []string // correctness-gate failures; empty means correct
}

func newResult(traced bool) *result {
	return &result{Traced: traced, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

func (r *result) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// check applies the part of the correctness gate that is about the
// metrics themselves: every listed metric present, none unlisted, none
// NaN, infinite or negative.
func (r *result) check(defs []metricDef) {
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
		v, ok := r.values[d.Name]
		switch {
		case !ok:
			r.fail("metric %s missing", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail("metric %s is %v", d.Name, v)
		case v < 0:
			r.fail("metric %s is negative (%v)", d.Name, v)
		}
	}
	var extra []string
	for name := range r.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		r.fail("metric %s is not listed in BENCHMARK.json", name)
	}
}

// outLine is the contract's last line of standard output.
type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line(defs []metricDef) outLine {
	o := outLine{Correct: len(r.problems) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]outMetric{}}
	for _, d := range defs {
		o.Metrics[d.Name] = outMetric{Value: r.values[d.Name], Unit: d.Unit}
	}
	return o
}
