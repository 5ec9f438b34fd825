package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WritePrometheus encodes the registry in the Prometheus text exposition
// format (version 0.0.4): families in name order, series in label order,
// histograms as cumulative _bucket series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.gather() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for i := range f.list {
			s := &f.list[i]
			if f.kind == kindHistogram {
				writePromHistogram(bw, f.name, s)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, wrapLabels(s.labels), formatValue(s.value))
		}
	}
	return bw.Flush()
}

func wrapLabels(canon string) string {
	if canon == "" {
		return ""
	}
	return "{" + canon + "}"
}

// joinLabels appends extra to a canonical label string.
func joinLabels(canon, extra string) string {
	if canon == "" {
		return extra
	}
	return canon + "," + extra
}

func writePromHistogram(w io.Writer, name string, s *series) {
	counts, sum, n := s.hist.snapshot()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(s.hist.bounds) {
			le = formatValue(s.hist.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name,
			joinLabels(s.labels, fmt.Sprintf("le=%q", le)), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, wrapLabels(s.labels), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, wrapLabels(s.labels), n)
}

// Point is one series in a JSONL snapshot. Counters and gauges carry
// Value; histograms carry Sum, Count, and the per-bucket (non-cumulative)
// counts aligned with Bounds, the final count being the overflow bucket.
type Point struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Bounds []float64         `json:"bounds,omitempty"`
	Counts []uint64          `json:"counts,omitempty"`
}

// Snapshot returns every series as a Point, in encode order.
func (r *Registry) Snapshot() []Point {
	var out []Point
	for _, f := range r.gather() {
		for _, s := range f.list {
			p := Point{Name: f.name, Type: string(f.kind), Labels: parseCanon(s.labels)}
			if f.kind == kindHistogram {
				counts, sum, n := s.hist.snapshot()
				p.Sum, p.Count = sum, n
				p.Bounds = append([]float64(nil), s.hist.bounds...)
				p.Counts = counts
			} else {
				p.Value = s.value
			}
			out = append(out, p)
		}
	}
	return out
}

// parseCanon reverses Labels.String for snapshot export. The canonical
// form is k="v"[,k="v"]... with only backslash and newline escapes.
func parseCanon(canon string) map[string]string {
	if canon == "" {
		return nil
	}
	out := make(map[string]string)
	rest := canon
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			break
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val []byte
		i := 0
		for i < len(rest) {
			ch := rest[i]
			if ch == '\\' && i+1 < len(rest) {
				nxt := rest[i+1]
				if nxt == 'n' {
					val = append(val, '\n')
				} else {
					val = append(val, nxt)
				}
				i += 2
				continue
			}
			if ch == '"' {
				break
			}
			val = append(val, ch)
			i++
		}
		out[key] = string(val)
		rest = rest[i:]
		if len(rest) > 0 && rest[0] == '"' {
			rest = rest[1:]
		}
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	return out
}

// WriteJSONL streams the registry snapshot as one JSON object per line —
// the machine-readable form tigerbench embeds in its BENCH_* artifacts.
func (r *Registry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range r.Snapshot() {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return bw.Flush()
}
