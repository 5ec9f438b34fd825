package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecShape holds BENCHMARK.json to the limits of the contract it is
// written to, so a later edit cannot be refused before a single run.
func TestSpecShape(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, sim := simSpecs[w.Name]; !sim && w.Name != "tcp-loopback" {
			t.Errorf("workload %s is listed but not implemented", w.Name)
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		name("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range spec.PerLayer {
		name("per-layer", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

// smoke runs one workload shrunk to about a second, in this process, and
// returns the contract line it printed last.
func smoke(t *testing.T, spec *benchSpec, workload string, traced bool) outLine {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	res, err := runWorkload(spec, workload, runConfig{seed: 1, seconds: 1, traced: traced, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if code := report(&buf, spec, res); code != 0 {
		t.Errorf("%s: exit code %d\n%s", workload, code, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line outLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", workload, line.Correct, line.Attempted, line.Failed)
	}
	return line
}

func sameNames(t *testing.T, what string, got map[string]outMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: %s not printed", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s printed in %q, listed in %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// endToEndLines keeps TestSmokeEndToEnd's results, so that
// TestVirtualTimeRepeats needs only one more run to have two.
var endToEndLines = map[string]outLine{}

// TestSmokeEndToEnd: every workload prints exactly BENCHMARK.json's
// end-to-end metrics, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		line := smoke(t, spec, w.Name, false)
		endToEndLines[w.Name] = line
		sameNames(t, w.Name, line.Metrics, spec.EndToEnd)
		for name, m := range line.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
			}
		}
	}
}

// TestSmokeTraced: the traced pass prints exactly the per-layer metrics;
// across the workloads every one of them is produced (non-zero) somewhere,
// apart from counters that are zero on a healthy run.
func TestSmokeTraced(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	workloads := spec.Workloads
	if testing.Short() {
		workloads = workloads[:1] // the others take the test past ten seconds
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		line := smoke(t, spec, w.Name, true)
		sameNames(t, w.Name+" traced", line.Metrics, spec.PerLayer)
		for name, m := range line.Metrics {
			if m.Value != 0 {
				produced[name] = true
			}
		}
	}
	if testing.Short() {
		return
	}
	healthyZero := regexp.MustCompile(`^(core\.(conflicts|states_late|server_misses|starts_dup|desched_dup_frac)|rt\.mesh_|rt\.late_ms_p50|obs\.chains_evicted|attr\.(miss|desched)_|tiger\.oracle_flags|.*_allocs$)`)
	for _, d := range spec.PerLayer {
		if !produced[d.Name] && !healthyZero.MatchString(d.Name) {
			t.Errorf("per-layer metric %s was 0 on every workload", d.Name)
		}
	}
}

// TestVirtualTimeRepeats: at one seed the simulated statistics are
// bit-identical from run to run; only host costs may differ.
func TestVirtualTimeRepeats(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	a, ran := endToEndLines["churn-fail-14"]
	if !ran { // run alone with -run
		a = smoke(t, spec, "churn-fail-14", false)
	}
	b := smoke(t, spec, "churn-fail-14", false)
	for _, name := range []string{"delivered_frac", "start_ok_frac", "capacity_frac"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v at the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Attempted != b.Attempted {
		t.Errorf("starts requested: %d then %d at the same seed", a.Attempted, b.Attempted)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"-trace":                    "-trace 1",
		"--trace 0 -seed 2":         "--trace 0 -seed 2",
		"-trace -workload x":        "-trace 1 -workload x",
		"-workload x --trace 1":     "-workload x --trace 1",
		"-seconds 3 -trace -seed 1": "-seconds 3 -trace 1 -seed 1",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestIQRMatchesDriver pins the spread to Python's
// statistics.quantiles(v, n=4): for 1..10 the quartiles are 2.75 and 8.25.
func TestIQRMatchesDriver(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrOverMedian(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrOverMedian(1..10) = %v, want %v", got, want)
	}
}
