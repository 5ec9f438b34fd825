// Command bench is the repository's benchmark (BENCHMARK.json, README.md
// in this directory). Without -workload it runs every workload, each in
// its own process, and prints every metric by name with its unit; with
// -workload it runs that one and ends with the contract's JSON line.
//
//	go run ./bench                       all workloads, end-to-end metrics
//	go run ./bench -trace                ... plus the traced pass (per-layer metrics, ledger)
//	go run ./bench -workload steady-14   one workload
//	go run ./bench -selftest 5           two sets of five passes compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// runConfig is what one run of one workload is told.
type runConfig struct {
	seed    int64
	seconds float64 // measured length; BENCHMARK.json's run_seconds is nominal
	traced  bool
	smoke   bool   // shrink everything to about a second; set only by the package test
	outDir  string // where traced runs write span JSONL
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// normalizeArgs lets -trace stand alone (`go run ./bench -trace`) as well
// as take the driver's 0 or 1 (`--trace 1`).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || strings.HasPrefix(args[i+1], "-") {
				out = append(out, "1")
			}
		}
	}
	return out
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and end with the result as one JSON line")
	seed := fs.Int64("seed", 1, "workload seed: tiger.Options.Seed, the rt hosts' seeds, the tcp client's file choices")
	seconds := fs.Float64("seconds", 0, "measured length; 0 means BENCHMARK.json's run_seconds. Simulated work scales with it")
	trace := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics; 0: end-to-end metrics, tracing off")
	selftest := fs.Int("selftest", 0, "run N passes twice and compare the two sets against the bounds")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: "bench/out"}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *selftest > 0:
		return selfTest(spec, cfg, *selftest, stdout)
	case *workload != "":
		if !spec.hasWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		res, err := runWorkload(spec, *workload, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return report(stdout, spec, res)
	default:
		return runAll(spec, cfg, stdout)
	}
}

// report prints one run: notes, each metric by name and unit, the gate's
// verdict, and last the contract's JSON line.
func report(w io.Writer, spec *benchSpec, res *result) int {
	defs := spec.defs(res.Traced)
	res.check(defs)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, res.values[d.Name], d.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	line, err := json.Marshal(res.line(defs))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(spec *benchSpec, name string, cfg runConfig) (*result, error) {
	res := newResult(cfg.traced)
	if cfg.traced {
		for _, d := range spec.PerLayer {
			res.set(d.Name, 0) // layers this workload bypasses report 0
		}
	}
	var sl *spanLog
	if cfg.traced {
		sl = newSpanLog(name)
	}
	var err error
	if name == "tcp-loopback" {
		err = runTCPWorkload(spec, cfg, res, sl)
	} else {
		err = runSimWorkload(spec, simSpecs[name], cfg, res, sl)
	}
	if err != nil {
		return nil, err
	}
	if path, err := sl.write(cfg.outDir, cfg.seed); err != nil {
		return nil, err
	} else if path != "" {
		res.note("spans written to %s", path)
	}
	return res, nil
}

func runSimWorkload(spec *benchSpec, sp simSpec, cfg runConfig, res *result, sl *spanLog) error {
	o := sp.options(cfg.seed)
	if cfg.smoke {
		if o.Cubs > 14 {
			o.Cubs, o.NumFiles = 14, 56
		}
		sp.settle, sp.slice, sp.slices, sp.setups = 15*time.Second, 5*time.Second, 4*spec.RunSeconds, 1
		sp.chains, sp.steps = 512, 5
		cfg.seconds = 1
	}
	n := scaledSlices(sp.slices, cfg.seconds, spec.RunSeconds, cfg.traced)
	if !cfg.traced {
		r, err := runSim(sp, o, n, sp.setups, false, nil)
		if err != nil {
			return err
		}
		r.gate(res)
		r.endToEnd(res)
		return nil
	}
	ref, err := runSim(sp, o, n, 1, false, nil)
	if err != nil {
		return err
	}
	tr, err := runSim(sp, o, n, 1, true, sl)
	if err != nil {
		return err
	}
	ref.gate(res)
	tr.gate(res)
	ks := kernelsFor(cfg, sl)
	simPerLayer(res, ref, tr, ks)
	res.Attempted, res.Failed = ref.requested, ref.requested-int64(len(ref.startLat))
	if o.Shards > 1 {
		// What sharding costs and buys at this size: the same windows on
		// two workers (wall), and the same cluster on the serial engine
		// (CPU per block).
		par, ser := o, o
		par.ShardWorkers = 0
		ser.Shards, ser.ShardWorkers = 0, 0
		pr, err := runSim(sp, par, n, 1, false, nil)
		if err != nil {
			return err
		}
		sr, err := runSim(sp, ser, n, 1, false, nil)
		if err != nil {
			return err
		}
		_, shardedCal := ref.cpuUsPerBlock()
		_, serialCal := sr.cpuUsPerBlock()
		res.set("sim.shard_par_wall_ratio", ratio(pr.winWall.Seconds(), ref.winWall.Seconds()))
		res.set("sim.shard_cpu_overhead_ratio", ratio(shardedCal, serialCal))
	}
	printLedger(res)
	return nil
}

func runTCPWorkload(spec *benchSpec, cfg runConfig, res *result, sl *spanLog) error {
	sp := tcpNominal
	slices := int(cfg.seconds + 0.5)
	if cfg.smoke {
		sp.cubs, sp.disksPerCub = 4, 1
		sp.warm, sp.slice, sp.bringUps = 500*time.Millisecond, 250*time.Millisecond, 2
		slices = 2
	}
	if cfg.traced && !cfg.smoke {
		slices /= 4
	}
	if slices < 1 {
		slices = 1
	}
	if !cfg.traced {
		r, err := runTCP(sp, cfg.seed, slices, false, nil)
		if err != nil {
			return err
		}
		r.gate(res)
		r.endToEnd(res)
		return nil
	}
	ref, err := runTCP(sp, cfg.seed, slices, false, nil)
	if err != nil {
		return err
	}
	tr, err := runTCP(sp, cfg.seed, slices, true, sl)
	if err != nil {
		return err
	}
	ref.gate(res)
	tr.gate(res)
	tcpPerLayer(res, ref, tr, kernelsFor(cfg, sl))
	res.Attempted, res.Failed = ref.attempted(), ref.late
	return nil
}

func kernelsFor(cfg runConfig, sl *spanLog) map[string]kernelResult {
	if cfg.smoke {
		return runKernels(1, 200, sl)
	}
	return runKernels(5, 1, sl)
}

// printLedger notes the layer ledger of a traced simulated run.
func printLedger(res *result) {
	res.note("ledger (ops per block x kernel CPU per op, against raw cpu_us_per_block %.3f us):", res.values["tiger.cpu_us_per_block_raw"])
	for _, layer := range []string{"sim", "disk", "netsim", "viewer"} {
		res.note("  %-8s %8.3f us/block  %5.1f %%", layer,
			res.values["ledger."+layer+"_us_per_block"], 100*res.values["ledger."+layer+"_share"])
	}
	res.note("  %-8s %8s           %5.1f %%  (core and harness: not attributed)", "residual", "", 100*res.values["core.residual_share"])
}

// child runs one workload in a fresh process, so heap and GC state do not
// leak between workloads, and returns its result line.
func child(name string, cfg runConfig, echo io.Writer) (outLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return outLine{}, err
	}
	traced := "0"
	if cfg.traced {
		traced = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", traced}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if echo != nil {
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintf(echo, "  %s\n", l)
		}
	}
	var line outLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return outLine{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return outLine{}, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	if runErr != nil || !line.Correct {
		return line, fmt.Errorf("%s: run incorrect (see INCORRECT lines above)", name)
	}
	return line, nil
}

// runAll is the one command: every workload, every metric by name and
// unit, non-zero exit if any correctness gate failed.
func runAll(spec *benchSpec, cfg runConfig, w io.Writer) int {
	fmt.Fprintf(w, "tiger benchmark: seed %d, %g s nominal per workload, GOMAXPROCS 1 (tcp-loopback 2)\n",
		cfg.seed, cfg.seconds)
	passes := []bool{false}
	if cfg.traced {
		passes = append(passes, true)
	}
	status := 0
	for _, traced := range passes {
		c := cfg
		c.traced = traced
		results := map[string]outLine{}
		for _, wl := range spec.Workloads {
			start := time.Now()
			fmt.Fprintf(w, "%s (trace %v)\n", wl.Name, traced)
			line, err := child(wl.Name, c, w)
			if err != nil {
				fmt.Fprintln(w, "FAILED:", err)
				status = 1
			}
			results[wl.Name] = line
			fmt.Fprintf(w, "  %d operations attempted, %d failed, %.1f s\n", line.Attempted, line.Failed, time.Since(start).Seconds())
		}
		printTable(w, spec, spec.defs(traced), results)
	}
	return status
}

func printTable(w io.Writer, spec *benchSpec, defs []metricDef, results map[string]outLine) {
	fmt.Fprintf(w, "\n%-44s %-8s", "metric", "unit")
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, " %14s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-44s %-8s", d.Name, d.Unit)
		for _, wl := range spec.Workloads {
			if m, ok := results[wl.Name].Metrics[d.Name]; ok {
				fmt.Fprintf(w, " %14.6g", m.Value)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// iqrOverMedian is the spread the driver computes: the distance between
// the first and third quartile as Python's statistics.quantiles(v, n=4)
// gives them (the "exclusive" method: positions (n+1)/4 and 3(n+1)/4,
// counted from 1), as a share of the median.
func iqrOverMedian(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // 1-based position, interpolated, clamped
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	n := float64(len(s) + 1)
	return (at(3*n/4) - at(n/4)) / median(s)
}

// selfTest runs n passes twice, each run with its own seed as the driver
// does, and compares the two sets: for every end-to-end metric and
// workload the two medians, their relative difference in the worse
// direction, the wider of the two sets' interquartile spreads, the range
// over both, and the bound.
func selfTest(spec *benchSpec, cfg runConfig, n int, w io.Writer) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	status := 0
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			c := cfg
			c.traced = false
			c.seed = cfg.seed + int64(set*n+i)
			for _, wl := range spec.Workloads {
				line, err := child(wl.Name, c, nil)
				if err != nil {
					fmt.Fprintln(w, "FAILED:", err)
					status = 1
					continue
				}
				for name, m := range line.Metrics {
					k := key{wl.Name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
			fmt.Fprintf(w, "set %d pass %d done (seed %d)\n", set+1, i+1, c.seed)
		}
	}
	fmt.Fprintf(w, "\n%-19s %-14s %12s %12s %8s %8s %8s %6s\n",
		"metric", "workload", "median 1", "median 2", "worse", "iqr/med", "rng/med", "bound")
	baseline := map[string]map[string]float64{} // workload -> metric -> median of all passes
	for _, d := range spec.EndToEnd {
		for _, wl := range spec.Workloads {
			a, b := sets[0][key{wl.Name, d.Name}], sets[1][key{wl.Name, d.Name}]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			m1, m2 := median(a), median(b)
			worse := (m2 - m1) / m1
			if d.Better == "higher" {
				worse = -worse
			}
			iqr := math.Max(iqrOverMedian(a), iqrOverMedian(b))
			both := append(append([]float64(nil), a...), b...)
			rng := (quantile(both, 1) - quantile(both, 0)) / median(both)
			if baseline[wl.Name] == nil {
				baseline[wl.Name] = map[string]float64{}
			}
			baseline[wl.Name][d.Name] = median(both)
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Fprintf(w, "%-19s %-14s %12.6g %12.6g %+8.4f %8.4f %8.4f %6.3f%s\n",
				d.Name, wl.Name, m1, m2, worse, iqr, rng, d.Bound, verdict)
		}
	}
	// What bench/BASELINE.json holds: BENCHMARK.json's keys are fixed by
	// the driver's contract, so the baseline is committed beside the program.
	if b, err := json.MarshalIndent(baseline, "", "  "); err == nil {
		fmt.Fprintf(w, "\nbaseline (median of all %d passes):\n%s\n", 2*n, b)
	}
	return status
}
