// Command tigerbench regenerates the paper's evaluation: every figure
// and table of "Distributed Schedule Management in the Tiger Video
// Fileserver" (SOSP '97), plus the ablations described in DESIGN.md and
// the fault sweeps that go beyond the paper.
//
// Usage:
//
//	tigerbench -exp all            # quick versions of everything
//	tigerbench -exp fig8 -paper    # the full §5 procedure (50 s steps)
//	tigerbench -exp loss -hold 1h  # the paper's hour at full load
//	tigerbench -exp correlated -arms single,whole-domain  # some arms of a fault sweep
//
// All runs are deterministic in virtual time; -seed varies the workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tiger"
)

var (
	expFlag  = flag.String("exp", "all", "experiment to run, \"all\", or \"list\" to print every name with a description")
	parallel = flag.Int("parallel", 1, "worker-pool width for multi-point sweeps (0 = GOMAXPROCS); results are identical at any width")
	paper    = flag.Bool("paper", false, "use the paper's full-scale procedure (30-stream steps, 50 s settles)")
	hold     = flag.Duration("hold", 0, "steady-state hold for the loss experiment (paper: 1h; default scales with -paper)")
	seed     = flag.Int64("seed", 1, "workload seed")
	clients  = flag.Bool("client-drops", false, "model overloaded client machines (the paper's 8 client-side losses)")
	failedAt = flag.Int("fail-cub", 5, "cub to fail in failed-mode runs")
	outDir   = flag.String("out", "", "also write machine-readable BENCH_*.json result artifacts into this directory")

	grayFactorsFlag = flag.String("grayfactors", "1.5,2,3", "comma-separated disk slowdown factors for the grayfail sweep")
	grayHold        = flag.Duration("grayhold", 45*time.Second, "post-injection hold per grayfail point")
	attrFlag        = flag.Bool("attr", false, "enable causal tracing and print per-component deadline-slack attribution (grayfail, loss, elastic)")

	scaleCubsFlag = flag.String("scalecubs", "14,28,56,112,250,500,1000",
		"comma-separated cub counts for the scalability sweep")
	scaleSettle = flag.Duration("scalesettle", 30*time.Second, "post-ramp settle per scalability point")
	scaleHold   = flag.Duration("scalehold", 60*time.Second, "measured hold per scalability point")
	nsEvBudget  = flag.Float64("nsevent-budget", 0,
		"fail if any scalability point exceeds this many wall ns per simulation event (0 = report only)")
	allocsBudget = flag.Float64("allocs-budget", 0,
		"fail if any scalability point exceeds this many heap allocations per simulation event (0 = report only)")

	armsFlag = flag.String("arms", "",
		"comma-separated arms to run of the elastic (clean|crash|partition|disk-slow), correlated or failover sweep; empty runs every arm")
)

// experiment is one entry of the -exp registry: a name, a one-line
// description for -exp list (and the unknown-name error), and whether
// the experiment runs as part of -exp all or only when named (the slow
// multi-minute sweeps).
type experiment struct {
	name  string
	desc  string
	inAll bool
	fn    func() error
}

// listExperiments prints the registry, one line per experiment.
func listExperiments(w io.Writer, exps []experiment) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range exps {
		extra := ""
		if !e.inAll {
			extra = " [slow: runs only when named, not under -exp all]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", e.name, e.desc, extra)
	}
}

// writeJSON writes one experiment's full result object to
// <outDir>/BENCH_<name>.json when -out is set.
func writeJSON(name string, v any) error {
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*outDir, "BENCH_"+name+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeArtifact streams into <outDir>/BENCH_<name> when -out is set
// (JSONL exports too big to hold as one object).
func writeArtifact(name string, fill func(io.Writer) error) error {
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*outDir, "BENCH_"+name))
	if err != nil {
		return err
	}
	defer f.Close()
	return fill(f)
}

func main() {
	flag.Parse()
	o := tiger.DefaultOptions()
	o.Seed = *seed
	if !*clients {
		o.ClientDropProb = 0
	}

	ramp := quickRamp()
	lossHold := 3 * time.Minute
	if *paper {
		ramp = paperRamp()
		lossHold = time.Hour
	}
	if *hold > 0 {
		lossHold = *hold
	}

	// The registry: run order is "-exp all" order. The slow multi-minute
	// sweeps (scalability reaches 1000 cubs; elastic, correlated and
	// failover hold full-capacity clusters through whole fault cycles)
	// run only when named.
	exps := []experiment{
		{"capacity", "§5 capacity plan: block service time, streams per disk, rated streams", true, func() error { return capacity(o) }},
		{"fig8", "load curve with no cubs failed (Figure 8)", true, func() error { return loadCurve(o, -1, ramp) }},
		{"fig9", "load curve with one cub failed, mirrors serving (Figure 9)", true, func() error { return loadCurve(o, *failedAt, ramp) }},
		{"fig10", "stream startup latency vs schedule load (Figure 10)", true, func() error { return fig10(o, ramp) }},
		{"loss", "block loss rates at full load, unfailed and failed-mode (§5)", true, func() error { return loss(o, lossHold) }},
		{"reconfig", "schedule reconfiguration after a power cut at 50% load", true, func() error { return reconfig(o) }},
		{"scale", "distributed vs centralized control traffic (§3.3)", true, func() error { return scale(o) }},
		{"ablate-fwd", "ablation A1: double vs single viewer-state forwarding", true, func() error { return ablateFwd(o) }},
		{"ablate-dc", "ablation A2: decluster-factor trade-off", true, func() error { return ablateDc(o) }},
		{"ablate-lead", "ablation A3: viewer-state lead sweep", true, func() error { return ablateLead(o) }},
		{"flash", "flash crowd: every viewer requests the same title at once", true, func() error { return flash(o) }},
		{"chaos", "partition-duration sweep: split-brain healing, death refutation", true, func() error { return chaosSweep(o) }},
		{"grayfail", "fail-slow disk sweep: detect, hedge, quarantine", true, func() error { return grayfail(o) }},
		{"elastic", "online restripe sweep: grow and shrink the array while serving", false, func() error { return elastic(o) }},
		{"failover", "controller crash + epoch-fenced takeover: scavenged state rebuild", false, func() error { return failover(o) }},
		{"score", "deadline-slack score across the standard scenarios", true, func() error { return score(o) }},
		{"observe", "observability capture: metrics snapshot + protocol event trace", true, func() error { return observe(o) }},
		{"ablate-frag", "ablation A4: network-schedule start quantization", true, func() error { return ablateFrag() }},
		{"scalability", "warehouse scale: rated capacity vs resource bounds, 14 to 1000 cubs", false, func() error { return scalability(o) }},
		{"correlated", "correlated failures: domains, mirror exhaustion, degradation governor", false, func() error { return correlated(o) }},
	}

	if *expFlag == "list" {
		listExperiments(os.Stdout, exps)
		return
	}
	if *expFlag != "all" {
		known := false
		for _, e := range exps {
			if e.name == *expFlag {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "tigerbench: unknown experiment %q\n\n", *expFlag)
			listExperiments(os.Stderr, exps)
			os.Exit(1)
		}
	}

	for _, e := range exps {
		if *expFlag == "all" && !e.inAll {
			continue
		}
		if *expFlag != "all" && e.name != *expFlag {
			continue
		}
		start := time.Now()
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v wall time]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// observe runs a modest load and exports the observability artifacts: a
// full metrics snapshot (JSONL, one series per line) and the protocol
// event trace. It also prints the block-lifecycle deadline-slack
// distribution, the tentpole series of the unified metrics layer.
func observe(o tiger.Options) error {
	header("Observability capture: metrics registry + protocol trace",
		"every stage of a block's lifecycle measured against its deadline")
	c, err := tiger.New(o)
	if err != nil {
		return err
	}
	ring := c.EnableTrace(1 << 16)
	if err := c.RampTo(100); err != nil {
		return err
	}
	c.RunFor(30 * time.Second)

	// Fold the per-cub deadline-slack histograms into one line per stage.
	type agg struct {
		count, neg uint64
		sum        float64
	}
	stages := map[string]*agg{}
	for _, p := range c.Registry().Snapshot() {
		if p.Name != "tiger_block_deadline_slack_seconds" {
			continue
		}
		st := p.Labels["stage"]
		a := stages[st]
		if a == nil {
			a = &agg{}
			stages[st] = a
		}
		a.count += p.Count
		a.sum += p.Sum
		// Strictly negative buckets only: a send at exactly its due time
		// has slack 0 and is on time.
		for i, b := range p.Bounds {
			if b < 0 {
				a.neg += p.Counts[i]
			}
		}
	}
	fmt.Printf("%10s %12s %14s %12s\n", "stage", "events", "mean slack", "slack<0")
	for _, st := range []string{"insert", "state", "read", "send", "receipt"} {
		a := stages[st]
		if a == nil || a.count == 0 {
			continue
		}
		fmt.Printf("%10s %12d %13.3fs %12d\n", st, a.count, a.sum/float64(a.count), a.neg)
	}
	fmt.Printf("trace: %d events recorded, %d evicted (ring %d)\n",
		ring.Total(), ring.Dropped(), ring.Len())

	if err := writeArtifact("observe_metrics.jsonl", c.ExportMetrics); err != nil {
		return err
	}
	return writeArtifact("observe_events.jsonl", c.ExportEvents)
}

func header(title, paperSays string) {
	fmt.Println(strings.Repeat("=", 78))
	fmt.Println(title)
	if paperSays != "" {
		fmt.Printf("paper: %s\n", paperSays)
	}
	fmt.Println(strings.Repeat("-", 78))
}

// splitArms parses a comma-separated arm-selection flag.
func splitArms(s string) []string {
	var arms []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			arms = append(arms, a)
		}
	}
	return arms
}
