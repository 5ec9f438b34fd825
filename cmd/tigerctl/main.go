// Command tigerctl is the client for a running tigerd system: it starts
// streams, receives and verifies the blocks (like the paper's
// measurement client, which rendered nothing and checked timeliness),
// and stops streams.
//
//	tigerctl -controller 127.0.0.1:7000 -play 0 -duration 10s
//	tigerctl -controller 127.0.0.1:7000 -play 2 -viewers 5 -duration 30s
//
// The stats subcommand scrapes a tigerd debug endpoint and summarises
// its metrics:
//
//	tigerctl stats -debug 127.0.0.1:9000
//
// The parked subcommand summarises the degradation governor from the
// same endpoint:
//
//	tigerctl parked -debug 127.0.0.1:9000
//
// The why subcommand answers "why was this block late": it fetches the
// causal hop chain of a traced block from the debug endpoint and prints
// where the deadline slack went, hop by hop:
//
//	tigerctl why -debug 127.0.0.1:9000 12          # all chains of instance 12
//	tigerctl why -debug 127.0.0.1:9000 12 340      # just block 340
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiger/internal/msg"
	"tiger/internal/rt"
)

var (
	controller = flag.String("controller", "127.0.0.1:7000", "controller control address")
	play       = flag.Int("play", -1, "file ID to play")
	startBlock = flag.Int("start", 0, "first block wanted")
	bitrate    = flag.Int64("bitrate", 2_000_000, "stream bitrate (bits/s)")
	viewers    = flag.Int("viewers", 1, "number of simultaneous viewers")
	duration   = flag.Duration("duration", 10*time.Second, "how long to play before stopping")
	blockPlay  = flag.Duration("blockplay", 250*time.Millisecond, "expected block play time (for timeliness checks)")
	jsonOut    = flag.Bool("json", false, "emit the final timeliness summary as JSON on stdout")
)

// jsonViewer and jsonSummary are the -json output shape.
type jsonViewer struct {
	Viewer      int64 `json:"viewer"`
	Instance    int64 `json:"instance"`
	Blocks      int64 `json:"blocks"`
	Late        int64 `json:"late"`
	LastPlaySeq int32 `json:"last_playseq"`
	FirstMs     int64 `json:"first_block_ms"` // request to first block
}

type jsonSummary struct {
	Viewers  []jsonViewer `json:"viewers"`
	Total    int64        `json:"total_blocks"`
	Expected int64        `json:"expected_blocks"`
	Late     int64        `json:"late_blocks"`
	OK       bool         `json:"ok"`
}

type viewerState struct {
	id       msg.ViewerID
	inst     atomic.Int64
	blocks   atomic.Int64
	late     atomic.Int64
	lastSeq  atomic.Int32
	firstAt  atomic.Int64 // unix nanos of the first block
	reqAt    time.Time
	received sync.Map // playseq -> arrival time
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "why" {
		runWhy(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "parked" {
		runParked(os.Args[2:])
		return
	}
	flag.Parse()
	if *play < 0 {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -play <fileID>")
		flag.Usage()
		os.Exit(2)
	}
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	vc, err := rt.NewViewerClient("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer vc.Close()

	states := make(map[msg.ViewerID]*viewerState)
	var mu sync.Mutex
	acks := make(chan *msg.StartAck, 16)
	vc.SetHandlers(
		func(b *msg.BlockData) {
			mu.Lock()
			vs := states[b.Viewer]
			mu.Unlock()
			if vs == nil || msg.InstanceID(vs.inst.Load()) != b.Instance {
				return
			}
			now := time.Now()
			n := vs.blocks.Add(1)
			vs.lastSeq.Store(b.PlaySeq)
			if n == 1 {
				vs.firstAt.Store(now.UnixNano())
				log.Printf("viewer %d: first block after %v (file %d block %d, %d bytes)",
					b.Viewer, now.Sub(vs.reqAt).Round(time.Millisecond), b.File, b.Block, b.Bytes)
				return
			}
			// Timeliness: block k should arrive ~k block-play-times after
			// the first.
			expected := time.Unix(0, vs.firstAt.Load()).
				Add(time.Duration(b.PlaySeq) * *blockPlay)
			if now.After(expected.Add(*blockPlay / 2)) {
				vs.late.Add(1)
			}
		},
		func(a *msg.StartAck) { acks <- a },
	)

	cc, err := rt.DialController(*controller)
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()

	for i := 0; i < *viewers; i++ {
		vid := msg.ViewerID(os.Getpid()*1000 + i)
		vs := &viewerState{id: vid, reqAt: time.Now()}
		mu.Lock()
		states[vid] = vs
		mu.Unlock()
		if err := cc.Start(vid, vc.Addr(), msg.FileID(*play), int32(*startBlock), int32(*bitrate)); err != nil {
			log.Fatal(err)
		}
	}

	// Collect acks (they carry the instance IDs needed to stop).
	pending := *viewers
	timeout := time.After(10 * time.Second)
	var instances []msg.InstanceID
	for pending > 0 {
		select {
		case a := <-acks:
			mu.Lock()
			if vs := states[a.Viewer]; vs != nil {
				vs.inst.Store(int64(a.Instance))
			}
			mu.Unlock()
			instances = append(instances, a.Instance)
			log.Printf("start acked: viewer %d instance %d slot %d", a.Viewer, a.Instance, a.Slot)
			pending--
		case <-timeout:
			log.Fatalf("timed out waiting for %d start acks", pending)
		}
	}

	time.Sleep(*duration)

	for _, inst := range instances {
		if err := cc.Stop(inst); err != nil {
			log.Printf("stop %d: %v", inst, err)
		}
	}
	time.Sleep(500 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	var total, late int64
	var sum jsonSummary
	for _, vs := range states {
		b, l := vs.blocks.Load(), vs.late.Load()
		total += b
		late += l
		log.Printf("viewer %d: %d blocks (last playseq %d), %d late", vs.id, b, vs.lastSeq.Load(), l)
		firstMs := int64(-1)
		if at := vs.firstAt.Load(); at != 0 {
			firstMs = time.Unix(0, at).Sub(vs.reqAt).Milliseconds()
		}
		sum.Viewers = append(sum.Viewers, jsonViewer{
			Viewer: int64(vs.id), Instance: vs.inst.Load(),
			Blocks: b, Late: l, LastPlaySeq: vs.lastSeq.Load(), FirstMs: firstMs,
		})
	}
	expected := int64(float64(*viewers) * duration.Seconds() / blockPlay.Seconds())
	log.Printf("total: %d blocks received (~%d expected), %d late", total, expected, late)
	sum.Total, sum.Expected, sum.Late = total, expected, late
	sum.OK = total >= expected*8/10
	if *jsonOut {
		sort.Slice(sum.Viewers, func(i, j int) bool { return sum.Viewers[i].Viewer < sum.Viewers[j].Viewer })
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
	}
	if !sum.OK {
		os.Exit(1)
	}
}

// sample is one series of a /metrics scrape: its name, its label block
// ("" or {k="v",...}) and its value.
type sample struct {
	name, labels string
	value        float64
}

// label returns the value of label key in the sample's label block, or
// "" when it has none.
func (s sample) label(key string) string {
	_, rest, ok := strings.Cut(s.labels, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// getMetrics fetches a tigerd debug endpoint's /metrics, exiting on
// failure.
func getMetrics(addr string) io.ReadCloser {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatalf("scrape %s: %v", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("scrape %s: %s", addr, resp.Status)
	}
	return resp.Body
}

// scrape returns every sample of a tigerd debug endpoint's /metrics, in
// exposition order, skipping comments and unparsable lines.
func scrape(addr string) []sample {
	body := getMetrics(addr)
	defer body.Close()
	var out []sample
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := sample{name: line[:sp], value: v}
		if b := strings.IndexByte(s.name, '{'); b >= 0 {
			s.name, s.labels = s.name[:b], s.name[b:]
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading scrape: %v", err)
	}
	return out
}

// whyChain is one line of the /debug/trace/{instance} ndjson body.
type whyChain struct {
	Instance uint64 `json:"instance"`
	Block    int32  `json:"block"`
	Hops     []struct {
		AtNs    int64  `json:"at_ns"`
		Node    int32  `json:"node"`
		Kind    string `json:"kind"`
		SlackNs int64  `json:"slack_ns"`
		Slot    int32  `json:"slot"`
		Disk    int32  `json:"disk"`
		Mirror  bool   `json:"mirror"`
	} `json:"hops"`
}

// runWhy fetches a traced block's causal hop chain from a tigerd debug
// endpoint and prints it with per-hop slack deltas, so a late or missed
// block can be attributed to the component that consumed its deadline.
func runWhy(args []string) {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	jsonRaw := fs.Bool("json", false, "dump the raw chain JSONL instead of the table")
	fs.Parse(args)
	if fs.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tigerctl why [-debug addr] <instance> [block]")
		os.Exit(2)
	}
	url := "http://" + *addr + "/debug/trace/" + fs.Arg(0)
	if fs.NArg() > 1 {
		url += "/" + fs.Arg(1)
	}

	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("fetch %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("fetch %s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if *jsonRaw {
		io.Copy(os.Stdout, resp.Body)
		return
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ch whyChain
		if err := json.Unmarshal([]byte(line), &ch); err != nil {
			log.Fatalf("bad chain line: %v (%q)", err, line)
		}
		if n > 0 {
			fmt.Println()
		}
		n++
		printWhyChain(ch)
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading chains: %v", err)
	}
	if n == 0 {
		log.Fatalf("no chains returned for %s", url)
	}
}

func printWhyChain(ch whyChain) {
	fmt.Printf("instance %d block %d — %d hops\n", ch.Instance, ch.Block, len(ch.Hops))
	fmt.Printf("  %-12s %-6s %-12s %12s %12s  %s\n",
		"t", "node", "hop", "slack", "delta", "detail")
	var prevAt, prevSlack int64
	for i, h := range ch.Hops {
		delta := "-"
		if i > 0 {
			// Slack bases differ across admit/receipt boundaries; fall
			// back to elapsed time there (mirrors internal/obs/attr).
			d := prevSlack - h.SlackNs
			if ch.Hops[i-1].Kind == "admit" || h.Kind == "receipt" {
				d = h.AtNs - prevAt
			}
			delta = time.Duration(d).String()
		}
		detail := ""
		if h.Disk >= 0 && h.Kind != "admit" {
			detail = fmt.Sprintf("disk %d", h.Disk)
		}
		if h.Mirror {
			detail += " mirror"
		}
		if h.Slot >= 0 {
			detail += fmt.Sprintf(" slot %d", h.Slot)
		}
		fmt.Printf("  %-12s %-6d %-12s %12s %12s  %s\n",
			time.Duration(h.AtNs).String(), h.Node, h.Kind,
			time.Duration(h.SlackNs).String(), delta, strings.TrimSpace(detail))
		prevAt, prevSlack = h.AtNs, h.SlackNs
	}
}

// runParked summarises the degradation governor's state from a tigerd
// debug endpoint: how many streams are parked, how many disks the
// governor computes mirror-exhausted, lifetime park/resume totals, and
// the per-cub view of park orders and local exhaustion beliefs.
func runParked(args []string) {
	fs := flag.NewFlagSet("parked", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	fs.Parse(args)

	sums := map[string]float64{}
	type cubRow struct{ parks, resumes, unservable float64 }
	perCub := map[int]*cubRow{}
	for _, s := range scrape(*addr) {
		switch s.name {
		case "tiger_governor_parked_streams", "tiger_governor_unservable_disks",
			"tiger_governor_parks_total", "tiger_governor_resumes_total":
			sums[s.name] += s.value
			continue
		}
		cub, err := strconv.Atoi(s.label("cub"))
		if err != nil {
			continue
		}
		r := perCub[cub]
		if r == nil {
			r = &cubRow{}
			perCub[cub] = r
		}
		switch s.name {
		case "tiger_cub_parks_total":
			r.parks = s.value
		case "tiger_cub_resumes_total":
			r.resumes = s.value
		case "tiger_cub_unservable_disks":
			r.unservable = s.value
		}
	}
	fmt.Printf("parked      : %.0f streams awaiting re-admission\n", sums["tiger_governor_parked_streams"])
	fmt.Printf("unservable  : %.0f disks with no live copy\n", sums["tiger_governor_unservable_disks"])
	fmt.Printf("parks       : %.0f streams shed (lifetime)\n", sums["tiger_governor_parks_total"])
	fmt.Printf("resumes     : %.0f streams re-admitted (lifetime)\n", sums["tiger_governor_resumes_total"])

	var cubs []int
	for i, r := range perCub {
		if r.parks != 0 || r.resumes != 0 || r.unservable != 0 {
			cubs = append(cubs, i)
		}
	}
	if len(cubs) == 0 {
		return
	}
	sort.Ints(cubs)
	fmt.Printf("%5s %7s %8s %11s\n", "cub", "parks", "resumes", "unservable")
	for _, i := range cubs {
		r := perCub[i]
		fmt.Printf("%5d %7.0f %8.0f %11.0f\n", i, r.parks, r.resumes, r.unservable)
	}
}

// runStats scrapes a tigerd debug endpoint's /metrics and prints a
// readable summary (or the raw exposition text with -raw). Histogram
// series are folded to their _count and _sum lines.
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	raw := fs.Bool("raw", false, "dump the raw Prometheus exposition text")
	prefix := fs.String("prefix", "", "only print series whose name has this prefix")
	fs.Parse(args)

	if *raw {
		body := getMetrics(*addr)
		defer body.Close()
		io.Copy(os.Stdout, body)
		return
	}
	var rows []sample
	width := 0
	for _, s := range scrape(*addr) {
		if strings.HasSuffix(s.name, "_bucket") {
			continue // keep the summary readable; -raw has the buckets
		}
		if *prefix != "" && !strings.HasPrefix(s.name, *prefix) {
			continue
		}
		rows = append(rows, s)
		width = max(width, len(s.name)+len(s.labels))
	}
	for _, s := range rows {
		fmt.Printf("%-*s %s\n", width, s.name+s.labels, strconv.FormatFloat(s.value, 'g', 6, 64))
	}
}
