package rt

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/trace"
)

// scrape fetches /metrics and returns the value of every counter line
// (name{labels} ending in _total) plus the set of all series seen.
func scrape(url string) (counters map[string]float64, series map[string]bool, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	counters, series = make(map[string]float64), make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		key := line[:sp]
		series[key] = true
		name, _, _ := strings.Cut(key, "{")
		if v, perr := strconv.ParseFloat(line[sp+1:], 64); perr == nil && strings.HasSuffix(name, "_total") {
			counters[key] = v
		}
	}
	return counters, series, nil
}

// TestScrapeWhileServing scrapes /metrics in a loop from its own
// goroutine while a viewer plays over loopback. The cubs' counters are
// plain integers their executors own, so every scrape has to marshal
// its snapshot onto the executor: under -race a direct read shows up
// here, and a torn or stale-then-fresh read shows as a counter going
// backwards. Then a host is closed: its scrape must not hang, and keeps
// serving the last snapshot. Two rings attached one after the other
// both hear the cubs — AttachTrace no longer displaces a subscriber.
func TestScrapeWhileServing(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	ctl, hosts, _ := rtSystem(t, 4)
	reg := obs.NewRegistry()
	first, second := trace.NewRing(1<<12), trace.NewRing(1<<12)
	ctl.AttachObs(reg)
	for _, h := range hosts {
		h.AttachObs(reg)
		h.AttachTrace(first)
		h.AttachTrace(second)
	}
	d, err := StartDebug("127.0.0.1:0", DebugConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	url := "http://" + d.Addr() + "/metrics"

	vc, err := NewViewerClient("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	got := make(chan struct{}, 1024)
	vc.SetHandlers(func(*msg.BlockData) {
		select {
		case got <- struct{}{}:
		default:
		}
	}, func(*msg.StartAck) {})
	cc, err := DialController(ctl.Mesh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Start(7, vc.Addr(), 0, 0, 2_000_000); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	scrapes := 0
	go func() {
		defer wg.Done()
		last := make(map[string]float64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			counters, _, err := scrape(url)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			for k, v := range counters {
				if v < last[k] {
					t.Errorf("%s went backwards: %v -> %v", k, last[k], v)
				}
				last[k] = v
			}
			scrapes++
		}
	}()
	deadline := time.After(10 * time.Second)
	for blocks := 0; blocks < 15; blocks++ {
		select {
		case <-got:
		case <-deadline:
			t.Fatalf("only %d blocks arrived in 10 s", blocks)
		}
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("the scraper never completed a scrape")
	}

	counters, series, err := scrape(url)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0.0
	for i := range hosts {
		cub := `{cub="` + strconv.Itoa(i) + `"}`
		sent += counters["tiger_cub_blocks_sent_total"+cub]
		// One pulled gauge and one series that only the stats struct had.
		for _, name := range []string{"tiger_cub_view_entries", "tiger_cub_deschedules_dup_total"} {
			if !series[name+cub] {
				t.Errorf("/metrics has no %s%s", name, cub)
			}
		}
	}
	if sent < 15 || counters["tiger_ctrl_starts_total"] != 1 {
		t.Errorf("scraped %v blocks sent and %v starts; the viewer received 15 blocks of 1 start",
			sent, counters["tiger_ctrl_starts_total"])
	}
	if a, b := first.Total(), second.Total(); a == 0 || a != b {
		t.Errorf("first ring heard %d events, second %d: both must hear every event", a, b)
	}

	hosts[3].Close()
	began := time.Now()
	_, series, err = scrape(url)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > scrapeTimeout+time.Second {
		t.Errorf("scrape with a closed node took %v", took)
	}
	if !series[`tiger_cub_blocks_sent_total{cub="3"}`] {
		t.Error("the closed node's last snapshot is no longer served")
	}
}
