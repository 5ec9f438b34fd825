package rt

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tiger/internal/obs"
	"tiger/internal/trace"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterFunc("tiger_test_total", "A test counter.", obs.Labels{"cub": "0"}, func() float64 { return 7 })
	ring := trace.NewRing(16)
	ring.Add(trace.Event{At: 1, Node: 0, Kind: trace.Insert, Slot: 3, Instance: 9})

	d, err := StartDebug("127.0.0.1:0", DebugConfig{
		Registry: reg,
		Trace:    ring,
		Views: map[string]func(time.Duration) (string, error){
			"cub0": func(time.Duration) (string, error) { return "view of cub0", nil },
		},
		Events: map[string]func() uint64{
			"cub0": func() uint64 { return 42 },
		},
		Info: map[string]string{"node": "cub0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	if code, body := getBody(t, base+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `tiger_test_total{cub="0"} 7`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}

	code, body := getBody(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v (%q)", err, body)
	}
	if health["ok"] != true || health["node"] != "cub0" {
		t.Fatalf("/healthz = %v", health)
	}

	if code, body := getBody(t, base+"/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, "view of cub0") ||
		!strings.Contains(body, `"events_processed"`) ||
		!strings.Contains(body, `"cub0": 42`) {
		t.Fatalf("/debug/vars = %d %q", code, body)
	}

	code, body = getBody(t, base+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/debug/trace: want header + 1 event, got %d lines (%q)", len(lines), body)
	}
	var hdr map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("/debug/trace header not JSON: %v (%q)", err, lines[0])
	}
	if hdr["header"] != true || hdr["retained"] != float64(1) {
		t.Fatalf("/debug/trace header = %v", hdr)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("/debug/trace not JSONL: %v (%q)", err, body)
	}
	if ev["kind"] != "insert" {
		t.Fatalf("/debug/trace event = %v", ev)
	}

	if code, body := getBody(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

// TestDebugServerDisabledEndpoints checks the nil-field behaviour: the
// server still answers, with 404s for what it has no backing for.
func TestDebugServerDisabledEndpoints(t *testing.T) {
	d, err := StartDebug("127.0.0.1:0", DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without a registry = %d, want 404", code)
	}
	if code, _ := getBody(t, base+"/debug/trace"); code != http.StatusNotFound {
		t.Fatalf("/debug/trace without a ring = %d, want 404", code)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
}
