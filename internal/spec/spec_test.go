package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
)

func TestRoundTrip(t *testing.T) {
	s := Default(4)
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", s, got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file loaded")
	}
	for _, in := range []string{
		"{nope", // corrupt JSON
		`{"cubs": 4, "min_vstate_lead_ms": 2000}`, // a field the spec does not have
	} {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := writeFile(bad, in); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Errorf("%s loaded", in)
		}
	}
}

func TestConfigExpansion(t *testing.T) {
	s := Default(4)
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Layout.Cubs != 4 || cfg.BlockSize != 65536 {
		t.Fatalf("config %+v", cfg.Layout)
	}
	// Scaled defaults: minVStateLead = 4 block plays.
	if cfg.MinVStateLead != time.Second {
		t.Fatalf("min lead %v", cfg.MinVStateLead)
	}
}

// TestDefaultConfigMatchesBuildConfig pins the spec's expansion to
// core.BuildConfig: the default loopback spec is BuildConfig's system at
// 250 ms blocks, with every protocol timing scaled to the block play as
// tigerd sets them.
func TestDefaultConfigMatchesBuildConfig(t *testing.T) {
	got, err := Default(4).Config()
	if err != nil {
		t.Fatal(err)
	}
	bp := 250 * time.Millisecond
	want, err := core.BuildConfig(core.SystemSpec{Cubs: 4, DisksPerCub: 1, Decluster: 2,
		BlockPlay: bp, BlockSize: 65536, NumFiles: 4, FileBlocks: 2400})
	if err != nil {
		t.Fatal(err)
	}
	want.MinVStateLead, want.MaxVStateLead = 4*bp, 9*bp
	want.ForwardInterval, want.DescheduleHold, want.ReadAhead = bp/2, 3*bp, bp
	want.HeartbeatInterval, want.DeadmanTimeout = bp/2, 5*bp/2
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec config differs from BuildConfig's:\n got %+v\nwant %+v", *got, *want)
	}
}

func TestConfigRejectsBadShape(t *testing.T) {
	s := Default(2)
	s.Decluster = 5 // exceeds disk count
	if _, err := s.Config(); err == nil {
		t.Error("bad shape accepted")
	}
	// A deployment with no files boots a server that can serve nothing.
	for _, n := range []int{0, -4} {
		s = Default(3)
		s.NumFiles = n
		if _, err := s.Config(); err == nil || !strings.Contains(err.Error(), "NumFiles") {
			t.Errorf("num_files %d: err %v, want a refusal naming NumFiles", n, err)
		}
	}
}

func TestNodeAddrs(t *testing.T) {
	s := Default(3)
	addrs, err := s.NodeAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 4 {
		t.Fatalf("addrs %v", addrs)
	}
	if addrs[msg.Controller] == "" || addrs[msg.NodeID(2)] == "" {
		t.Fatalf("addrs %v", addrs)
	}
	s.Addrs["bogus"] = "x"
	if _, err := s.NodeAddrs(); err == nil {
		t.Error("bogus key accepted")
	}
	delete(s.Addrs, "bogus")
	s.Addrs["9"] = "x" // out of range for 3 cubs
	if _, err := s.NodeAddrs(); err == nil {
		t.Error("out-of-range cub accepted")
	}
}

func TestMissingAddrs(t *testing.T) {
	s := Default(3)
	if m := s.MissingAddrs(); len(m) != 0 {
		t.Fatalf("default spec missing %v", m)
	}
	delete(s.Addrs, "1")
	delete(s.Addrs, "ctl")
	m := s.MissingAddrs()
	if len(m) != 2 || m[0] != "1" || m[1] != "ctl" {
		t.Fatalf("missing %v", m)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
