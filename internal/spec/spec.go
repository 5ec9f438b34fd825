// Package spec loads and saves cluster specifications: the shared JSON
// document a Tiger deployment distributes to every node so that all of
// them build the identical core.Config (the configuration is static and
// agreed, never negotiated — a premise of the coherent hallucination).
package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
)

// ClusterSpec is the on-disk deployment document.
type ClusterSpec struct {
	// Shape.
	Cubs        int `json:"cubs"`
	DisksPerCub int `json:"disks_per_cub"`
	Decluster   int `json:"decluster"`

	// Content geometry.
	BlockPlayMs int   `json:"block_play_ms"`
	BlockSize   int64 `json:"block_size"`
	BitrateBps  int64 `json:"bitrate_bps"`
	NumFiles    int   `json:"num_files"`
	FileBlocks  int   `json:"file_blocks"`
	FileSeed    int64 `json:"file_seed"`

	// Addresses: "ctl" plus one entry per cub number.
	Addrs map[string]string `json:"addrs,omitempty"`
}

// Default returns a small loopback deployment spec.
func Default(cubs int) ClusterSpec {
	s := ClusterSpec{
		Cubs:        cubs,
		DisksPerCub: 1,
		Decluster:   2,
		BlockPlayMs: 250,
		BlockSize:   65536,
		NumFiles:    4,
		FileBlocks:  2400,
		Addrs:       map[string]string{"ctl": "127.0.0.1:7000"},
	}
	for i := 0; i < cubs; i++ {
		s.Addrs[strconv.Itoa(i)] = fmt.Sprintf("127.0.0.1:%d", 7001+i)
	}
	return s
}

// Load reads a spec from a JSON file.
func Load(path string) (ClusterSpec, error) {
	var s ClusterSpec
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields() // a misspelt or retired field fails loudly
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("spec %s: %w", path, err)
	}
	return s, nil
}

// Save writes the spec as indented JSON.
func (s ClusterSpec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Config expands the spec into a validated core.Config. The protocol
// timings are core's, scaled to the block play time.
func (s ClusterSpec) Config() (*core.Config, error) {
	if s.BlockPlayMs <= 0 {
		return nil, fmt.Errorf("spec: block_play_ms is %d; it must be positive", s.BlockPlayMs)
	}
	return core.BuildConfig(core.SystemSpec{
		Cubs:        s.Cubs,
		DisksPerCub: s.DisksPerCub,
		Decluster:   s.Decluster,
		BlockPlay:   time.Duration(s.BlockPlayMs) * time.Millisecond,
		BlockSize:   s.BlockSize,
		Bitrate:     s.BitrateBps,
		NumFiles:    s.NumFiles,
		FileBlocks:  s.FileBlocks,
		FileSeed:    s.FileSeed,
	})
}

// NodeAddrs converts the string-keyed address map into node IDs.
func (s ClusterSpec) NodeAddrs() (map[msg.NodeID]string, error) {
	out := make(map[msg.NodeID]string, len(s.Addrs))
	for k, v := range s.Addrs {
		if k == "ctl" || k == "controller" {
			out[msg.Controller] = v
			continue
		}
		id, err := strconv.Atoi(k)
		if err != nil || id < 0 || id >= s.Cubs {
			return nil, fmt.Errorf("spec: bad address key %q", k)
		}
		out[msg.NodeID(id)] = v
	}
	return out, nil
}

// MissingAddrs lists nodes without addresses (ctl plus every cub).
func (s ClusterSpec) MissingAddrs() []string {
	var missing []string
	if _, ok := s.Addrs["ctl"]; !ok {
		if _, ok2 := s.Addrs["controller"]; !ok2 {
			missing = append(missing, "ctl")
		}
	}
	for i := 0; i < s.Cubs; i++ {
		if _, ok := s.Addrs[strconv.Itoa(i)]; !ok {
			missing = append(missing, strconv.Itoa(i))
		}
	}
	sort.Strings(missing)
	return missing
}
