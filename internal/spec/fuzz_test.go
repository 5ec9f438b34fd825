package spec

import (
	"encoding/json"
	"testing"
)

// FuzzSpecConfig holds the path from an operator's JSON to a running
// node to three properties on arbitrary input: expanding the document
// never panics; a spec that expands without error is a valid
// configuration with at least one file to serve; and the address map
// converts or is refused, never panics.
func FuzzSpecConfig(f *testing.F) {
	def, err := json.Marshal(Default(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add([]byte(`{"cubs":3,"disks_per_cub":1,"decluster":2,"block_play_ms":250,"block_size":65536,"num_files":0,"file_blocks":10}`))
	f.Add([]byte(`{"cubs":2,"disks_per_cub":2,"decluster":2,"bitrate_bps":2000000,"num_files":1,"file_blocks":1,"addrs":{"ctl":"a","7":"b","x":"c"}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var s ClusterSpec
		if json.Unmarshal(in, &s) != nil {
			return
		}
		if s.NumFiles > 1<<16 {
			t.Skip("building the file table would dominate the run")
		}
		if cfg, err := s.Config(); err == nil {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Config() accepted %s, Validate() says %v", in, err)
			}
			if len(cfg.Files) < 1 {
				t.Fatalf("Config() accepted %s with %d files", in, len(cfg.Files))
			}
		}
		_, _ = s.NodeAddrs() // refusing a key is fine; panicking is not
	})
}
