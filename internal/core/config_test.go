package core

import (
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/schedule"
	"tiger/internal/sim"
)

func validConfig(t *testing.T) *Config {
	t.Helper()
	lay := layout.Config{Cubs: 4, DisksPerCub: 1, Decluster: 2}
	sp, err := schedule.NewParams(time.Second, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Layout: lay, Sched: sp, BlockSize: 262144,
		DiskParams: disk.DefaultParams(),
		Files: map[msg.FileID]layout.File{
			1: {ID: 1, StartDisk: 0, Blocks: 100, BlockSize: 262144},
		},
	}
	cfg.DefaultTimings()
	return cfg
}

func TestConfigDefaults(t *testing.T) {
	cfg := validConfig(t)
	if cfg.MinVStateLead != 4*time.Second || cfg.MaxVStateLead != 9*time.Second {
		t.Fatalf("paper's typical leads not applied: %v/%v", cfg.MinVStateLead, cfg.MaxVStateLead)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultTimingsScaleWithBlockPlay: the protocol timings are one
// table of block-play multiples. At one-second blocks it gives the
// paper's constants, at 250 ms the table tigerd and the cluster spec
// run, at 100 ms the real-time tests' leads, batch, hold and
// read-ahead. Each row lists min and max lead, forward interval,
// deschedule hold, read-ahead, heartbeat and deadman timeout.
func TestDefaultTimingsScaleWithBlockPlay(t *testing.T) {
	ms := time.Millisecond
	for bp, want := range map[time.Duration][7]time.Duration{
		time.Second: {4000 * ms, 9000 * ms, 500 * ms, 3000 * ms, 1000 * ms, 500 * ms, 2500 * ms},
		250 * ms:    {1000 * ms, 2250 * ms, 125 * ms, 750 * ms, 250 * ms, 125 * ms, 625 * ms},
		100 * ms:    {400 * ms, 900 * ms, 50 * ms, 300 * ms, 100 * ms, 50 * ms, 250 * ms},
	} {
		c, err := BuildConfig(SystemSpec{Cubs: 4, DisksPerCub: 1, Decluster: 2,
			BlockPlay: bp, BlockSize: 32768, NumFiles: 1, FileBlocks: 10})
		if err != nil {
			t.Fatalf("%v blocks: %v", bp, err)
		}
		got := [7]time.Duration{c.MinVStateLead, c.MaxVStateLead, c.ForwardInterval,
			c.DescheduleHold, c.ReadAhead, c.HeartbeatInterval, c.DeadmanTimeout}
		if got != want {
			t.Errorf("%v blocks: timings %v, want %v", bp, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := map[string]func(*Config){
		"disks mismatch":    func(c *Config) { c.Layout.DisksPerCub = 2 },
		"zero block":        func(c *Config) { c.BlockSize = 0 },
		"min>=max lead":     func(c *Config) { c.MinVStateLead = c.MaxVStateLead },
		"min under lead":    func(c *Config) { c.MinVStateLead = c.Sched.SchedLead },
		"fwd interval":      func(c *Config) { c.ForwardInterval = 6 * time.Second },
		"readahead":         func(c *Config) { c.ReadAhead = time.Millisecond },
		"deadman":           func(c *Config) { c.DeadmanTimeout = c.HeartbeatInterval },
		"file key mismatch": func(c *Config) { f := c.Files[1]; f.ID = 2; c.Files[1] = f },
		"file empty":        func(c *Config) { f := c.Files[1]; f.Blocks = 0; c.Files[1] = f },
		"file start oob":    func(c *Config) { f := c.Files[1]; f.StartDisk = 99; c.Files[1] = f },
		"bad layout":        func(c *Config) { c.Layout.Cubs = 0 },
		"bad sched ownership": func(c *Config) {
			c.Sched.OwnDur = 2 * c.Sched.BlockPlay
		},
	}
	for name, mutate := range mutations {
		cfg := validConfig(t)
		mutate(cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestMirrorHelpers(t *testing.T) {
	cfg := validConfig(t)
	if cfg.MirrorPace() != 500*time.Millisecond {
		t.Fatalf("mirror pace %v", cfg.MirrorPace())
	}
	if cfg.MirrorPartSize() != 131072 {
		t.Fatalf("part size %d", cfg.MirrorPartSize())
	}
	cfg.BlockSize = 7
	if cfg.MirrorPartSize() != 4 {
		t.Fatalf("ceil part size %d", cfg.MirrorPartSize())
	}
}

// placedCopies is the reference the closed-form index is checked
// against: the enumeration a map-backed index would be filled by, every
// block of every file walked through the layout.
func placedCopies(cfg *Config) map[int]map[[3]int]disk.Zone {
	placed := make(map[int]map[[3]int]disk.Zone)
	put := func(d int, f layout.File, b, part int, z disk.Zone) {
		if placed[d] == nil {
			placed[d] = make(map[[3]int]disk.Zone)
		}
		placed[d][[3]int{int(f.ID), b, part}] = z
	}
	for _, f := range cfg.Files {
		for b := 0; b < f.Blocks; b++ {
			put(cfg.Layout.PrimaryDisk(f, b), f, b, -1, disk.Outer)
			for part := 0; part < cfg.Layout.Decluster; part++ {
				put(cfg.Layout.SecondaryDisk(f, b, part), f, b, part, disk.Inner)
			}
		}
	}
	return placed
}

// checkIndexAgainstLayout asserts hit or miss, as the enumeration has
// it, for every (file, block, part) — each one step past its range too —
// in cfg's index of disk d.
func checkIndexAgainstLayout(t *testing.T, cfg *Config, d int, placed map[int]map[[3]int]disk.Zone) {
	t.Helper()
	hits := 0
	for _, f := range cfg.Files {
		for b := -1; b <= f.Blocks; b++ {
			for part := -2; part <= cfg.Layout.Decluster; part++ {
				e, err := cfg.lookup(d, f.ID, int32(b), int8(part))
				zone, want := placed[d][[3]int{int(f.ID), b, part}]
				if want != (err == nil) {
					t.Fatalf("disk %d file %d block %d part %d: placed here %v, lookup error %v",
						d, f.ID, b, part, want, err)
				}
				if !want {
					continue
				}
				hits++
				size := cfg.BlockSize
				if part >= 0 {
					size = cfg.MirrorPartSize()
				}
				if e.zone != zone || e.bytes != size {
					t.Fatalf("disk %d file %d block %d part %d: entry %+v, want zone %v size %d",
						d, f.ID, b, part, e, zone, size)
				}
			}
		}
	}
	if hits != len(placed[d]) {
		t.Fatalf("disk %d: %d hits, layout places %d copies", d, hits, len(placed[d]))
	}
}

func indexTestConfig(t *testing.T, cubs, disksPerCub, decluster, files, blocks int) *Config {
	t.Helper()
	cfg, err := BuildConfig(SystemSpec{Cubs: cubs, DisksPerCub: disksPerCub, Decluster: decluster,
		BlockPlay: time.Second, BlockSize: 262144, NumFiles: files, FileBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestIndexCoversExactlyLocalCopies(t *testing.T) {
	shapes := map[string]*Config{
		"14x4 decluster 4": indexTestConfig(t, 14, 4, 4, 3, 150),
		"1x2 decluster 1":  indexTestConfig(t, 1, 2, 1, 2, 9),
		// Files that do not end on a stripe boundary, one shorter than a
		// stripe: the last disks hold one block fewer, or none.
		"3x1 decluster 2": indexTestConfig(t, 3, 1, 2, 2, 37),
	}
	short := shapes["3x1 decluster 2"]
	short.Files[7] = layout.File{ID: 7, StartDisk: 2, Blocks: 2, BlockSize: 262144}
	for _, cfg := range shapes {
		placed := placedCopies(cfg)
		for cub := msg.NodeID(0); int(cub) < cfg.Layout.Cubs; cub++ {
			for _, d := range cfg.Layout.DisksOfCub(cub) {
				checkIndexAgainstLayout(t, cfg, d, placed)
			}
		}
	}
}

// TestIndexUnderInstalledGeneration: a generation installed on a running
// cub numbers its drives differently from the cub's native numbering.
// A drive's lookup under the plane is by the generation's number of it,
// which the cub derives from the native one.
func TestIndexUnderInstalledGeneration(t *testing.T) {
	old := indexTestConfig(t, 14, 4, 4, 3, 150)
	grown := indexTestConfig(t, 16, 4, 4, 3, 150)
	placed := placedCopies(grown)
	eng := sim.New(1)
	clk := clock.Sim{Eng: eng}
	net := netsim.New(netsim.DefaultParams(), clk, eng.Rand())
	for _, id := range []msg.NodeID{0, 3, 13} {
		c := NewCub(id, old, clk, net, net, eng.Rand())
		c.InstallGen(1, grown)
		p := c.planes[1]
		if p != grown {
			t.Fatalf("cub %v: generation 1 plane is not the installed config", id)
		}
		for i, nd := range old.Layout.DisksOfCub(id) {
			gd := grown.Layout.DisksOfCub(id)[i]
			if got := c.genLocalDisk(p.Layout, nd); got != gd {
				t.Fatalf("cub %v: native drive %d is generation-1 disk %d, want %d", id, nd, got, gd)
			}
			if gd != nd {
				// The ownership check is what tells the numberings
				// apart: under the native number the same drive would
				// claim another disk's blocks.
				f := grown.Files[0]
				b := (nd - f.StartDisk + grown.Layout.NumDisks()) % grown.Layout.NumDisks()
				if _, err := p.lookup(gd, f.ID, int32(b), -1); err == nil {
					t.Fatalf("cub %v drive %d (generation disk %d) answered for disk %d's block", id, nd, gd, nd)
				}
			}
			checkIndexAgainstLayout(t, p, gd, placed)
		}
	}
}

func TestIndexLookupMiss(t *testing.T) {
	cfg := validConfig(t)
	if _, err := cfg.lookup(0, 99, 0, -1); err == nil {
		t.Fatal("missing file looked up successfully")
	}
}

// TestIndexScalesWithContentNotSystem confirms the paper's argument for
// a memory-resident index: what one disk's index answers for depends on
// content volume per disk, not on system size.
func TestIndexScalesWithContentNotSystem(t *testing.T) {
	perDisk := func(cubs int) int {
		lay := layout.Config{Cubs: cubs, DisksPerCub: 1, Decluster: 2}
		sp, err := schedule.NewParams(time.Second, cubs, cubs*10)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[msg.FileID]layout.File)
		// Content scales with the system: 100 blocks per disk.
		for i := 0; i < cubs; i++ {
			files[msg.FileID(i)] = layout.File{ID: msg.FileID(i), StartDisk: i, Blocks: 100, BlockSize: 4}
		}
		cfg := &Config{Layout: lay, Sched: sp, BlockSize: 4,
			DiskParams: disk.DefaultParams(), Files: files}
		cfg.DefaultTimings()
		copies := 0
		for _, f := range cfg.Files {
			for b := 0; b < f.Blocks; b++ {
				for part := -1; part < lay.Decluster; part++ {
					if _, err := cfg.lookup(0, f.ID, int32(b), int8(part)); err == nil {
						copies++
					}
				}
			}
		}
		return copies
	}
	small, large := perDisk(4), perDisk(16)
	if large > small {
		t.Fatalf("per-disk index grew with system size: %d -> %d", small, large)
	}
}
