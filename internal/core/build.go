package core

import (
	"fmt"
	"math/rand"
	"time"

	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/schedule"
)

// SystemSpec is the convenient way to describe a whole Tiger system; it
// expands into a validated Config with capacity-planned schedule
// geometry and a synthetic striped content set.
type SystemSpec struct {
	Cubs        int
	DisksPerCub int
	Decluster   int
	DomainSize  int // cubs per failure domain; 0 or 1 keeps every cub its own

	BlockPlay time.Duration
	BlockSize int64
	Bitrate   int64

	NumFiles   int
	FileBlocks int
	FileSeed   int64 // start-disk placement seed

	DiskParams disk.Params
}

// BuildConfig expands a SystemSpec into a Config, with every protocol
// timing at its default for the block play time. It is the one place a
// system's Config is derived from its shape; Reshape derives a resized
// one from it.
func BuildConfig(s SystemSpec) (*Config, error) {
	if s.BlockPlay <= 0 {
		s.BlockPlay = time.Second
	}
	if s.BlockSize <= 0 {
		if s.Bitrate <= 0 {
			return nil, fmt.Errorf("core: spec needs a block size or bitrate")
		}
		s.BlockSize = s.Bitrate * int64(s.BlockPlay) / int64(8*time.Second)
	}
	if s.Bitrate <= 0 {
		s.Bitrate = s.BlockSize * 8 * int64(time.Second) / int64(s.BlockPlay)
	}
	if s.NumFiles < 1 {
		return nil, fmt.Errorf("core: spec NumFiles is %d; a system with no files can serve nothing", s.NumFiles)
	}
	if s.DiskParams.OuterRate == 0 {
		s.DiskParams = disk.DefaultParams()
	}
	cfg := &Config{
		Layout: layout.Config{Cubs: s.Cubs, DisksPerCub: s.DisksPerCub, Decluster: s.Decluster,
			DomainSize: s.DomainSize},
		BlockSize:  s.BlockSize,
		DiskParams: s.DiskParams,
		Files:      make(map[msg.FileID]layout.File, s.NumFiles),
	}
	if err := cfg.plan(s.BlockPlay); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.FileSeed + 1))
	for i := 0; i < s.NumFiles; i++ {
		cfg.Files[msg.FileID(i)] = layout.File{
			ID:        msg.FileID(i),
			StartDisk: rng.Intn(cfg.Layout.NumDisks()),
			Blocks:    s.FileBlocks,
			Bitrate:   s.Bitrate,
			BlockSize: s.BlockSize,
		}
	}
	cfg.DefaultTimings()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Reshape returns the same system resized to cubs cubs: the new
// generation an elastic restripe installs. Layout (failure domains
// included), hardware model and protocol settings carry over, the
// schedule is planned afresh for the new disk count, and each file's
// start disk folds into it, as layout.PlanElastic places the moves.
func (c *Config) Reshape(cubs int) (*Config, error) {
	n := *c
	n.Layout.Cubs = cubs
	if err := n.plan(c.Sched.BlockPlay); err != nil {
		return nil, err
	}
	n.Files = make(map[msg.FileID]layout.File, len(c.Files))
	for id, f := range c.Files {
		f.StartDisk %= n.Layout.NumDisks()
		n.Files[id] = f
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// plan validates the layout, plans its disks' stream capacity at the
// block size, and sets the schedule to a ring of that many slots.
func (c *Config) plan(blockPlay time.Duration) error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	capa := disk.PlanCapacity(c.DiskParams, c.Layout.NumDisks(), c.BlockSize, blockPlay, c.Layout.Decluster)
	if capa.Streams < 1 {
		return fmt.Errorf("core: configuration has no stream capacity")
	}
	sp, err := schedule.NewParams(blockPlay, c.Layout.NumDisks(), capa.Streams)
	if err != nil {
		return err
	}
	c.Sched = sp
	return nil
}

// Capacity recomputes the planned stream capacity of a built config.
func (c *Config) Capacity() disk.Capacity {
	return disk.PlanCapacity(c.DiskParams, c.Layout.NumDisks(), c.BlockSize,
		c.Sched.BlockPlay, c.Layout.Decluster)
}
