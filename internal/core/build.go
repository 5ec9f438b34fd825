package core

import (
	"fmt"
	"math/rand"
	"time"

	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/metrics"
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

	BlockPlay time.Duration
	BlockSize int64
	Bitrate   int64

	NumFiles   int
	FileBlocks int
	FileSeed   int64 // start-disk placement seed

	DiskParams disk.Params
	CPUModel   metrics.CPUModel
}

// BuildConfig expands a SystemSpec into a Config.
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
	if s.CPUModel.PerDataByte == 0 {
		s.CPUModel = metrics.DefaultCPUModel()
	}
	lay := layout.Config{Cubs: s.Cubs, DisksPerCub: s.DisksPerCub, Decluster: s.Decluster}
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	capa := disk.PlanCapacity(s.DiskParams, lay.NumDisks(), s.BlockSize, s.BlockPlay, s.Decluster)
	if capa.Streams < 1 {
		return nil, fmt.Errorf("core: configuration has no stream capacity")
	}
	sp, err := schedule.NewParams(s.BlockPlay, lay.NumDisks(), capa.Streams)
	if err != nil {
		return nil, err
	}
	files := make(map[msg.FileID]layout.File, s.NumFiles)
	rng := rand.New(rand.NewSource(s.FileSeed + 1))
	for i := 0; i < s.NumFiles; i++ {
		files[msg.FileID(i)] = layout.File{
			ID:        msg.FileID(i),
			StartDisk: rng.Intn(lay.NumDisks()),
			Blocks:    s.FileBlocks,
			Bitrate:   s.Bitrate,
			BlockSize: s.BlockSize,
		}
	}
	cfg := &Config{
		Layout:     lay,
		Sched:      sp,
		BlockSize:  s.BlockSize,
		DiskParams: s.DiskParams,
		CPUModel:   s.CPUModel,
		Files:      files,
	}
	cfg.DefaultTimings()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Capacity recomputes the planned stream capacity of a built config.
func (c *Config) Capacity() disk.Capacity {
	return disk.PlanCapacity(c.DiskParams, c.Layout.NumDisks(), c.BlockSize,
		c.Sched.BlockPlay, c.Layout.Decluster)
}
