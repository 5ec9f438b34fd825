package core

import (
	"fmt"

	"tiger/internal/disk"
	"tiger/internal/msg"
)

// diskIndex is a cub's in-memory index of the contents of one disk's
// primary and secondary regions. The paper stores this metadata in cub
// memory rather than on the data disks: blocks are large so there is
// little of it, and an extra metadata seek before every block read would
// cost too much and add start latency (§4.1.1).
//
// Tiger's placement is pure arithmetic on the shared file table — block b
// of a file sits on disk (StartDisk+b) mod N, its mirror pieces on the
// disks that follow — so the index holds no per-block record: a lookup
// recomputes where the layout puts the copy and answers only if that is
// this disk. Memory per disk is constant whatever the content.
type diskIndex struct {
	disk int     // numbered under cfg's layout
	cfg  *Config // the generation whose placement this index answers for
}

// indexEntry is the 64-bit-ish locator the paper describes: enough to
// find the block on the platters.
type indexEntry struct {
	zone  disk.Zone
	bytes int64
}

// buildIndexes returns the content index of each of the given disks
// under cfg's placement. This is what a real cub builds at startup by
// reading its disks' headers.
func buildIndexes(cfg *Config, disks []int) map[int]*diskIndex {
	idx := make(map[int]*diskIndex, len(disks))
	for _, d := range disks {
		idx[d] = &diskIndex{disk: d, cfg: cfg}
	}
	return idx
}

// lookup finds a block copy on the disk, failing loudly if the layout
// math places that copy elsewhere (or nowhere) — that is always a bug,
// not a runtime condition.
func (di *diskIndex) lookup(file msg.FileID, block int32, part int8) (indexEntry, error) {
	cfg := di.cfg
	if f, ok := cfg.Files[file]; ok && block >= 0 && int(block) < f.Blocks {
		switch {
		case part == -1:
			if cfg.Layout.PrimaryDisk(f, int(block)) == di.disk {
				return indexEntry{zone: disk.Outer, bytes: cfg.BlockSize}, nil
			}
		case part >= 0 && int(part) < cfg.Layout.Decluster:
			if cfg.Layout.SecondaryDisk(f, int(block), int(part)) == di.disk {
				return indexEntry{zone: disk.Inner, bytes: cfg.MirrorPartSize()}, nil
			}
		}
	}
	return indexEntry{}, fmt.Errorf("disk %d: no copy of file %d block %d part %d",
		di.disk, file, block, part)
}
