package core

import (
	"fmt"

	"tiger/internal/disk"
	"tiger/internal/msg"
)

// A cub's content index of its disks' primary and secondary regions is
// in memory rather than on the data disks: blocks are large so there is
// little of it, and an extra metadata seek before every block read would
// cost too much and add start latency (§4.1.1).
//
// Tiger's placement is pure arithmetic on the shared file table — block b
// of a file sits on disk (StartDisk+b) mod N, its mirror pieces on the
// disks that follow — so the index holds no per-block record: a lookup
// recomputes where the layout puts the copy and answers only if that is
// the disk asked about. Memory per disk is constant whatever the content.

// indexEntry is the 64-bit-ish locator the paper describes: enough to
// find the block on the platters.
type indexEntry struct {
	zone  disk.Zone
	bytes int64
}

// lookup finds a block copy on disk d, numbered under c's layout,
// failing loudly if the layout math places that copy elsewhere (or
// nowhere) — that is always a bug, not a runtime condition.
func (c *Config) lookup(d int, file msg.FileID, block int32, part int8) (indexEntry, error) {
	if f, ok := c.Files[file]; ok && block >= 0 && int(block) < f.Blocks {
		switch {
		case part == -1:
			if c.Layout.PrimaryDisk(f, int(block)) == d {
				return indexEntry{zone: disk.Outer, bytes: c.BlockSize}, nil
			}
		case part >= 0 && int(part) < c.Layout.Decluster:
			if c.Layout.SecondaryDisk(f, int(block), int(part)) == d {
				return indexEntry{zone: disk.Inner, bytes: c.MirrorPartSize()}, nil
			}
		}
	}
	return indexEntry{}, fmt.Errorf("disk %d: no copy of file %d block %d part %d",
		d, file, block, part)
}
