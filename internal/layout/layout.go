// Package layout implements Tiger's file data layout (§2.2, §2.3): every
// file is striped block-by-block across every disk of every cub in
// cub-minor order, and each block's mirror copy is declustered across the
// disks immediately following its primary disk.
package layout

import (
	"fmt"

	"tiger/internal/msg"
)

// Config describes the physical shape of a Tiger system.
type Config struct {
	Cubs        int // number of cub machines
	DisksPerCub int // identical on every cub
	Decluster   int // pieces each mirror copy is split into (§2.3)

	// DomainSize groups consecutive cubs into failure domains — racks or
	// power groups that fail together (a breaker trip kills every cub in
	// the domain at once). 0 or 1 means every cub is its own domain. The
	// paper's deployment put consecutive cubs on one power strip, which is
	// the worst case for declustering: a domain of Decluster+1 adjacent
	// cubs is guaranteed to exhaust some mirror spans.
	DomainSize int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cubs < 1:
		return fmt.Errorf("layout: need at least 1 cub, have %d", c.Cubs)
	case c.DisksPerCub < 1:
		return fmt.Errorf("layout: need at least 1 disk per cub, have %d", c.DisksPerCub)
	case c.Decluster < 1:
		return fmt.Errorf("layout: decluster factor must be >= 1, have %d", c.Decluster)
	case c.Decluster >= c.NumDisks():
		return fmt.Errorf("layout: decluster %d must be smaller than the %d disks",
			c.Decluster, c.NumDisks())
	case c.DomainSize < 0:
		return fmt.Errorf("layout: negative failure-domain size %d", c.DomainSize)
	case c.DomainSize > c.Cubs:
		return fmt.Errorf("layout: failure domain of %d cubs exceeds the %d cubs", c.DomainSize, c.Cubs)
	}
	return nil
}

// NumDisks returns the total number of disks in the system.
func (c Config) NumDisks() int { return c.Cubs * c.DisksPerCub }

// CubOfDisk returns the cub hosting the given disk. Tiger numbers disks
// in cub-minor order: disk 0 on cub 0, disk 1 on cub 1, ..., disk n on
// cub 0 again (§2.2). Consecutive disks are therefore always on
// consecutive cubs, which is what lets viewer states simply hop to the
// successor cub each block play time.
func (c Config) CubOfDisk(disk int) msg.NodeID {
	return msg.NodeID(disk % c.Cubs)
}

// DisksOfCub returns the disk numbers hosted by cub.
func (c Config) DisksOfCub(cub msg.NodeID) []int {
	disks := make([]int, 0, c.DisksPerCub)
	for d := int(cub); d < c.NumDisks(); d += c.Cubs {
		disks = append(disks, d)
	}
	return disks
}

// NextDisk returns the disk following d in striping order.
func (c Config) NextDisk(d int) int { return (d + 1) % c.NumDisks() }

// Successor returns the cub following cub in ring order.
func (c Config) Successor(cub msg.NodeID) msg.NodeID {
	return msg.NodeID((int(cub) + 1) % c.Cubs)
}

// Predecessor returns the cub preceding cub in ring order.
func (c Config) Predecessor(cub msg.NodeID) msg.NodeID {
	return msg.NodeID((int(cub) + c.Cubs - 1) % c.Cubs)
}

// File describes one striped content file.
type File struct {
	ID        msg.FileID
	StartDisk int   // disk holding block 0
	Blocks    int   // total number of blocks
	Bitrate   int64 // bits per second
	BlockSize int64 // bytes; bitrate-proportional in a multi-bitrate system
}

// PrimaryDisk returns the disk holding the primary copy of the given
// block: blocks are laid round-robin from the start disk (§2.2).
func (c Config) PrimaryDisk(f File, block int) int {
	if block < 0 || block >= f.Blocks {
		panic(fmt.Sprintf("layout: block %d out of range [0,%d) for file %d", block, f.Blocks, f.ID))
	}
	return (f.StartDisk + block) % c.NumDisks()
}

// SecondaryDisk returns the disk holding mirror piece part (0-based) of
// the given block. Tiger always stores the secondary parts on the disks
// immediately following the primary's disk (§2.3).
func (c Config) SecondaryDisk(f File, block, part int) int {
	if part < 0 || part >= c.Decluster {
		panic(fmt.Sprintf("layout: mirror part %d out of range [0,%d)", part, c.Decluster))
	}
	return (c.PrimaryDisk(f, block) + 1 + part) % c.NumDisks()
}

// SecondaryDiskFor returns the disk holding mirror piece part of a block
// whose primary disk is primaryDisk, without needing the file.
func (c Config) SecondaryDiskFor(primaryDisk, part int) int {
	return (primaryDisk + 1 + part) % c.NumDisks()
}

// CoveringDisks returns the disks that combine to serve reads for failed
// disk d: the decluster disks following it.
func (c Config) CoveringDisks(d int) []int {
	out := make([]int, c.Decluster)
	for i := range out {
		out[i] = (d + 1 + i) % c.NumDisks()
	}
	return out
}

// VulnerabilitySpan returns, for a single failed disk, the number of
// other disks whose additional failure would lose data: the disks whose
// secondaries live on d plus the disks holding d's secondaries (§2.3:
// "a second failure on any of 8 machines would result in the loss of
// data" for decluster 4).
func (c Config) VulnerabilitySpan() int { return 2 * c.Decluster }

// FailoverBandwidthFraction returns the fraction of disk and network
// bandwidth that must be reserved for failed-mode operation: with
// decluster k, each covering disk picks up 1/k of the failed disk's
// load, so 1/(k+1) of total bandwidth is reserved (§2.3).
func (c Config) FailoverBandwidthFraction() float64 {
	return 1 / float64(c.Decluster+1)
}

// MirrorPartSize returns the size of one declustered mirror piece.
func (c Config) MirrorPartSize(f File) int64 {
	return (f.BlockSize + int64(c.Decluster) - 1) / int64(c.Decluster)
}

// domainSize normalizes DomainSize: 0 (unset) means singleton domains.
func (c Config) domainSize() int {
	if c.DomainSize < 1 {
		return 1
	}
	return c.DomainSize
}

// NumDomains returns the number of failure domains. The last domain may
// be smaller than DomainSize when Cubs is not a multiple.
func (c Config) NumDomains() int {
	s := c.domainSize()
	return (c.Cubs + s - 1) / s
}

// DomainOfCub returns the failure domain containing cub.
func (c Config) DomainOfCub(cub msg.NodeID) int {
	return int(cub) / c.domainSize()
}

// CubsOfDomain returns the member cubs of failure domain d, in ring
// order. Domains group consecutive cubs, matching racks wired in
// installation order.
func (c Config) CubsOfDomain(d int) []msg.NodeID {
	if d < 0 || d >= c.NumDomains() {
		return nil
	}
	s := c.domainSize()
	lo, hi := d*s, (d+1)*s
	if hi > c.Cubs {
		hi = c.Cubs
	}
	out := make([]msg.NodeID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, msg.NodeID(i))
	}
	return out
}

// UnservableCubs returns, given a predicate marking dead cubs, the dead
// cubs whose data cannot be reconstructed from mirrors: cub c is
// unservable iff c is dead and at least one of the next
// min(Decluster, Cubs-1) cubs in ring order is also dead. Because disks
// are numbered cub-minor, the decluster span of every disk of cub c
// lands on exactly the cubs c+1..c+Decluster (mod Cubs), so
// exhaustion is uniform across all of a cub's disks and computable in
// O(Cubs·Decluster) straight from the layout — no scan over streams or
// schedules. The result is sorted ascending.
func (c Config) UnservableCubs(dead func(msg.NodeID) bool) []msg.NodeID {
	span := c.Decluster
	if span > c.Cubs-1 {
		span = c.Cubs - 1
	}
	var out []msg.NodeID
	for i := 0; i < c.Cubs; i++ {
		if !dead(msg.NodeID(i)) {
			continue
		}
		for k := 1; k <= span; k++ {
			if dead(msg.NodeID((i + k) % c.Cubs)) {
				out = append(out, msg.NodeID(i))
				break
			}
		}
	}
	return out
}

// UnservableDisks returns the disks whose blocks cannot currently be
// served from either copy, sorted ascending. These are exactly the
// disks of the unservable cubs: a dead cub's disk is covered iff all
// Decluster disks following it are on live cubs, which depends only on
// the cub-level death pattern.
func (c Config) UnservableDisks(dead func(msg.NodeID) bool) []int {
	cubs := c.UnservableCubs(dead)
	if len(cubs) == 0 {
		return nil
	}
	bad := make(map[msg.NodeID]bool, len(cubs))
	for _, z := range cubs {
		bad[z] = true
	}
	out := make([]int, 0, len(cubs)*c.DisksPerCub)
	for d := 0; d < c.NumDisks(); d++ {
		if bad[c.CubOfDisk(d)] {
			out = append(out, d)
		}
	}
	return out
}
