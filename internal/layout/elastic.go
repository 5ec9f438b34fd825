package layout

import (
	"fmt"
	"time"

	"tiger/internal/msg"
)

// Spindle names a physical drive: its cub and its cub-local index. Disk
// numbers cannot name a drive across a reconfiguration, because they are
// renumbered when the shape changes: disk 5 of a 14-cub array and disk 5
// of a 16-cub array are different spindles, and a block whose number
// changes but whose spindle does not must not be copied.
type Spindle struct {
	Cub msg.NodeID
	Idx int8
}

// ElasticMove is one block (or mirror piece) that must change spindles
// when the shape changes.
type ElasticMove struct {
	File     msg.FileID
	Block    int32
	Part     int8 // -1 for the primary copy, else mirror piece index
	From, To Spindle
	Bytes    int64
}

// ElasticPlan is the physical copy set for a reconfiguration (§2.2:
// "changing the system configuration by adding or removing cubs and/or
// disks requires changing the layout of all of the files").
type ElasticPlan struct {
	Old, New   Config
	Moves      []ElasticMove
	BytesTotal int64
	// BytesOut and BytesIn total the bytes leaving and entering each
	// spindle.
	BytesOut, BytesIn map[Spindle]int64
}

func physical(c Config, disk int) Spindle {
	return Spindle{c.CubOfDisk(disk), int8(disk / c.Cubs)}
}

// PlanElastic computes the physical moves needed to convert files laid
// out under old into the layout under new, which may differ in cubs,
// disks per cub and decluster factor. Start disks are remapped modulo the
// new disk count so files stay evenly spread. The plan is deterministic:
// moves are emitted in file order, block-ascending, primary before
// mirror pieces.
func PlanElastic(old, new Config, files []File) (*ElasticPlan, error) {
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("old config: %w", err)
	}
	if err := new.Validate(); err != nil {
		return nil, fmt.Errorf("new config: %w", err)
	}
	p := &ElasticPlan{Old: old, New: new,
		BytesOut: make(map[Spindle]int64), BytesIn: make(map[Spindle]int64)}
	// A changed decluster factor resizes every piece, so every piece moves.
	resized := old.Decluster != new.Decluster
	for _, f := range files {
		nf := f
		nf.StartDisk = f.StartDisk % new.NumDisks()
		for b := 0; b < f.Blocks; b++ {
			primary := physical(old, old.PrimaryDisk(f, b))
			p.add(ElasticMove{File: f.ID, Block: int32(b), Part: -1,
				From: primary, To: physical(new, new.PrimaryDisk(nf, b)), Bytes: f.BlockSize}, false)
			for part := 0; part < new.Decluster; part++ {
				from := primary // a piece the old layout lacks is cut from the primary copy
				if part < old.Decluster {
					from = physical(old, old.SecondaryDisk(f, b, part))
				}
				p.add(ElasticMove{File: f.ID, Block: int32(b), Part: int8(part),
					From: from, To: physical(new, new.SecondaryDisk(nf, b, part)),
					Bytes: new.MirrorPartSize(nf)}, resized)
			}
		}
	}
	return p, nil
}

// add keeps m if its spindle changes or force is set.
func (p *ElasticPlan) add(m ElasticMove, force bool) {
	if m.From == m.To && !force {
		return
	}
	p.Moves = append(p.Moves, m)
	p.BytesTotal += m.Bytes
	p.BytesOut[m.From] += m.Bytes
	p.BytesIn[m.To] += m.Bytes
}

// Estimate returns the restripe time if every spindle copies at rate
// bytes/s, reading and writing in turn, with every transfer in parallel
// through the switched network: the busiest spindle's bytes out plus
// bytes in, over rate. That is the paper's point — the answer depends on
// the size and speed of one cub's disks, not on system size.
func (p *ElasticPlan) Estimate(rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	var worst int64
	for s, out := range p.BytesOut {
		worst = max(worst, out+p.BytesIn[s])
	}
	for s, in := range p.BytesIn {
		worst = max(worst, p.BytesOut[s]+in)
	}
	return time.Duration(float64(worst) / rate * float64(time.Second))
}
