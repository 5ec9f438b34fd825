package layout

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tiger/internal/msg"
)

func elasticFiles(n, blocks, numDisks int) []File {
	files := make([]File, n)
	for i := range files {
		files[i] = File{ID: msg.FileID(i), StartDisk: (i * 7) % numDisks,
			Blocks: blocks, Bitrate: 6 << 20, BlockSize: 262144}
	}
	return files
}

// Shrinking below the declustering width must surface as an error from
// the planner, never a panic: decluster 4 needs at least 5 disks.
func TestPlanShrinkBelowDeclusterErrors(t *testing.T) {
	old := Config{Cubs: 6, DisksPerCub: 1, Decluster: 4}
	bad := Config{Cubs: 4, DisksPerCub: 1, Decluster: 4}
	files := elasticFiles(2, 10, old.NumDisks())
	if _, err := PlanElastic(old, bad, files); err == nil {
		t.Fatalf("PlanElastic accepted a %d-disk config with decluster %d",
			bad.NumDisks(), bad.Decluster)
	}
}

// A no-op reconfiguration (same config) must plan zero moves: every
// block's physical home is unchanged.
func TestPlanElasticNoop(t *testing.T) {
	cfg := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(8, 100, cfg.NumDisks())
	p, err := PlanElastic(cfg, cfg, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) != 0 || p.BytesTotal != 0 {
		t.Fatalf("no-op plan has %d moves, %d bytes", len(p.Moves), p.BytesTotal)
	}
}

// The plan must be byte-for-byte deterministic across runs: the live
// restripe coordinator numbers moves by slice index, and the chaos
// experiments replay fixed seeds against those numbers.
func TestPlanElasticDeterministic(t *testing.T) {
	old := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	grow := Config{Cubs: 16, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(12, 100, old.NumDisks())
	render := func() string {
		p, err := PlanElastic(old, grow, files)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v|%d", p.Moves, p.BytesTotal)
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("PlanElastic not deterministic across runs")
	}
}

// Moves must never target a cub outside the new config or source one
// outside the old, and a grow must route some blocks to the new cubs.
func TestPlanElasticGrowTargets(t *testing.T) {
	old := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	grow := Config{Cubs: 16, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(12, 100, old.NumDisks())
	p, err := PlanElastic(old, grow, files)
	if err != nil {
		t.Fatal(err)
	}
	toNew := 0
	for _, m := range p.Moves {
		if int(m.From.Cub) >= old.Cubs || int(m.To.Cub) >= grow.Cubs {
			t.Fatalf("move %+v escapes the configs", m)
		}
		if int(m.From.Idx) >= old.DisksPerCub || int(m.To.Idx) >= grow.DisksPerCub {
			t.Fatalf("move %+v names a bad disk index", m)
		}
		if int(m.To.Cub) >= old.Cubs {
			toNew++
		}
	}
	if len(p.Moves) == 0 || toNew == 0 {
		t.Fatalf("grow plan: %d moves, %d to new cubs", len(p.Moves), toNew)
	}
}

// A shrink plan must evacuate the retiring cubs completely: after the
// plan, no block or piece may still be homed on a cub >= new.Cubs.
func TestPlanElasticShrinkEvacuates(t *testing.T) {
	old := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	shrink := Config{Cubs: 12, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(12, 100, old.NumDisks())
	p, err := PlanElastic(old, shrink, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Moves {
		if int(m.To.Cub) >= shrink.Cubs {
			t.Fatalf("shrink move %+v targets a retiring cub", m)
		}
	}
	// Exhaustively check evacuation: every (file, block, part) homed on a
	// retiring cub under old must appear as a move source or, when the
	// new layout re-homes it, as the matching destination elsewhere.
	moved := make(map[string]bool, len(p.Moves))
	for _, m := range p.Moves {
		moved[fmt.Sprintf("%d/%d/%d", m.File, m.Block, m.Part)] = true
	}
	for _, f := range files {
		nf := f
		nf.StartDisk = f.StartDisk % shrink.NumDisks()
		for b := 0; b < f.Blocks; b++ {
			if cub := physical(old, old.PrimaryDisk(f, b)).Cub; int(cub) >= shrink.Cubs {
				if !moved[fmt.Sprintf("%d/%d/-1", f.ID, b)] {
					t.Fatalf("file %d block %d stranded on retiring cub %d", f.ID, b, cub)
				}
			}
			for part := 0; part < old.Decluster; part++ {
				if cub := physical(old, old.SecondaryDisk(f, b, part)).Cub; int(cub) >= shrink.Cubs {
					if !moved[fmt.Sprintf("%d/%d/%d", f.ID, b, part)] {
						t.Fatalf("file %d block %d part %d stranded on retiring cub %d", f.ID, b, part, cub)
					}
				}
			}
		}
	}
}

func TestRestripeIdentityIsEmpty(t *testing.T) {
	c := cfg(4, 2, 2)
	files := []File{{ID: 1, StartDisk: 3, Blocks: 100, BlockSize: 64}}
	p, err := PlanElastic(c, c, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) != 0 || p.Estimate(5e6) != 0 {
		t.Fatalf("identity restripe moved %d blocks, estimated %v", len(p.Moves), p.Estimate(5e6))
	}
}

// Every move of a grow lands where the new layout places the block.
func TestRestripeAddCub(t *testing.T) {
	old := cfg(4, 2, 2)
	new := cfg(5, 2, 2)
	files := []File{{ID: 1, StartDisk: 0, Blocks: 400, BlockSize: 64}}
	p, err := PlanElastic(old, new, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) == 0 {
		t.Fatal("adding a cub moved nothing")
	}
	nf := files[0]
	nf.StartDisk = files[0].StartDisk % new.NumDisks()
	for _, m := range p.Moves {
		want := physical(new, new.PrimaryDisk(nf, int(m.Block)))
		if m.Part >= 0 {
			want = physical(new, new.SecondaryDisk(nf, int(m.Block), int(m.Part)))
		}
		if m.To != want {
			t.Fatalf("block %d part %d moved to %+v, want %+v", m.Block, m.Part, m.To, want)
		}
	}
}

// TestRestripeTimeIndependentOfSystemSize demonstrates §2.2's claim: the
// time to restripe depends on per-disk volume, not system size. Growing
// the system eightfold (with proportionally more content) leaves the
// busiest spindle's volume — and hence the estimate — within a small
// factor.
func TestRestripeTimeIndependentOfSystemSize(t *testing.T) {
	perDiskBlocks := 200
	duration := func(cubs int) time.Duration {
		old := cfg(cubs, 2, 2)
		new := cfg(cubs+1, 2, 2)
		files := make([]File, cubs) // content scales with system size
		for i := range files {
			files[i] = File{
				ID:        msg.FileID(i),
				StartDisk: (i * 3) % old.NumDisks(),
				Blocks:    perDiskBlocks * old.NumDisks() / len(files),
				BlockSize: 262144,
			}
		}
		p, err := PlanElastic(old, new, files)
		if err != nil {
			t.Fatal(err)
		}
		return p.Estimate(5e6)
	}
	small, large := duration(4), duration(32)
	t.Logf("estimate at 4 cubs %v, at 32 cubs %v", small, large)
	if small <= 0 || large <= 0 {
		t.Fatalf("durations: %v vs %v", small, large)
	}
	if ratio := float64(large) / float64(small); ratio > 2.0 {
		t.Fatalf("restripe time grew %.1fx when system grew 8x (%v -> %v)", ratio, small, large)
	}
}

func TestRestripeByteAccounting(t *testing.T) {
	old := cfg(3, 1, 1)
	new := cfg(4, 1, 1)
	files := []File{{ID: 9, StartDisk: 1, Blocks: 60, BlockSize: 100}}
	p, err := PlanElastic(old, new, files)
	if err != nil {
		t.Fatal(err)
	}
	var out, in, moved int64
	for _, b := range p.BytesOut {
		out += b
	}
	for _, b := range p.BytesIn {
		in += b
	}
	for _, m := range p.Moves {
		moved += m.Bytes
	}
	if out != in || out != p.BytesTotal || out != moved || out == 0 {
		t.Fatalf("bytes out %d, in %d, total %d, moved %d", out, in, p.BytesTotal, moved)
	}
}

func TestRestripeRejectsBadConfigs(t *testing.T) {
	good := cfg(3, 1, 1)
	bad := cfg(0, 1, 1)
	if _, err := PlanElastic(bad, good, nil); err == nil {
		t.Error("bad old config accepted")
	}
	if _, err := PlanElastic(good, bad, nil); err == nil {
		t.Error("bad new config accepted")
	}
}

func TestEstimateDurationZeroRate(t *testing.T) {
	p, err := PlanElastic(cfg(3, 1, 1), cfg(4, 1, 1),
		[]File{{ID: 9, StartDisk: 1, Blocks: 60, BlockSize: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate(0) != 0 || p.Estimate(-1) != 0 {
		t.Error("a non-positive rate should estimate 0")
	}
}

// TestPlanElasticComplete: the plan holds a move exactly when a block's
// or piece's spindle changes — or, for a piece, when the decluster factor
// changes its size — and the move runs between those spindles. Spindles
// are derived here from DisksOfCub, not from the planner's arithmetic.
func TestPlanElasticComplete(t *testing.T) {
	spindle := func(c Config, disk int) Spindle {
		cub := c.CubOfDisk(disk)
		return Spindle{cub, int8(slices.Index(c.DisksOfCub(cub), disk))}
	}
	base := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	for _, tc := range []struct {
		name string
		new  Config
	}{
		{"grow", Config{Cubs: 16, DisksPerCub: 4, Decluster: 4}},
		{"shrink", Config{Cubs: 12, DisksPerCub: 4, Decluster: 4}},
		{"decluster", Config{Cubs: 14, DisksPerCub: 4, Decluster: 2}},
		{"disks-per-cub", Config{Cubs: 14, DisksPerCub: 5, Decluster: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, new := base, tc.new
			files := elasticFiles(9, 40, old.NumDisks())
			p, err := PlanElastic(old, new, files)
			if err != nil {
				t.Fatal(err)
			}
			type key struct {
				file  msg.FileID
				block int32
				part  int8
			}
			got := make(map[key]ElasticMove, len(p.Moves))
			for _, m := range p.Moves {
				got[key{m.File, m.Block, m.Part}] = m
			}
			want := 0
			check := func(k key, from, to Spindle, resized bool) {
				m, ok := got[k]
				if moves := from != to || resized; moves != ok {
					t.Fatalf("%+v: spindle %+v -> %+v, planned %v", k, from, to, ok)
				}
				if ok {
					want++
					if m.From != from || m.To != to {
						t.Fatalf("%+v: planned %+v -> %+v, want %+v -> %+v", k, m.From, m.To, from, to)
					}
				}
			}
			for _, f := range files {
				nf := f
				nf.StartDisk = f.StartDisk % new.NumDisks()
				for b := 0; b < f.Blocks; b++ {
					primary := spindle(old, old.PrimaryDisk(f, b))
					check(key{f.ID, int32(b), -1}, primary, spindle(new, new.PrimaryDisk(nf, b)), false)
					for part := 0; part < new.Decluster; part++ {
						from := primary
						if part < old.Decluster {
							from = spindle(old, old.SecondaryDisk(f, b, part))
						}
						check(key{f.ID, int32(b), int8(part)}, from,
							spindle(new, new.SecondaryDisk(nf, b, part)), old.Decluster != new.Decluster)
					}
				}
			}
			if want != len(p.Moves) || want == 0 {
				t.Fatalf("plan holds %d moves, the layouts differ in %d", len(p.Moves), want)
			}
		})
	}
}
