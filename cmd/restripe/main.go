// Command restripe plans a Tiger configuration change (§2.2): adding or
// removing cubs or disks requires re-laying-out every file, and this
// tool prints the move plan the live restripe drives (a move for every
// block or piece whose spindle changes) and estimates its duration. It
// demonstrates the paper's claim that restripe time depends on the size
// and speed of individual cubs and disks, not on system size, because
// all moves proceed in parallel through the switched network.
//
//	restripe -from 14x4 -to 16x4 -files 64 -blocks 3600
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
)

var (
	fromFlag  = flag.String("from", "14x4", "current shape, cubs x disksPerCub")
	toFlag    = flag.String("to", "16x4", "target shape, cubs x disksPerCub")
	decl      = flag.Int("decluster", 4, "decluster factor (both configurations)")
	declTo    = flag.Int("decluster-to", 0, "target decluster factor (default: same)")
	nfiles    = flag.Int("files", 64, "number of files")
	fblocks   = flag.Int("blocks", 3600, "blocks per file")
	blockSize = flag.Int64("blocksize", 262144, "bytes per block")
	rate      = flag.Float64("diskrate", 5.08e6, "per-disk copy rate, bytes/s")
	live      = flag.Bool("live", false, "project the ONLINE restripe: copies trickled through idle schedule slots while serving")
	liveLoad  = flag.Float64("load", 1.0, "stream load fraction for -live (1.0 = full planned capacity)")
	budget    = flag.Float64("budget", 0.5, "fraction of idle disk time the live mover may consume")
)

func parseShape(s string) (cubs, disks int, err error) {
	a, b, found := strings.Cut(strings.ToLower(s), "x")
	if !found {
		return 0, 0, fmt.Errorf("shape %q: want CUBSxDISKS", s)
	}
	if cubs, err = strconv.Atoi(a); err != nil {
		return
	}
	disks, err = strconv.Atoi(b)
	return
}

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plans the restripe the flags describe and prints the report to w.
func run(w io.Writer) error {
	fc, fd, err := parseShape(*fromFlag)
	if err != nil {
		return err
	}
	tc, td, err := parseShape(*toFlag)
	if err != nil {
		return err
	}
	toDecl := *declTo
	if toDecl == 0 {
		toDecl = *decl
	}
	old := layout.Config{Cubs: fc, DisksPerCub: fd, Decluster: *decl}
	new := layout.Config{Cubs: tc, DisksPerCub: td, Decluster: toDecl}

	files := make([]layout.File, *nfiles)
	for i := range files {
		files[i] = layout.File{
			ID:        msg.FileID(i),
			StartDisk: (i * 7) % old.NumDisks(),
			Blocks:    *fblocks,
			BlockSize: *blockSize,
		}
	}

	plan, err := layout.PlanElastic(old, new, files)
	if err != nil {
		return err
	}

	var maxOut, maxIn int64
	for _, b := range plan.BytesOut {
		maxOut = max(maxOut, b)
	}
	for _, b := range plan.BytesIn {
		maxIn = max(maxIn, b)
	}
	totalContent := int64(*nfiles) * int64(*fblocks) * *blockSize

	fmt.Fprintf(w, "restripe %s (dc %d) -> %s (dc %d)\n", *fromFlag, *decl, *toFlag, toDecl)
	fmt.Fprintf(w, "  content          : %d files, %.1f GB primary\n", *nfiles, float64(totalContent)/1e9)
	fmt.Fprintf(w, "  moves            : %d (%.1f GB including mirror pieces)\n",
		len(plan.Moves), float64(plan.BytesTotal)/1e9)
	fmt.Fprintf(w, "  busiest disk out : %.2f GB\n", float64(maxOut)/1e9)
	fmt.Fprintf(w, "  busiest disk in  : %.2f GB\n", float64(maxIn)/1e9)
	fmt.Fprintf(w, "  estimated time   : %v at %.1f MB/s per disk (busiest disk's out + in)\n",
		plan.Estimate(*rate).Round(time.Second), *rate/1e6)

	// The paper's point: the estimate is governed by per-disk volume.
	capOld := disk.PlanCapacity(disk.DefaultParams(), old.NumDisks(), *blockSize, time.Second, *decl)
	capNew := disk.PlanCapacity(disk.DefaultParams(), new.NumDisks(), *blockSize, time.Second, toDecl)
	fmt.Fprintf(w, "  capacity change  : %d -> %d streams\n", capOld.Streams, capNew.Streams)

	if *live {
		// The online restripe never takes the system down: the core
		// mover trickles copies through idle slots of the disk schedule,
		// so throughput is governed by how much of each drive the
		// streams leave unused. Source drives bound the copy: every old
		// drive ships moves, and the busiest one finishes last.
		cps, bps := core.ProjectedMoveRate(disk.DefaultParams(), *blockSize, time.Second, *decl, *liveLoad, *budget)
		duty := core.PlanMoveCapacity(disk.DefaultParams(), *blockSize, time.Second, *decl) * *liveLoad
		if duty > 1 {
			duty = 1
		}
		perDisk := float64(len(plan.Moves)) / float64(old.NumDisks())
		fmt.Fprintf(w, "  live restripe    : at %.0f%% load (disk duty %.0f%%), %.1f copies/s per drive (%.2f MB/s)\n",
			*liveLoad*100, duty*100, cps, bps/1e6)
		fmt.Fprintf(w, "  live copy time   : ~%v for ~%.0f moves per source drive\n",
			(time.Duration(perDisk / cps * float64(time.Second))).Round(time.Second), perDisk)
	}
	return nil
}
