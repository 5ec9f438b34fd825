package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// TestGrowToDoubleCountsSpindleMoves pins the report for 14x4 -> 28x4: a
// move for every block or piece whose spindle changes, including those
// whose disk number stays the same (a planner comparing disk numbers
// finds 574 040), and an estimate set by the busiest spindle's out + in.
func TestGrowToDoubleCountsSpindleMoves(t *testing.T) {
	if err := flag.Set("from", "14x4"); err != nil {
		t.Fatal(err)
	}
	if err := flag.Set("to", "28x4"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"moves            : 1007960 (105.7 GB including mirror pieces)",
		"busiest disk out : 2.16 GB",
		"busiest disk in  : 1.08 GB",
		"estimated time   : 10m38s at 5.1 MB/s per disk",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
