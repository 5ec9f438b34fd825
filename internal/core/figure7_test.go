package core

import (
	"strings"
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/trace"
)

// TestFigure7TransientViews reproduces the paper's Figure 7 scenario:
// after a deschedule frees a slot and a new viewer is inserted into it,
// different cubs transiently hold different beliefs about the slot —
// one sees the new viewer, one sees it free (deschedule processed, new
// state not yet arrived), one still sees the old viewer — and "none of
// these inconsistencies causes a problem, because by the time a cub
// takes action based on the contents of a slot, the slot is up-to-date."
func TestFigure7TransientViews(t *testing.T) {
	o := defaultRigOptions()
	o.cubs = 8
	r := newRig(t, o)

	// Establish viewer 1 and find its slot.
	var slot int32 = -1
	var insertedBy msg.NodeID
	r.subscribe(trace.KindSet(trace.Insert), func(e trace.Event) {
		if slot == -1 {
			slot = e.Slot
			insertedBy = e.Node
		}
	})
	inst1 := r.play(1, 0, 0)
	r.run(10 * time.Second)
	if slot < 0 {
		t.Fatal("no insertion observed")
	}
	t.Logf("viewer 1 (inst %d) in slot %d, inserted by %v", inst1, slot, insertedBy)

	// Stop viewer 1 and immediately start viewer 2 on the same file: it
	// will reuse the freed slot (or another). Freeze the simulation a
	// few hundred microseconds after the deschedule is issued, while it
	// and the new viewer state are still in flight.
	r.ctl.StopPlay(inst1)
	r.play(2, 0, 0)
	r.eng.RunFor(500 * time.Microsecond)

	beliefs := map[string]int{}
	for _, c := range r.cubs {
		v := c.SlotView(slot)
		switch {
		case v == "free":
			beliefs["free"]++
		case strings.Contains(v, "viewer 1 "):
			beliefs["old"]++
		default:
			beliefs["other"]++
		}
	}
	t.Logf("mid-flight beliefs about slot %d: %v", slot, beliefs)
	// The deschedule has not reached every holder yet: at least one cub
	// must still hold the old viewer while another already freed it.
	if beliefs["old"] == 0 {
		t.Log("deschedule already everywhere (timing-dependent); still verifying convergence")
	}

	// Convergence: run on; the views become coherent — nobody believes
	// in viewer 1 any more, and no conflicts ever happened.
	r.run(30 * time.Second)
	for _, c := range r.cubs {
		if v := c.SlotView(slot); strings.Contains(v, "viewer 1 ") {
			t.Fatalf("cub %v still believes the old viewer: %s", c.ID(), v)
		}
	}
	if tot := r.totals(); tot.Conflicts != 0 {
		t.Fatalf("conflicts: %d", tot.Conflicts)
	}
	if got := r.got(2); got < 25 {
		t.Fatalf("new viewer received %d blocks", got)
	}
}

func TestDumpViewRenders(t *testing.T) {
	r := newRig(t, defaultRigOptions())
	r.play(1, 0, 0)
	r.run(10 * time.Second)
	found := false
	for _, c := range r.cubs {
		dump := c.DumpView()
		if strings.Contains(dump, "viewer 1") && strings.Contains(dump, "primary") {
			found = true
		}
		if !strings.Contains(dump, "view at") {
			t.Fatalf("malformed dump:\n%s", dump)
		}
	}
	if !found {
		t.Fatal("no cub's dump mentions the active viewer")
	}
	if len(r.cubs[0].HeldDeschedules()) != 0 {
		t.Fatal("spurious held deschedules")
	}
}
