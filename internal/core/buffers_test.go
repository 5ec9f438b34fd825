package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"tiger/internal/msg"
	"tiger/internal/sim"
)

// TestLazyBufferReleaseEqualsEager drives a cub's buffer pool the way
// the block path does — a read takes a buffer, the send gives it back one
// pace later, a primary's pace or a mirror piece's — at instants on a
// grid both paces divide, so a buffer often falls due at the very instant
// another is taken, with a Restart in the middle. Every BufferedBytes and
// Snapshot read and the final PeakBuffered are compared with an eager
// model computed here: all changes of the run sorted by instant (a
// release before a take or a read at the same instant) and summed in one
// sweep.
func TestLazyBufferReleaseEqualsEager(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := indexTestConfig(t, 6, 1, 4, 2, 100)
		clk := &lostRaceClock{}
		data := &countingData{}
		c := NewCub(0, cfg, clk, nopTransport{}, data, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed))
		grid := cfg.MirrorPace() / 5

		type change struct {
			at      sim.Time
			release bool
			seq     int
			delta   int64
			read    int // index into reads, or -1
		}
		var changes []change
		var reads []int64
		var pending []*entry // read done, send not yet due
		sends := 0
		for op := 0; op < 4000; op++ {
			clk.now = clk.now.Add(time.Duration(rng.Intn(4)) * grid) // 0: same instant as the last op
			switch k := rng.Intn(20); {
			case op == 2000:
				c.Restart() // the buffers out on the wire outlive the incarnation
			case k < 2:
				changes = append(changes, change{at: clk.now, seq: op, read: len(reads)})
				reads = append(reads, c.BufferedBytes())
			case k < 4:
				changes = append(changes, change{at: clk.now, seq: op, read: len(reads)})
				reads = append(reads, c.Snapshot().BufferedBytes)
			case k < 12:
				// issueRead's half: the block DMAs into a buffer.
				e := &entry{c: c, ready: true, disk: 0, buffered: cfg.BlockSize,
					vs: msg.ViewerState{Viewer: 1, Instance: 1, Part: -1}}
				if rng.Intn(3) == 0 {
					e.vs.Mirror, e.vs.Part, e.buffered = true, 0, cfg.MirrorPartSize()
				}
				e.key = entryKey{int32(op), e.vs.Part, int64(op)}
				c.bufAdjust(e.buffered)
				changes = append(changes, change{at: clk.now, seq: op, delta: e.buffered, read: -1})
				pending = append(pending, e)
			case len(pending) > 0:
				e := pending[0]
				pending = pending[1:]
				pace := cfg.Sched.BlockPlay
				if e.vs.Mirror {
					pace = cfg.MirrorPace()
				}
				changes = append(changes, change{at: clk.now.Add(pace), release: true, seq: op, delta: -e.buffered, read: -1})
				c.service(e) // hands the record back: read nothing of it after
				sends++
			}
		}
		clk.now = clk.now.Add(2 * cfg.Sched.BlockPlay)
		changes = append(changes, change{at: clk.now, seq: 1 << 30, read: len(reads)})
		reads = append(reads, c.BufferedBytes())
		if data.blocks != sends {
			t.Fatalf("seed %d: %d blocks on the data path for %d sends", seed, data.blocks, sends)
		}

		sort.SliceStable(changes, func(i, j int) bool {
			a, b := changes[i], changes[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.release != b.release {
				return a.release
			}
			return a.seq < b.seq
		})
		var held, peak, outstanding int64
		for _, e := range pending {
			outstanding += e.buffered
		}
		ties := 0
		for i, ch := range changes {
			held += ch.delta
			if held > peak {
				peak = held
			}
			if ch.delta > 0 && i > 0 && changes[i-1].release && changes[i-1].at == ch.at {
				ties++
			}
			if ch.read >= 0 && reads[ch.read] != held {
				t.Fatalf("seed %d, read %d at %v: %d bytes buffered, eager model %d", seed, ch.read, ch.at, reads[ch.read], held)
			}
		}
		if got := c.Stats().PeakBuffered; got != peak {
			t.Fatalf("seed %d: PeakBuffered %d, eager model %d", seed, got, peak)
		}
		if held != outstanding {
			t.Fatalf("seed %d: %d bytes held at the end, %d read and never sent", seed, held, outstanding)
		}
		if ties < sends/20 {
			t.Fatalf("seed %d exercises too little: %d takes at the instant of a release in %d sends", seed, ties, sends)
		}
	}
}
