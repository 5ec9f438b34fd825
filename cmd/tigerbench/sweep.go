package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tiger"
	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/obs/attr"
	"tiger/internal/sim"
)

// The mechanisms every sweep in this command shares: the fan-out over
// independent points, the named arms of a gated fault sweep and their
// zero-column gate, the traced variant of a run, the before/after
// counter window with the CPU model it feeds, the drain-until-quiet loop
// and the option presets.

// forEachPoint runs fn(0..n-1), fanning out over at most -parallel
// workers (0 = GOMAXPROCS). Every point builds its own cluster around
// its own engine from copied options, shares nothing and writes only its
// own pre-sized output slot, so results — and output bytes — are the
// sequential loop's at any width. The returned error is the
// lowest-indexed one, the one a sequential loop would have reported.
func forEachPoint(n int, fn func(i int) error) error {
	par := *parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// arm is one named point of a gated fault sweep. run builds the arm's
// cluster from the sweep's options, injects its faults and checks its
// gates; a failed gate still returns the point as measured.
type arm[P any] struct {
	name string
	run  func(tiger.Options) (P, error)
}

// runArms runs the arms that names selects — every arm when it names
// none — over forEachPoint, and names the arm in a failure.
func runArms[P any](o tiger.Options, arms []arm[P], names []string) ([]P, error) {
	if len(names) > 0 {
		var kept []arm[P]
		var have []string
		for _, a := range arms {
			if !slices.Contains(have, a.name) {
				have = append(have, a.name)
			}
			if slices.Contains(names, a.name) {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("no arms match %v (have %v)", names, have)
		}
		arms = kept
	}
	out := make([]P, len(arms))
	err := forEachPoint(len(arms), func(i int) error {
		p, err := arms[i].run(o)
		out[i] = p
		if err != nil {
			return fmt.Errorf("arm %s: %w", arms[i].name, err)
		}
		return nil
	})
	return out, err
}

// zeroColumns is the gate every fault sweep applies to an arm: no block
// lost beyond lossCap, none served twice, no invariant violated.
func zeroColumns(lost, lossCap int64, doubles, violations int) error {
	if lost > lossCap {
		return fmt.Errorf("%d blocks lost (cap %d)", lost, lossCap)
	}
	if doubles != 0 {
		return fmt.Errorf("%d double services", doubles)
	}
	if violations != 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

// traced is what -attr adds to a run's result: the per-component slack
// attribution over the run's traced blocks and the flight recorder's
// dumps of the ones that missed. Embedded last in a result type, its
// fields stay last in the JSON, and without -attr they are absent.
type traced struct {
	Attribution *attr.Table        `json:"attribution,omitempty"`
	Flight      []tiger.FlightDump `json:"flight,omitempty"`
}

// startTrace turns on the protocol ring, causal tracing and the flight
// recorder when on. Call it on a new cluster, before any load.
func startTrace(c *tiger.Cluster, on bool) {
	if on {
		c.EnableTrace(4096)
		c.EnableCausalTrace(0, 0)
		c.EnableFlightRecorder(0)
	}
}

// collect fills t from a cluster startTrace turned tracing on for.
func (t *traced) collect(c *tiger.Cluster) {
	if !c.CausalTraceEnabled() {
		return
	}
	t.Attribution = attr.Build(c.CausalChains())
	if fr := c.FlightRecorder(); fr != nil {
		t.Flight = fr.Dumps()
	}
}

// render prints t's attribution table under title; name is the
// experiment whose BENCH file holds the flight dumps.
func (t traced) render(title, name string) {
	if t.Attribution == nil {
		return
	}
	fmt.Printf("\n%s — where the slack went:\n", title)
	t.Attribution.Render(os.Stdout)
	if n := len(t.Flight); n > 0 {
		fmt.Printf("flight recorder: %d failure dumps captured (see BENCH_%s.json)\n", n, name)
	}
}

// window is a cluster's cumulative counters at one instant: delivery,
// protocol, controller, disk and network. delta gives what accumulated
// since, the numbers a sweep reports over its measured window, and load
// turns that into the load factors of Figures 8 and 9.
type window struct {
	at               sim.Time
	ok, lost, mirror int64
	violations       int
	cubs             core.CubStats // summed over every cub
	ctrl             core.ControllerStats
	cub              map[msg.NodeID]core.CubStats
	net              map[msg.NodeID]netsim.Stats
	disk             map[int]time.Duration // busy time by native disk number
}

func snapshot(c *tiger.Cluster) window {
	w := window{
		at:         c.Now(),
		violations: c.InvariantViolations(),
		cubs:       c.TotalCubStats(),
		ctrl:       c.Controller.Stats(),
		cub:        make(map[msg.NodeID]core.CubStats, len(c.Cubs)),
		net:        make(map[msg.NodeID]netsim.Stats, len(c.Cubs)),
		disk:       make(map[int]time.Duration),
	}
	w.ok, w.lost, w.mirror = c.ViewerTotals()
	for _, cub := range c.Cubs {
		w.cub[cub.ID()] = cub.Stats()
		w.net[cub.ID()] = c.Net.NodeStats(cub.ID())
		for id, d := range cub.Disks() {
			w.disk[id] = d.Stats().BusyTotal
		}
	}
	return w
}

// delta returns the counters accumulated since w, at the instant it is
// taken. A cub or disk born since w (a restripe adds them) counts from
// zero.
func (w window) delta(c *tiger.Cluster) window {
	d := snapshot(c)
	d.ok -= w.ok
	d.lost -= w.lost
	d.mirror -= w.mirror
	d.violations -= w.violations
	d.cubs = minus(d.cubs, w.cubs)
	d.ctrl = minus(d.ctrl, w.ctrl)
	for id, s := range d.cub {
		d.cub[id] = minus(s, w.cub[id])
	}
	for id, s := range d.net {
		d.net[id] = minus(s, w.net[id])
	}
	for id, b := range d.disk {
		d.disk[id] = b - w.disk[id]
	}
	return d
}

// disks returns w's disk numbers in order. Sum over disks in this order:
// a float sum in map order differs in its last digits from run to run.
func (w window) disks() []int {
	ids := make([]int, 0, len(w.disk))
	for id := range w.disk {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// minus subtracts b from a field by field; every field of T is an
// integer or a float.
func minus[T any](a, b T) T {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		if f := av.Field(i); f.CanFloat() {
			f.SetFloat(f.Float() - bv.Field(i).Float())
		} else {
			f.SetInt(f.Int() - bv.Field(i).Int())
		}
	}
	return a
}

// loadSample is one window's load factors, the quantities Figures 8
// and 9 plot.
type loadSample struct {
	At      sim.Time
	Streams int

	CubCPU  float64 // mean CPU load across live cubs
	CtrlCPU float64 // controller CPU load

	DiskLoad       float64 // mean disk duty cycle across live disks
	MirrorDiskLoad float64 // duty cycle of a mirroring cub's disks (failed mode)

	CtlTrafficBps  float64 // control bytes/s from the probe cub to all others
	DataRateBps    float64 // payload bytes/s from the probe cub
	MaxViewEntries int     // largest per-cub view (scalability invariant)
}

// load closes w and returns its load factors. probeCub is the cub whose
// outbound traffic is reported; in failed-mode runs it is a mirroring
// cub, as the paper measured. mirrorCub is a cub covering for a failed
// peer, whose disks' duty is reported as MirrorDiskLoad; -1 when none.
func (w window) load(c *tiger.Cluster, probeCub, mirrorCub int) loadSample {
	d := w.delta(c)
	wall := d.at.Sub(w.at)
	if wall <= 0 {
		return loadSample{At: d.at, Streams: c.Active()}
	}
	var cpu, disks, mirror []float64
	for _, cub := range c.Cubs {
		if !c.Net.Failed(cub.ID()) {
			cpu = append(cpu, duty(cubBusy(d.cub[cub.ID()], c.Cfg), wall))
		}
	}
	var mirrorDisks []int
	if mirrorCub >= 0 {
		mirrorDisks = c.Cfg.Layout.DisksOfCub(msg.NodeID(mirrorCub))
	}
	for _, id := range d.disks() {
		if c.Net.Failed(c.Cfg.Layout.CubOfDisk(id)) {
			continue
		}
		u := duty(d.disk[id], wall)
		disks = append(disks, u)
		if slices.Contains(mirrorDisks, id) {
			mirror = append(mirror, u)
		}
	}
	ns := d.net[msg.NodeID(probeCub)]
	return loadSample{
		At: d.at, Streams: c.Active(),
		CubCPU: mean(cpu), CtrlCPU: duty(ctrlBusy(d.ctrl), wall),
		DiskLoad: mean(disks), MirrorDiskLoad: mean(mirror),
		CtlTrafficBps:  float64(ns.CtlBytes) / wall.Seconds(),
		DataRateBps:    float64(ns.DataBytes) / wall.Seconds(),
		MaxViewEntries: c.MaxViewSize(),
	}
}

// mean returns the mean of xs, summed in order, or 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// The simulator has no CPUs, but Figures 8 and 9 plot CPU load, so a
// machine's CPU time is modelled from its counters. The costs are
// calibrated to the paper's Pentium-133 cubs: most CPU time went to
// packetizing video data ("We believe that most of the CPU time was
// spent packetizing the video data"), so a per-byte charge dominates,
// sized so a cub sending 43 2 Mbit/s streams plus its mirroring share
// runs at just over 80% CPU (§5).
const (
	perDataByte = 62 * time.Nanosecond   // packetizing one payload byte sent
	perCtlMsg   = 100 * time.Microsecond // handling one control message
	perDiskOp   = 500 * time.Microsecond // issuing and completing one disk read
	perStartReq = 2 * time.Millisecond   // the controller handling a start or stop
)

// busy is the modelled CPU time of a machine that sent dataBytes of
// video and handled msgs control messages, reads disk reads and reqs
// start and stop requests.
func busy(dataBytes, msgs, reads, reqs int64) time.Duration {
	return time.Duration(dataBytes)*perDataByte + time.Duration(msgs)*perCtlMsg +
		time.Duration(reads)*perDiskOp + time.Duration(reqs)*perStartReq
}

// cubBusy is a cub's modelled CPU time over counters s: every message
// delivered and every gossip batch sent is one control message.
func cubBusy(s core.CubStats, cfg *core.Config) time.Duration {
	return busy(s.BlocksSent*cfg.BlockSize+s.PiecesSent*cfg.MirrorPartSize(),
		s.MsgsRecv+s.GossipBatches, s.DiskReads, 0)
}

// ctrlBusy is the controller's modelled CPU time over counters s.
func ctrlBusy(s core.ControllerStats) time.Duration {
	return busy(0, s.MsgsRecv, 0, s.Requests)
}

// duty returns busy/wall, clamped at 1: a real machine or drive
// saturates at 100%.
func duty(busy, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return min(float64(busy)/float64(wall), 1)
}

// drainCap bounds the drain loop.
const drainCap = 3 * time.Minute

// drain runs c in half-second steps until the governor holds nothing
// parked, queued or unservable, the harness sees the cluster converged
// and at least active streams play, or until drainCap passes. Quiet must
// hold for six samples in a row: convergence can flicker while residual
// mirror entries from the crash-window hedges fall due, and one clean
// sample mid-drain must not stop the clock. It returns the seconds from
// its start to the first sample of the quiet run, or to the cap.
func drain(c *tiger.Cluster, h *tiger.ChaosHarness, active int) float64 {
	const step = 500 * time.Millisecond
	const quietNeed = 6
	start := c.Now()
	quiet := 0
	for c.Now().Sub(start) < drainCap {
		gs := c.Controller.GovernorStats()
		if gs.Parked == 0 && gs.QueueLen == 0 && gs.Unservable == 0 &&
			c.Active() >= active && h.Converged() {
			quiet++
			if quiet >= quietNeed {
				break
			}
		} else {
			quiet = 0
		}
		c.RunFor(step)
	}
	sec := c.Now().Sub(start).Seconds()
	if quiet >= quietNeed {
		sec -= float64(quiet-1) * step.Seconds()
	}
	return sec
}

// faultOnly sizes o at cubs cubs and zeroes the loss sources that are no
// fault's doing: client drops, ramp stagger, and the drives' ~2e-6
// slow-outlier blips (which reproduce the paper's §5 late blocks, but
// here would add an O(reads) floor of misses hiding the losses the
// sweeps gate on). File starts spread over every disk, and the
// simulation shards by size.
func faultOnly(o tiger.Options, cubs int) tiger.Options {
	o.Cubs = cubs
	if disks := cubs * o.DisksPerCub; o.NumFiles < disks {
		o.NumFiles = disks
	}
	o.ClientDropProb = 0
	o.RampSpacing = 0
	o.DiskParams.BlipProb = 0
	o.Shards = scaleShards(cubs)
	return o
}

// scaleShards picks the shard count for a cluster size: serial for
// small clusters (where coordinator windows cost more than they save),
// growing with size up to eight shards. A pure function of the cub
// count so the committed artifacts do not depend on the host machine;
// worker count never changes results (byte-identical guarantee).
func scaleShards(cubs int) int {
	return min(max(cubs/32, 1), 8)
}

// shortFiles gives o twelve 100-block files (~100 s plays), so an old
// striping generation drains by EOF on experiment timescales (DESIGN
// §13), admits to full capacity and staggers the ramp by 50 ms: a
// zero-spacing flash ramp phase-locks every stream's EOF, and a
// synchronized replay storm against the drain phase is a different
// experiment.
func shortFiles(o tiger.Options) tiger.Options {
	o.ClientDropProb = 0
	o.NumFiles = 12
	o.FileBlocks = 100
	o.AdmitLimit = 1.0
	o.RampSpacing = 50 * time.Millisecond
	return o
}
