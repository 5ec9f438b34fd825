// Package disk models the drives in a Tiger cub: zoned transfer rates
// (fast outer tracks for primary data, slow inner tracks for declustered
// secondaries, §2.3), an earliest-deadline service queue, stochastic
// service-time jitter, and the rare slow outliers ("blips") that produce
// the paper's occasional late blocks (§5).
//
// The model exposes both the nominal behaviour used during simulation and
// the worst-case per-operation budgets used for capacity planning: Tiger
// sizes its block service time from the worst case so that disks run
// below saturation in normal operation and near (but under) saturation
// when covering for a failed peer.
package disk

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"tiger/internal/clock"
	"tiger/internal/recycle"
	"tiger/internal/sim"
)

// Zone selects which part of a disk a read targets. Primaries are stored
// on the faster outer tracks, secondaries on the slower inner ones.
type Zone int

const (
	Outer Zone = iota
	Inner
)

func (z Zone) String() string {
	if z == Outer {
		return "outer"
	}
	return "inner"
}

// Params describe a drive model. The defaults are calibrated so that a
// 0.25 MB-block, decluster-4 system matches the paper's measured
// capacity of about 10.75 streams per disk (§5).
type Params struct {
	SeekAvg time.Duration // mean seek time
	RotHalf time.Duration // mean rotational latency (half a revolution)

	OuterRate float64 // bytes/s sustained on the outer half
	InnerRate float64 // bytes/s sustained on the inner half

	// WorstCaseMargin scales the mean per-operation time to the
	// worst-case budget used for capacity planning. Actual operations
	// are drawn around the mean, so planned schedules retain slack.
	WorstCaseMargin float64

	// JitterFrac is the +/- fractional uniform jitter applied to every
	// operation's service time.
	JitterFrac float64

	// BlipProb is the per-read probability of a slow outlier (thermal
	// recalibration, remapped sector, bus contention); BlipMin/BlipMax
	// bound the extra delay. Blips that exceed the cub's read-ahead
	// slack become the late blocks the paper reports.
	BlipProb float64
	BlipMin  time.Duration
	BlipMax  time.Duration
}

// DefaultParams returns a model of the paper's IBM Ultrastar-class drive.
func DefaultParams() Params {
	return Params{
		SeekAvg:   7 * time.Millisecond,
		RotHalf:   4200 * time.Microsecond,
		OuterRate: 5.08e6,
		InnerRate: 4.55e6,
		// Planning margin and jitter band: the paper's 10.75 streams/disk
		// is a worst-case rating, and its drives ran stably at >95% duty;
		// the jitter band must therefore fit inside the planning margin
		// or a fully loaded covering disk drifts into backlog.
		WorstCaseMargin: 1.052,
		JitterFrac:      0.02,
		BlipProb:        2e-6,
		BlipMin:         300 * time.Millisecond,
		BlipMax:         1200 * time.Millisecond,
	}
}

// Rate returns the sustained transfer rate of the given zone.
func (p Params) Rate(z Zone) float64 {
	if z == Outer {
		return p.OuterRate
	}
	return p.InnerRate
}

// MeanServiceTime returns the expected time to read size bytes from the
// given zone: seek + rotational latency + transfer.
func (p Params) MeanServiceTime(size int64, z Zone) time.Duration {
	xfer := time.Duration(float64(size) / p.Rate(z) * float64(time.Second))
	return p.SeekAvg + p.RotHalf + xfer
}

// WorstServiceTime returns the planning budget for one read.
func (p Params) WorstServiceTime(size int64, z Zone) time.Duration {
	return time.Duration(float64(p.MeanServiceTime(size, z)) * p.WorstCaseMargin)
}

// Faults is the injectable gray-failure state of one drive. The zero
// value is a healthy disk. Unlike the fail-stop faults of the crash and
// partition machinery, these model a drive that is still answering —
// just slowly, unreliably, or not at all — which is exactly the failure
// mode a deadman detector cannot see.
type Faults struct {
	// SlowFactor > 1 multiplies every service time (fail-slow drive:
	// dying bearings, internal retries, thermal throttling). 0 and 1
	// both mean nominal speed.
	SlowFactor float64
	// ErrProb is the per-read probability of a transient failure: the
	// operation occupies the drive for its full service time but
	// completes with ok=false.
	ErrProb float64
	// Stuck wedges the service queue: reads are accepted and queued but
	// none is dispatched until the fault clears. A read already on the
	// platter when the drive sticks completes normally.
	Stuck bool
}

// Disk is one simulated drive. It is not safe for concurrent use; all
// calls must come from the owning node's executor (trivially true in the
// single-threaded simulator).
type Disk struct {
	ID     int
	params Params
	clk    clock.Clock
	rng    *rand.Rand

	pending pendingHeap
	free    recycle.List[*pending]
	seq     uint64
	busy    bool
	cur     *pending // the read on the platter, nil when idle
	faults  Faults

	// statistics
	reads         int64
	busyTotal     time.Duration // cumulative service time
	bytes         int64
	maxQueue      int
	cancelled     int64
	cancelledBusy int64
	readErrs      int64
}

// New creates a disk using the given clock and random source.
func New(id int, params Params, clk clock.Clock, rng *rand.Rand) *Disk {
	if params.OuterRate <= 0 || params.InnerRate <= 0 {
		panic(fmt.Sprintf("disk %d: non-positive transfer rate", id))
	}
	return &Disk{ID: id, params: params, clk: clk, rng: rng}
}

// Params returns the drive's model parameters.
func (d *Disk) Params() Params { return d.params }

// SetFaults replaces the drive's injected gray-failure state. Clearing
// Stuck restarts service of whatever accumulated in the queue.
func (d *Disk) SetFaults(f Faults) {
	wasStuck := d.faults.Stuck
	d.faults = f
	if wasStuck && !f.Stuck && !d.busy && len(d.pending) > 0 {
		d.startNext()
	}
}

// Faults returns the drive's current injected fault state.
func (d *Disk) Faults() Faults { return d.faults }

// Read enqueues a read of size bytes from zone z, needed by due. done is
// invoked at the virtual time the read completes, with ok=false when the
// drive reported a (injected) transient failure; it is never invoked for
// a read withdrawn by Cancel. The queue is served in due order. The
// returned id names the read for Cancel.
func (d *Disk) Read(size int64, z Zone, due sim.Time, done func(completed sim.Time, ok bool)) uint64 {
	d.seq++
	p := d.newPending()
	p.size, p.zone, p.due, p.seq, p.done = size, z, due, d.seq, done
	heap.Push(&d.pending, p)
	q := d.QueueLen()
	if q > d.maxQueue {
		d.maxQueue = q
	}
	if !d.busy && !d.faults.Stuck {
		d.startNext()
	}
	return p.seq
}

// Cancel withdraws an outstanding read. A read still queued is removed
// without ever starting — it is never charged to Reads/Bytes/BusyTotal,
// so duty-cycle accounting stays honest. A read already on the platter
// cannot be stopped: its service time remains charged (the drive really
// spent it) but its completion callback is suppressed. Returns false if
// the read already completed, was already cancelled, or was never
// issued.
func (d *Disk) Cancel(id uint64) bool {
	for i, p := range d.pending {
		if p.seq == id {
			heap.Remove(&d.pending, i)
			d.recycle(p)
			d.cancelled++
			return true
		}
	}
	if d.cur != nil && d.cur.seq == id && !d.cur.cancelled {
		d.cur.cancelled = true
		d.cancelled++
		d.cancelledBusy++
		return true
	}
	return false
}

func (d *Disk) startNext() {
	if d.faults.Stuck {
		// Controller hang: leave the queue intact and the drive idle;
		// SetFaults restarts service when the fault clears.
		d.busy = false
		return
	}
	if len(d.pending) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	p := heap.Pop(&d.pending).(*pending)
	d.cur = p
	svc := d.serviceTime(p.size, p.zone)
	// A transient failure still occupies the drive for the full service
	// time (the firmware retried and gave up); it just returns ok=false.
	failed := d.faults.ErrProb > 0 && d.rng.Float64() < d.faults.ErrProb
	p.failed, p.completed = failed, d.clk.Now().Add(svc)
	d.reads++
	d.bytes += p.size
	d.busyTotal += svc
	if failed {
		d.readErrs++
	}
	d.clk.At(p.completed, p.complete)
}

// finish is the completion event of the read on the platter. The record
// is recycled before done runs, so a retry issued from inside done can
// already reuse it.
func (d *Disk) finish(p *pending) {
	d.cur = nil
	done, completed, ok, cancelled := p.done, p.completed, !p.failed, p.cancelled
	d.recycle(p)
	if done != nil && !cancelled {
		done(completed, ok)
	}
	d.startNext()
}

func (d *Disk) newPending() *pending {
	if p, ok := d.free.Get(); ok {
		return p
	}
	p := &pending{}
	p.complete = func() { d.finish(p) }
	return p
}

// recycle returns a record no event refers to any more: its completion
// has fired, or it was withdrawn while still queued and never armed one.
func (d *Disk) recycle(p *pending) {
	p.done = nil
	p.cancelled = false
	d.free.Put(p, 0)
}

func (d *Disk) serviceTime(size int64, z Zone) time.Duration {
	mean := d.params.MeanServiceTime(size, z)
	jit := 1 + d.params.JitterFrac*(2*d.rng.Float64()-1)
	svc := time.Duration(float64(mean) * jit)
	if d.params.BlipProb > 0 && d.rng.Float64() < d.params.BlipProb {
		span := d.params.BlipMax - d.params.BlipMin
		svc += d.params.BlipMin + time.Duration(d.rng.Int63n(int64(span)+1))
	}
	if f := d.faults.SlowFactor; f > 0 && f != 1 {
		svc = time.Duration(float64(svc) * f)
	}
	return svc
}

// QueueLen returns the number of outstanding reads (including the one
// in service).
func (d *Disk) QueueLen() int {
	n := len(d.pending)
	if d.busy {
		n++
	}
	return n
}

// Stats is a snapshot of cumulative disk activity. Reads/Bytes/BusyTotal
// count only operations that actually started on the platter: a read
// cancelled while still queued appears solely in Cancelled, so hedged
// reads withdrawn by the gray-failure machinery cannot inflate
// duty-cycle math.
type Stats struct {
	Reads     int64         `metric:"tiger_disk_reads_total" help:"Disk read operations started."`
	Bytes     int64         `metric:"tiger_disk_read_bytes_total" help:"Bytes read from disk."`
	BusyTotal time.Duration `metric:"tiger_disk_busy_seconds_total" help:"Cumulative disk service time."`
	MaxQueue  int           `metric:"tiger_disk_queue_depth_max,gauge" help:"Deepest queue of outstanding reads seen."`
	// Cancelled counts every withdrawn read; CancelledBusy is the subset
	// that was already in service (whose service time stays in
	// BusyTotal, because the drive really spent it).
	Cancelled     int64 `metric:"tiger_disk_cancelled_reads_total" help:"Reads withdrawn before or during service."`
	CancelledBusy int64 `metric:"tiger_disk_cancelled_in_service_total" help:"Reads withdrawn while already in service."`
	// ReadErrors counts reads completed with an injected transient
	// failure.
	ReadErrors int64 `metric:"tiger_disk_read_errors_total" help:"Reads completed with a transient failure."`
}

// Stats returns cumulative counters; callers diff snapshots to compute
// duty cycles over a window, as the paper does over 50 s intervals.
func (d *Disk) Stats() Stats {
	return Stats{
		Reads: d.reads, Bytes: d.bytes, BusyTotal: d.busyTotal, MaxQueue: d.maxQueue,
		Cancelled: d.cancelled, CancelledBusy: d.cancelledBusy, ReadErrors: d.readErrs,
	}
}

// Capacity computes per-disk and whole-system stream capacity the way
// Tiger plans it (§3.1): the block service time is the worst-case time to
// read one primary block plus, if the system is fault tolerant, one
// declustered secondary piece; the system as a whole must source an
// integral number of streams.
type Capacity struct {
	BlockService   time.Duration // worst-case per-stream service budget
	StreamsPerDisk float64
	Streams        int // whole-system capacity, rounded down
}

// PlanCapacity computes capacity for numDisks disks serving blockSize
// blocks with the given block play time and decluster factor. A
// decluster of 0 plans a non-fault-tolerant system (no secondary
// budget).
func PlanCapacity(p Params, numDisks int, blockSize int64, blockPlay time.Duration, decluster int) Capacity {
	svc := p.WorstServiceTime(blockSize, Outer)
	if decluster > 0 {
		part := (blockSize + int64(decluster) - 1) / int64(decluster)
		svc += p.WorstServiceTime(part, Inner)
	}
	perDisk := float64(blockPlay) / float64(svc)
	total := int(float64(numDisks) * perDisk)
	cap := Capacity{BlockService: svc, StreamsPerDisk: perDisk, Streams: total}
	// The schedule must be an integral multiple of both the block play
	// and block service times (§3.1): lengthen the service time so that
	// Streams slots exactly tile numDisks block play times.
	if total > 0 {
		cap.BlockService = time.Duration(int64(numDisks) * int64(blockPlay) / int64(total))
	}
	return cap
}
