package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's CPU time so far: getrusage(RUSAGE_SELF) user
// and system. Wall time does not repeat on this host (15 % spread on
// identical runs); CPU time at GOMAXPROCS=1 does (3-5 %), see README.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func cpuTotal() time.Duration {
	u, s := cpuTime()
	return u + s
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB forces a collection and returns what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / (1 << 20)
}

// quantile returns the p-quantile (0..1) of vals by linear interpolation
// between order statistics; vals is not modified. Empty input gives 0.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quietValue summarises CPU times of repeated equal work, as measured, by
// their lower quartile. Other guests on this host only ever add time, in
// episodes of seconds to minutes that can cover most of a run, so the
// quieter repetitions are the ones that say what the program costs
// (README, findings 1). Set-ups, of which a run has few, take their
// minimum for the same reason.
func quietValue(vals []float64) float64 { return quantile(vals, 0.25) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// ratio is a/b, or 0 when the layer did no work (b == 0): per-layer
// ratios must print a number on workloads that bypass the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one harness-side trace record: a call the benchmark made into
// the program. Parent is the id of the enclosing span (0: none).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"` // wall, since the recorder was made
	EndUs    float64 `json:"end_us"`
	CPUUs    float64 `json:"cpu_us"` // process CPU spent inside the span
}

// spanLog keeps spans in memory and writes them when the run ends. A nil
// log records nothing, which is how untraced passes run.
type spanLog struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string, parent int) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Since(l.t0)
	cpu0 := cpuTotal()
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent,
		Workload: l.workload, Name: name, StartUs: us(start)})
	id = len(l.spans)
	l.mu.Unlock()
	return id, func() {
		endAt := time.Since(l.t0)
		cpu := cpuTotal() - cpu0
		l.mu.Lock()
		l.spans[id-1].EndUs = us(endAt)
		l.spans[id-1].CPUUs = us(cpu)
		l.mu.Unlock()
	}
}

// add records a span whose endpoints were observed elsewhere (tcp starts:
// request, ack and first block happen on different goroutines).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent,
		Workload: l.workload, Name: name,
		StartUs: us(start.Sub(l.t0)), EndUs: us(end.Sub(l.t0))})
	return len(l.spans)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// write stores the spans as JSONL under bench/out/ (git-ignored).
func (l *spanLog) write(dir string, seed int64) (string, error) {
	if l == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", l.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// refLoop is the reference the simulated workloads' CPU times are
// calibrated against: a miniature event loop of the simulator's shape — a
// binary heap of 50 000 timed events, and per event one pop, one load from
// a 16 MiB table at a random index, one push — that shares no code with
// the program under test. It holds no pointers and allocates nothing, so
// the collector never sees it. Other guests on this host slow ordinary
// code like this, and the simulator with it, by 20-40 % for minutes at a
// time; an arithmetic loop and a pointer chase through 16 MiB move a
// quarter as much (README, findings 1). Dividing a slice's CPU by the
// loop's cost per event inside it cancels most of that.
type refLoop struct {
	events   []refEvent // binary min-heap on (at, seq)
	table    []int64
	now, seq int64
	x        uint64 // xorshift64 state; the sequence is fixed, not seeded
}

type refEvent struct {
	at, seq int64
	key     int32
}

// refLoopNs turns calibrated ratios back into time: the loop's cost per
// event on this host when quiet. Calibrated times therefore read as "CPU
// time at 300 ns per reference event".
const refLoopNs = 300.0

func newRefLoop() *refLoop {
	l := &refLoop{table: make([]int64, 1<<21), x: 88172645463325252}
	for i := 0; i < 50_000; i++ {
		l.push()
	}
	return l
}

func (l *refLoop) rand() uint64 {
	l.x ^= l.x << 13
	l.x ^= l.x >> 7
	l.x ^= l.x << 17
	return l.x
}

func (l *refLoop) less(i, j int) bool {
	a, b := &l.events[i], &l.events[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (l *refLoop) push() {
	l.seq++
	l.events = append(l.events, refEvent{at: l.now + int64(l.rand()%1_000_000), seq: l.seq,
		key: int32(l.rand() % uint64(len(l.table)))})
	for i := len(l.events) - 1; i > 0; {
		parent := (i - 1) / 2
		if !l.less(i, parent) {
			break
		}
		l.events[i], l.events[parent] = l.events[parent], l.events[i]
		i = parent
	}
}

func (l *refLoop) pop() refEvent {
	top := l.events[0]
	n := len(l.events) - 1
	l.events[0] = l.events[n]
	l.events = l.events[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && l.less(r, child) {
			child = r
		}
		if !l.less(child, i) {
			break
		}
		l.events[i], l.events[child] = l.events[child], l.events[i]
		i = child
	}
	return top
}

// nsPerEvent runs n events and returns process CPU ns per event.
func (l *refLoop) nsPerEvent(n int) float64 {
	c0 := cpuTotal()
	for i := 0; i < n; i++ {
		e := l.pop()
		l.now = e.at
		l.table[e.key] += e.seq
		l.push()
	}
	return float64((cpuTotal() - c0).Nanoseconds()) / float64(n)
}
