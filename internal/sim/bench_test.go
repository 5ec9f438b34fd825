package sim

import (
	"math/rand"
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkTimerChurn(b *testing.B) {
	// The cubs' dominant pattern: schedule a timer, usually stop it.
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.After(time.Second, func() {})
		if i%8 != 0 {
			t.Stop()
		}
		if i%1024 == 1023 {
			e.RunFor(time.Millisecond)
		}
	}
}

func BenchmarkEventCascade(b *testing.B) {
	// Self-perpetuating event chain: the pure engine overhead per event.
	e := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

// BenchmarkQueueDense is the queue's shape at the paper's rated load:
// ~1 400 events pending, due over the next second, each re-armed as it
// runs. One op is one event popped and one pushed.
func BenchmarkQueueDense(b *testing.B) {
	e := New(1)
	rng := rand.New(rand.NewSource(1))
	var delays [4096]Duration
	for i := range delays {
		delays[i] = Duration(rng.Int63n(int64(time.Second)))
	}
	n := 0
	var fire func()
	fire = func() {
		n++
		e.After(delays[n%len(delays)], fire)
	}
	for i := 0; i < 1400; i++ {
		e.After(delays[i], fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkQueueSparse is the per-layer kernels' shape: one event at a
// time, due a second ahead, so every pop crosses ~950 empty buckets.
func BenchmarkQueueSparse(b *testing.B) {
	e := New(1)
	var fire func()
	fire = func() { e.After(time.Second, fire) }
	e.After(time.Second, fire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
