package tiger

import (
	"testing"
	"time"
)

// BenchmarkSteadyStateThroughput measures raw simulator throughput at
// full load: virtual seconds simulated per wall second.
func BenchmarkSteadyStateThroughput(b *testing.B) {
	o := DefaultOptions()
	o.ClientDropProb = 0
	c, err := New(o)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RampTo(c.Capacity()); err != nil {
		b.Fatal(err)
	}
	c.RunFor(15 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunFor(time.Second) // one virtual second at 602 streams
	}
	b.StopTimer()
	ok, lost, _ := c.ViewerTotals()
	b.ReportMetric(float64(ok)/float64(b.N), "blocks/vsec")
	if lost > ok/1000 {
		b.Fatalf("unexpected losses during benchmark: %d", lost)
	}
}
