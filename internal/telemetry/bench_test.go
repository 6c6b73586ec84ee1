package telemetry

import (
	"testing"
	"time"
)

// The registry's whole point is that instrumentation is cheap enough to
// leave on in the server's request path. Acceptance bar: a resolved
// handle records in well under 100 ns/op.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for b.Loop() {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for b.Loop() {
		h.Observe(0.042)
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for b.Loop() {
		c.Inc()
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	tr := newTracer(0)
	key := SpanKey{DeviceID: 1, AppID: 2, From: 1, To: 2}
	b.ReportAllocs()
	for b.Loop() {
		tr.Record(key, PhaseVerification, time.Microsecond)
	}
}
