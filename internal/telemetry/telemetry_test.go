package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	level := 2.5
	r.GaugeFunc("g", "a gauge", func() float64 { return level })
	level = 1.5 // read at scrape time, not at registration
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng 1.5\n") {
		t.Fatalf("gauge not scraped as 1.5:\n%s", b.String())
	}

	h := r.Histogram("h_seconds", "a histogram", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Sum() != 55.5 {
		t.Fatalf("sum = %f, want 55.5", h.Sum())
	}
}

func TestHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels resolved to different handles")
	}
	c := r.Counter("x_total", "x", L("k", "other"))
	if a == c {
		t.Fatal("different labels resolved to the same handle")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.GaugeFunc("g", "", func() float64 { return 1 })
	r.Histogram("h", "", nil).Observe(1)
	r.CounterFunc("cf", "", func() float64 { return 1 })
	r.Spans().Record(SpanKey{}, PhaseGeneration, time.Second)
	r.Spans().End(SpanKey{}, "done")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var c *Counter
	c.Inc() // must not panic
	var h *Histogram
	h.Observe(1)
}

// TestConcurrentIncrementsAndScrape is the -race workout: parallel
// writers on shared handles while scrapes run concurrently.
func TestConcurrentIncrementsAndScrape(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 1000

	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "concurrent counter")
			h := r.Histogram("conc_seconds", "concurrent histogram", nil)
			for i := range perWriter {
				c.Inc()
				h.Observe(float64(i%7) * 0.01)
				r.Spans().Record(SpanKey{DeviceID: uint32(w)}, PhaseVerification, time.Millisecond)
			}
			r.Spans().End(SpanKey{DeviceID: uint32(w)}, "done")
		}(w)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for range 50 {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			_ = r.Spans().Summary()
		}
	}()
	wg.Wait()
	<-scrapeDone

	if got := r.Counter("conc_total", "").Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("conc_seconds", "", nil).Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := len(r.Spans().Completed()); got != writers {
		t.Fatalf("ended spans = %d, want %d", got, writers)
	}
}

// TestPrometheusExpositionGolden pins the exact exposition output for a
// small registry: family ordering, label rendering, histogram buckets,
// and collector callbacks.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("upkit_requests_total", "Requests served.", L("result", "full")).Add(3)
	r.Counter("upkit_requests_total", "Requests served.", L("result", "differential")).Add(7)
	r.GaugeFunc("upkit_cache_bytes", "Bytes cached.", func() float64 { return 1536.5 })
	h := r.Histogram("upkit_prepare_seconds", "Prepare latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.CounterFunc("upkit_cache_hits_total", "Cache hits.", func() float64 { return 42 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP upkit_cache_bytes Bytes cached.
# TYPE upkit_cache_bytes gauge
upkit_cache_bytes 1536.5
# HELP upkit_cache_hits_total Cache hits.
# TYPE upkit_cache_hits_total counter
upkit_cache_hits_total 42
# HELP upkit_prepare_seconds Prepare latency.
# TYPE upkit_prepare_seconds histogram
upkit_prepare_seconds_bucket{le="0.1"} 1
upkit_prepare_seconds_bucket{le="1"} 2
upkit_prepare_seconds_bucket{le="+Inf"} 3
upkit_prepare_seconds_sum 2.55
upkit_prepare_seconds_count 3
# HELP upkit_requests_total Requests served.
# TYPE upkit_requests_total counter
upkit_requests_total{result="differential"} 7
upkit_requests_total{result="full"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("msg", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{msg="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition %q does not contain %q", b.String(), want)
	}
}

func TestReregisterKindPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("dup", "", func() float64 { return 0 })
}
