// Package telemetry is UpKit's unified observability layer: a
// dependency-free metrics registry (counters, scrape-time gauges,
// histograms) plus lightweight phase spans that trace one update
// end-to-end across the paper's four phases — generation, propagation,
// verification, loading (§VI, Fig. 8a–c).
//
// The registry is built for the server's hot path: once a handle is
// resolved (Registry.Counter and friends), recording a sample is one or
// two atomic operations and never takes a lock. Handle resolution takes
// a short critical section and is meant to happen once, at wiring time.
//
// Everything is nil-safe in the style of events.Log: a nil *Registry
// resolves nil handles, and nil handles drop their samples, so
// instrumented components never need nil checks and telemetry stays
// strictly optional.
//
// Exposition is the Prometheus text format (see prom.go), served by the
// update server at GET /api/v1/metrics.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to a metric.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the exposition type of a family.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric. The zero value is
// usable but unregistered; handles come from Registry.Counter. A nil
// Counter drops all samples.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket catches the rest. A nil Histogram
// drops all samples.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~16) and the scan is
	// branch-predictable, beating binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefBuckets are general-purpose latency buckets in seconds, spanning
// sub-millisecond server work to multi-minute constrained-device
// transfers.
var DefBuckets = []float64{.0001, .001, .01, .1, .5, 1, 5, 15, 60, 300}

// SizeBuckets are payload-size buckets in bytes, spanning a manifest to
// a full firmware image.
var SizeBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}

// metric is one labelled instance inside a family.
type metric struct {
	labels []Label
	c      *Counter
	h      *Histogram
	fn     func() float64 // collector callback (CounterFunc/GaugeFunc)
}

// family groups all label variants of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	bounds  []float64 // histograms only
	metrics map[string]*metric
}

// Registry holds metric families and the span tracer. The zero value is
// not usable; construct with NewRegistry. A nil *Registry resolves nil
// handles everywhere, so optional telemetry costs one nil check.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	spans    *Tracer
}

// NewRegistry creates an empty registry with a span tracer attached.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		spans:    newTracer(DefaultSpanCapacity),
	}
}

// Spans returns the registry's phase-span tracer (nil for a nil
// registry; the tracer is itself nil-safe).
func (r *Registry) Spans() *Tracer {
	if r == nil {
		return nil
	}
	return r.spans
}

// labelKey renders a canonical map key for a label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// resolve finds or creates the family and the labelled instance.
func (r *Registry) resolve(name, help string, kind metricKind, bounds []float64, labels []Label) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, metrics: make(map[string]*metric)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	key := labelKey(labels)
	m, ok := f.metrics[key]
	if !ok {
		sorted := append([]Label{}, labels...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		m = &metric{labels: sorted}
		switch kind {
		case kindCounter:
			m.c = &Counter{}
		case kindHistogram:
			m.h = &Histogram{bounds: f.bounds, buckets: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.metrics[key] = m
	}
	return m
}

// Counter returns the counter handle for name + labels, registering it
// on first use. Resolve once and keep the handle: recording is then a
// single atomic add.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.resolve(name, help, kindCounter, nil, labels).c
}

// Histogram returns the histogram handle for name + labels. buckets are
// sorted upper bounds; nil selects DefBuckets. The first registration
// of a name fixes its buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.resolve(name, help, kindHistogram, buckets, labels).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for components that keep their own counters (the
// update server's patch cache). Registering the same name + labels
// again replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.resolve(name, help, kindCounter, nil, labels).fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. It is the only way to register a gauge: every gauge reports a
// value its component already keeps.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.resolve(name, help, kindGauge, nil, labels).fn = fn
}
