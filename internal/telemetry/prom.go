package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): the de-facto
// scrape format every metrics pipeline understands. The registry holds
// live atomic values, so a scrape is a consistent-enough snapshot
// without stopping writers.

// ContentType is the Content-Type of the exposition output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in Prometheus text
// exposition format, families and label sets in lexicographic order so
// the output is stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the family and metric structure under the lock; values
	// are atomics and read lock-free afterwards, so a scrape never
	// blocks the hot path for longer than the map walk.
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]famSnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ms := make([]metricSnap, len(keys))
		for i, k := range keys {
			m := f.metrics[k]
			ms[i] = metricSnap{m: m, fn: m.fn}
		}
		fams = append(fams, famSnap{f: f, metrics: ms})
	}
	r.mu.Unlock()

	for _, fs := range fams {
		if err := writeFamily(w, fs.f, fs.metrics); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// metricSnap pairs a metric with its collector callback as read under
// the registry lock (the callback may be replaced concurrently).
type metricSnap struct {
	m  *metric
	fn func() float64
}

type famSnap struct {
	f       *family
	metrics []metricSnap
}

func writeFamily(w io.Writer, f *family, metrics []metricSnap) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, ms := range metrics {
		if err := writeMetric(w, f, ms); err != nil {
			return err
		}
	}
	return nil
}

func writeMetric(w io.Writer, f *family, ms metricSnap) error {
	m := ms.m
	switch f.kind {
	case kindCounter, kindGauge:
		v := float64(m.c.Value()) // a gauge has no counter and reads 0 until fn is set
		if ms.fn != nil {
			v = ms.fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(m.labels), formatValue(v))
		return err
	case kindHistogram:
		var cum uint64
		for i, bound := range m.h.bounds {
			cum += m.h.buckets[i].Load()
			le := strconv.FormatFloat(bound, 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, renderLabels(append(append([]Label{}, m.labels...), L("le", le))), cum); err != nil {
				return err
			}
		}
		cum += m.h.buckets[len(m.h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, renderLabels(append(append([]Label{}, m.labels...), L("le", "+Inf"))), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(m.labels), formatValue(m.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(m.labels), m.h.Count())
		return err
	}
	return nil
}

// renderLabels renders {a="x",b="y"}, or "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
