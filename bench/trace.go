package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"upkit/internal/coap"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// the calls the benchmark itself makes into each layer (and around the
// coap.Exchanger / coap.Handler values it hands the pull client), never
// inside the program. A traced run installs the wrappers for the whole
// run but records spans only in odd segments (rounds, or publish epochs
// in prepare-churn); the even segments of the same process are the
// untraced reference for trace.overhead_frac and trace.closure_frac.

// spanKind names a layer boundary.
type spanKind uint8

const (
	spUpdate    spanKind = iota // root: one fleet.Updater.TryUpdate
	spCheck                     // coap.PullClient.CheckAndUpdate
	spExchange                  // device-side coap.Exchanger.Exchange (radio link)
	spOrigin                    // coap.PullServer.Handle
	spProxy                     // proxy.Cache.Handle
	spUpstream                  // the proxy's origin hop (coap.Loopback.Exchange)
	spApply                     // device.Device.ApplyStagedUpdate
	spPrepare                   // root: updateserver.Server.PrepareUpdate
	spPublishOp                 // root: one publish operation (build + publish)
	spBuild                     // vendorserver.Server.BuildImage
	spPublish                   // updateserver.Server.Publish
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"fleet.try_update", "coap.check_and_update", "coap.exchange", "coap.origin_handle",
	"proxy.handle", "proxy.upstream", "device.apply_staged_update",
	"updateserver.prepare_update", "bench.publish_op", "vendorserver.build_image", "updateserver.publish",
}

// span is one timed call. parent indexes the owning trace's spans (-1
// for the root); times are nanoseconds since the tracer's base.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// trace is one root span and everything it caused. Its id is
// workload/client/seq: the device ID and round in a fleet, the client
// and operation index in prepare-churn.
type trace struct {
	client uint32
	seq    int
	spans  []span
}

func (t *tracer) id(tr trace) string { return fmt.Sprintf("%s/%x/%d", t.workload, tr.client, tr.seq) }

// tracer collects finished traces.
type tracer struct {
	workload string
	base     time.Time

	mu     sync.Mutex
	traces []trace
	// shared holds spans recorded by wrappers that several clients call
	// through (the proxy's origin hop and the handler behind it): the
	// caller's identity is not visible there, so analyse() parents them
	// by time containment.
	shared []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// client is one closed-loop client's span recorder. It is used by one
// goroutine at a time, so recording takes no lock. A nil client, and a
// client outside begin/finish, record nothing.
type client struct {
	t    *tracer
	cur  []span
	open []int32
	live bool
	// hint is the previous trace's length: the next one is as long.
	hint int
}

func (t *tracer) client() *client {
	if t == nil {
		return nil
	}
	return &client{t: t}
}

// start opens a root span when on is set; every enter/exit until
// finish belongs to it.
func (c *client) start(on bool, kind spanKind) {
	if c == nil || !on {
		return
	}
	c.live = true
	c.cur = make([]span, 0, max(c.hint, 16))
	c.open = c.open[:0]
	c.enter(kind)
}

// finish closes the root span and hands the trace to the tracer.
func (c *client) finish(client uint32, seq int) {
	if c == nil || !c.live {
		return
	}
	c.exit()
	c.live = false
	c.hint = len(c.cur)
	c.t.mu.Lock()
	c.t.traces = append(c.t.traces, trace{client: client, seq: seq, spans: c.cur})
	c.t.mu.Unlock()
	c.cur = nil
}

func (c *client) enter(kind spanKind) {
	if c == nil || !c.live {
		return
	}
	parent := int32(-1)
	if n := len(c.open); n > 0 {
		parent = c.open[n-1]
	}
	c.open = append(c.open, int32(len(c.cur)))
	c.cur = append(c.cur, span{kind: kind, parent: parent, start: c.t.now()})
}

func (c *client) exit() {
	if c == nil || !c.live {
		return
	}
	n := len(c.open) - 1
	c.cur[c.open[n]].end = c.t.now()
	c.open = c.open[:n]
}

// exchanger wraps a client's coap.Exchanger.
type tracedExchanger struct {
	inner coap.Exchanger
	c     *client
}

func (e *tracedExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	e.c.enter(spExchange)
	resp, err := e.inner.Exchange(req)
	e.c.exit()
	return resp, err
}

// handler wraps the coap.Handler behind one client's exchanger.
func (c *client) handler(kind spanKind, h coap.Handler) coap.Handler {
	return func(req *coap.Message) *coap.Message {
		c.enter(kind)
		resp := h(req)
		c.exit()
		return resp
	}
}

// wrapPullClient puts spans around every exchanger the pull client was
// given and the handler behind each. front is what answers the client's
// control traffic and non-origin block sources (the origin itself, or
// the proxy in front of it).
func (c *client) wrapPullClient(pc *coap.PullClient, front spanKind) {
	if c == nil {
		return
	}
	wrap := func(ex coap.Exchanger, kind spanKind) coap.Exchanger {
		// The testbed wires every hop as a LinkExchanger over the
		// device's radio link.
		le := ex.(*coap.LinkExchanger)
		le.Handler = c.handler(kind, le.Handler)
		return &tracedExchanger{inner: le, c: c}
	}
	pc.Ex = wrap(pc.Ex, front)
	for i := range pc.Sources {
		kind := front
		if pc.Sources[i].Name == "origin" {
			kind = spOrigin
		}
		pc.Sources[i].Ex = wrap(pc.Sources[i].Ex, kind)
	}
}

// sharedOn gates the shared wrappers; it is flipped between segments,
// while no client runs.
type sharedGate struct {
	t  *tracer
	on bool
}

func (g *sharedGate) record(kind spanKind, start int64) {
	end := g.t.now()
	g.t.mu.Lock()
	g.t.shared = append(g.t.shared, span{kind: kind, parent: -1, start: start, end: end})
	g.t.mu.Unlock()
}

// sharedExchanger wraps an exchanger several clients call through.
type sharedExchanger struct {
	inner coap.Exchanger
	g     *sharedGate
	kind  spanKind
}

func (e *sharedExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	if !e.g.on {
		return e.inner.Exchange(req)
	}
	start := e.g.t.now()
	resp, err := e.inner.Exchange(req)
	e.g.record(e.kind, start)
	return resp, err
}

func (g *sharedGate) handler(kind spanKind, h coap.Handler) coap.Handler {
	return func(req *coap.Message) *coap.Message {
		if !g.on {
			return h(req)
		}
		start := g.t.now()
		resp := h(req)
		g.record(kind, start)
		return resp
	}
}

// kindTotals aggregates one span kind over a run.
type kindTotals struct {
	Count  int     `json:"count"`
	DurNs  float64 `json:"dur_ns"`
	SelfNs float64 `json:"self_ns"`
}

// analysis is what a traced run's spans add up to.
type analysis struct {
	Kinds map[string]kindTotals `json:"kinds"`
	// Traces counts the traces of the workload's operation, and SelfNs
	// is Σ self time over their spans: what the layers account for, to
	// be set against the untraced end-to-end latency.
	Traces int     `json:"traces"`
	SelfNs float64 `json:"self_ns"`
	// Orphans counts shared spans no client span contained (expected 0).
	Orphans int `json:"orphans"`
}

// adopt parents every shared span under the tightest client span that
// contains it in time, innermost shared spans last so a handler span
// lands under its own exchange span. With two clients at most two
// traces are live at any instant, so the scan is short.
func (t *tracer) adopt() (orphans int) {
	if len(t.shared) == 0 {
		return 0
	}
	sort.Slice(t.traces, func(i, j int) bool { return t.traces[i].spans[0].start < t.traces[j].spans[0].start })
	// Outer (longer) spans first: an adopted exchange span can then
	// contain the handler span adopted after it.
	sort.Slice(t.shared, func(i, j int) bool {
		a, b := t.shared[i], t.shared[j]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	for _, s := range t.shared {
		// Traces that started at or before s; only the last few can
		// still be open.
		hi := sort.Search(len(t.traces), func(i int) bool { return t.traces[i].spans[0].start > s.start })
		bestTrace, bestSpan, bestDur := -1, -1, int64(1<<62)
		for ti := hi - 1; ti >= 0 && ti >= hi-64; ti-- {
			sp := t.traces[ti].spans
			if sp[0].end < s.end {
				continue
			}
			for i := range sp {
				if sp[i].start <= s.start && sp[i].end >= s.end && sp[i].end-sp[i].start < bestDur {
					bestTrace, bestSpan, bestDur = ti, i, sp[i].end-sp[i].start
				}
			}
		}
		if bestTrace < 0 {
			orphans++
			continue
		}
		s.parent = int32(bestSpan)
		t.traces[bestTrace].spans = append(t.traces[bestTrace].spans, s)
	}
	t.shared = nil
	return orphans
}

// analyse computes per-kind totals; op is the root kind of the
// workload's operation. A span's self time is its duration minus its
// direct children's.
func (t *tracer) analyse(op spanKind) analysis {
	a := analysis{Kinds: map[string]kindTotals{}}
	a.Orphans = t.adopt()
	var totals [numSpanKinds]kindTotals
	for _, tr := range t.traces {
		self := make([]int64, len(tr.spans))
		for i, s := range tr.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		isOp := tr.spans[0].kind == op
		if isOp {
			a.Traces++
		}
		for i, s := range tr.spans {
			k := &totals[s.kind]
			k.Count++
			k.DurNs += float64(s.end - s.start)
			k.SelfNs += float64(self[i])
			if isOp {
				a.SelfNs += float64(self[i])
			}
		}
	}
	for k, tot := range totals {
		if tot.Count > 0 {
			a.Kinds[spanNames[k]] = tot
		}
	}
	return a
}

// checkParentage verifies the structural invariants of every trace: one
// root at index 0, parents precede and contain their children. It
// returns the first violation.
func (t *tracer) checkParentage() error {
	for _, tr := range t.traces {
		for i, s := range tr.spans {
			if s.end < s.start {
				return fmt.Errorf("trace %s: span %d (%s) ends before it starts", t.id(tr), i, spanNames[s.kind])
			}
			if i == 0 {
				if s.parent != -1 {
					return fmt.Errorf("trace %s: first span is not a root", t.id(tr))
				}
				continue
			}
			if s.parent < 0 || int(s.parent) >= len(tr.spans) {
				return fmt.Errorf("trace %s: span %d (%s) has no parent", t.id(tr), i, spanNames[s.kind])
			}
			p := tr.spans[s.parent]
			if p.start > s.start || p.end < s.end {
				return fmt.Errorf("trace %s: span %d (%s) not inside its parent %s", t.id(tr), i, spanNames[s.kind], spanNames[p.kind])
			}
		}
	}
	return nil
}

// spanRecord is the on-disk form of a span (one JSON object per line).
type spanRecord struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, tr := range t.traces {
		id := t.id(tr)
		for i, s := range tr.spans {
			if err := enc.Encode(spanRecord{id, i, int(s.parent), spanNames[s.kind], s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
