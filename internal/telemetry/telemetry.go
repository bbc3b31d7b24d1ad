// Package telemetry is the dependency-free instrumentation core of the
// live deployment: atomic counters and gauges, a lock-cheap fixed-bucket
// latency histogram, labeled metric vectors, and a Registry that renders
// the Prometheus text exposition format (text/plain; version=0.0.4).
//
// The paper's RM "maintains the dynamic runtime information, e.g. the
// current remained storage bandwidth, of its host during the data
// communication"; this package is the feedback plane that makes that
// runtime information continuously scrapable instead of only visible as a
// coarse JSON snapshot. Every evaluation quantity (utilization curves,
// R_OA, fail rate) is derived from gauges and counters of exactly this
// shape.
//
// Hot-path cost is a handful of atomic operations: Counter.Inc,
// Gauge.Set and Histogram.Observe are O(ns) and allocation-free (see
// BenchmarkCounterInc / BenchmarkHistogramObserve). A nil *Registry is a
// valid no-op registry: its constructors return live, unregistered
// metrics, so instrumented packages need no branches and the simulation
// packages stay untouched.
//
// Metric naming convention: dfsqos_<subsystem>_<name>_<unit>, e.g.
// dfsqos_transport_call_latency_seconds.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative in spirit; the type enforces it).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as atomic
// bits. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with cumulative count and sum
// (Prometheus "histogram" type). Buckets are defined by ascending upper
// bounds; an implicit +Inf overflow bucket catches everything beyond the
// last bound. Observe is a linear scan over the bounds plus three atomic
// operations — no locks, no allocations.
type Histogram struct {
	bounds  []float64       // ascending upper bounds (le semantics)
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

// newHistogram validates and copies the bounds.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// DefBuckets are latency-oriented default bounds in seconds, spanning
// 100µs to 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum and match no bucket meaningfully).
func (h *Histogram) Observe(v float64) {
	if v != v { // NaN
		return
	}
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

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values (Sum/Count is the mean).
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) of the observed values
// by linear interpolation inside the bucket containing the target rank —
// the same estimate Prometheus's histogram_quantile computes from this
// bucket layout. The estimate's resolution is the bucket width around
// the quantile, so callers gating on tail latency should construct the
// histogram with bounds fine enough for the tail they gate (see
// ExponentialBuckets). Observations landing in the +Inf overflow bucket
// cannot be interpolated; a quantile falling there reports the last
// finite bound (a conservative lower estimate). An empty histogram
// reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(count)
	cum, lower := 0.0, 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n > 0 && cum+n >= target {
			if i >= len(h.bounds) {
				return lower // +Inf bucket: last finite bound
			}
			frac := (target - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += n
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return lower
}

// CounterVec is a family of Counters partitioned by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*vecChild[*Counter]
}

// GaugeVec is a family of Gauges partitioned by label values.
type GaugeVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*vecChild[*Gauge]
}

// vecChild pairs a metric with its rendered label values.
type vecChild[M any] struct {
	values []string
	metric M
}

// With returns (creating on first use) the Counter for the given label
// values, which must match the vector's label names in number.
func (v *CounterVec) With(values ...string) *Counter {
	var scratch [vecKeyScratch]byte
	key := appendVecKey(scratch[:0], v.labels, values)
	v.mu.RLock()
	c, ok := v.children[string(key)] // a lookup by converted bytes does not allocate
	v.mu.RUnlock()
	if ok {
		return c.metric
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[string(key)]; ok {
		return c.metric
	}
	vals := append([]string(nil), values...)
	child := &vecChild[*Counter]{values: vals, metric: &Counter{}}
	v.children[string(key)] = child
	return child.metric
}

// With returns (creating on first use) the Gauge for the given label
// values.
func (v *GaugeVec) With(values ...string) *Gauge {
	var scratch [vecKeyScratch]byte
	key := appendVecKey(scratch[:0], v.labels, values)
	v.mu.RLock()
	g, ok := v.children[string(key)]
	v.mu.RUnlock()
	if ok {
		return g.metric
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.children[string(key)]; ok {
		return g.metric
	}
	vals := append([]string(nil), values...)
	child := &vecChild[*Gauge]{values: vals, metric: &Gauge{}}
	v.children[string(key)] = child
	return child.metric
}

// vecKeyScratch is the stack space With builds its lookup key in; label
// values that fit (every one the tree uses does) make a hit on an existing
// child allocation-free, which matters because servers resolve a child
// per handled message.
const vecKeyScratch = 64

// appendVecKey appends the label values, joined with an unprintable
// separator, to b.
func appendVecKey(b []byte, labels, values []string) []byte {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("telemetry: %d label values for %d labels %v", len(values), len(labels), labels))
	}
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, v...)
	}
	return b
}

// metricKind tags a registered family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeVec:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one registered metric family.
type family struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cvec    *CounterVec
	gvec    *GaugeVec
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is get-or-create: asking twice for the
// same name with a compatible shape returns the same metric (so two
// components of one process can share a family), while a name collision
// with a different kind or label set panics — that is a programming
// error, not a runtime condition.
//
// A nil *Registry is the no-op mode: constructors still return live
// metrics (cheap atomics), they are simply never exported.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order for stable exposition
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup returns the existing family (checking kind) or registers a new
// one built by mk. Caller-side nil receivers short-circuit before this.
func (r *Registry) lookup(name, help string, kind metricKind, mk func() *family) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, not %s", name, f.kind, kind))
		}
		return f
	}
	f := mk()
	f.name, f.help, f.kind = name, help, kind
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// NewCounter returns the registered Counter with the given name,
// creating it on first use. Safe on a nil registry (returns an
// unregistered counter).
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, help, kindCounter, func() *family {
		return &family{counter: &Counter{}}
	}).counter
}

// NewGauge returns the registered Gauge with the given name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, help, kindGauge, func() *family {
		return &family{gauge: &Gauge{}}
	}).gauge
}

// NewHistogram returns the registered Histogram with the given name and
// bucket upper bounds (nil bounds use DefBuckets). Asking again for an
// existing histogram ignores the bounds argument and returns the
// original.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	return r.lookup(name, help, kindHistogram, func() *family {
		return &family{hist: newHistogram(bounds)}
	}).hist
}

// NewCounterVec returns the registered CounterVec with the given name and
// label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	mk := func() *CounterVec {
		for _, l := range labels {
			if !validName(l) {
				panic(fmt.Sprintf("telemetry: invalid label name %q", l))
			}
		}
		return &CounterVec{
			labels:   append([]string(nil), labels...),
			children: make(map[string]*vecChild[*Counter]),
		}
	}
	if r == nil {
		return mk()
	}
	f := r.lookup(name, help, kindCounterVec, func() *family {
		return &family{cvec: mk()}
	})
	if len(f.cvec.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, had %v", name, labels, f.cvec.labels))
	}
	return f.cvec
}

// NewGaugeVec returns the registered GaugeVec with the given name and
// label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	mk := func() *GaugeVec {
		for _, l := range labels {
			if !validName(l) {
				panic(fmt.Sprintf("telemetry: invalid label name %q", l))
			}
		}
		return &GaugeVec{
			labels:   append([]string(nil), labels...),
			children: make(map[string]*vecChild[*Gauge]),
		}
	}
	if r == nil {
		return mk()
	}
	f := r.lookup(name, help, kindGaugeVec, func() *family {
		return &family{gvec: mk()}
	})
	if len(f.gvec.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, had %v", name, labels, f.gvec.labels))
	}
	return f.gvec
}

// ContentType is the exposition-format content type Prometheus expects.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the text exposition
// format. Families appear in registration order; vector children in
// sorted label order, so the output is deterministic. Nil-safe: a nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.gauge.Value()))
		case kindHistogram:
			writeHistogram(&b, f.name, "", f.hist)
		case kindCounterVec:
			f.cvec.mu.RLock()
			children := sortedChildren(f.cvec.children)
			for _, c := range children {
				fmt.Fprintf(&b, "%s{%s} %d\n", f.name, renderLabels(f.cvec.labels, c.values), c.metric.Value())
			}
			f.cvec.mu.RUnlock()
		case kindGaugeVec:
			f.gvec.mu.RLock()
			children := sortedChildren(f.gvec.children)
			for _, c := range children {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, renderLabels(f.gvec.labels, c.values), formatFloat(c.metric.Value()))
			}
			f.gvec.mu.RUnlock()
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders cumulative le-buckets plus _sum and _count.
// extraLabels, when non-empty, is a pre-rendered "k=\"v\"" list to merge
// into the bucket lines.
func writeHistogram(b *strings.Builder, name, extraLabels string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, extraLabels, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabels, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

// sortedChildren returns vec children sorted by label values for a
// stable exposition.
func sortedChildren[M any](m map[string]*vecChild[M]) []*vecChild[M] {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*vecChild[M], 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// renderLabels renders `k1="v1",k2="v2"` with exposition-format escaping.
func renderLabels(labels, values []string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// formatFloat renders a float the way Prometheus text format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving GET /metrics-style scrapes of
// the registry. Nil-safe: a nil registry serves an empty body.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}
