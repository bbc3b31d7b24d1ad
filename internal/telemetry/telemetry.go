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
// packages stay untouched. A component that already keeps its counts
// under its own lock binds them as Func series instead, read only when the
// registry renders, so its hot path writes nothing.
//
// Metric naming convention: dfsqos_<subsystem>_<name>_<unit>, e.g.
// dfsqos_transport_call_latency_seconds.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
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

// Func is a series whose value is read at exposition time: the sum of
// the sources bound to it. A component that already keeps a count, under
// its own lock, binds a source that reads it there instead of mirroring
// every change into an atomic, so its hot path writes no telemetry at
// all. Sources bound under one name sum: the total of the components of
// one process that share a registry. A source stays bound until the func
// Bind returned runs (see Bindings); it must not call into the registry.
//
// A nil *Func is the no-op mode, as a nil *Registry is: binding to it
// keeps nothing.
type Func[T uint64 | float64] struct {
	mu   sync.Mutex
	srcs []*func() T // never edited in place: value reads it unlocked
}

// CounterFunc is a counter read from its sources at exposition time.
type CounterFunc = Func[uint64]

// GaugeFunc is a gauge read from its sources at exposition time.
type GaugeFunc = Func[float64]

// Bind adds read as a source of f and returns the func that removes it
// again.
func (f *Func[T]) Bind(read func() T) (unbind func()) {
	if f == nil {
		return func() {}
	}
	src := &read
	f.mu.Lock()
	f.srcs = append(f.srcs, src)
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if i := slices.Index(f.srcs, src); i >= 0 {
			f.srcs = append(f.srcs[:i:i], f.srcs[i+1:]...) // a new array
		}
	}
}

// value calls every source, outside f's lock, and returns their sum;
// bound is false when f has none.
func (f *Func[T]) value() (sum T, bound bool) {
	f.mu.Lock()
	srcs := f.srcs
	f.mu.Unlock()
	for _, read := range srcs {
		sum += (*read)()
	}
	return sum, len(srcs) > 0
}

// Bindings holds the unbind funcs of the sources one owner bound, so that
// its series leave the registry's sums together when it stops. A source
// added after Unbind is removed at once: a stopped owner leaves nothing
// behind. The zero value is ready to use.
type Bindings struct {
	mu     sync.Mutex
	unbind []func()
	done   bool
}

// Add keeps unbind, the result of a Bind, for Unbind.
func (b *Bindings) Add(unbind func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		unbind()
		return
	}
	b.unbind = append(b.unbind, unbind)
}

// Unbind removes every source added to b. It is idempotent.
func (b *Bindings) Unbind() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fn := range b.unbind {
		fn()
	}
	b.unbind, b.done = nil, true
}

// vec is a family of metrics partitioned by label values; mk makes a
// child on its first use.
type vec[M any] struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*vecChild[M]
	mk       func() M
}

// vecChild pairs a metric with its rendered label values.
type vecChild[M any] struct {
	values []string
	metric M
}

// newVec validates the label names and builds an empty family.
func newVec[M any](labels []string, mk func() M) vec[M] {
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l))
		}
	}
	return vec[M]{
		labels:   append([]string(nil), labels...),
		children: make(map[string]*vecChild[M]),
		mk:       mk,
	}
}

// with returns (creating on first use) the child for the given label
// values, which must match the family's label names in number.
func (v *vec[M]) with(values []string) M {
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
	child := &vecChild[M]{values: append([]string(nil), values...), metric: v.mk()}
	v.children[string(key)] = child
	return child.metric
}

// sorted returns the children sorted by label values, for a stable
// exposition.
func (v *vec[M]) sorted() []*vecChild[M] {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*vecChild[M], 0, len(keys))
	for _, k := range keys {
		out = append(out, v.children[k])
	}
	return out
}

// CounterVec is a family of Counters partitioned by label values.
type CounterVec struct{ vec[*Counter] }

// FuncVec is a family of Funcs partitioned by label values.
type FuncVec[T uint64 | float64] struct{ vec[*Func[T]] }

// CounterFuncVec is a family of CounterFuncs partitioned by label values.
type CounterFuncVec = FuncVec[uint64]

// GaugeFuncVec is a family of GaugeFuncs partitioned by label values.
type GaugeFuncVec = FuncVec[float64]

// With returns (creating on first use) the Counter for the given label
// values, which must match the vector's label names in number.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// With returns (creating on first use) the Func for the given label
// values. Nil-safe: a nil vector returns a nil Func.
func (v *FuncVec[T]) With(values ...string) *Func[T] {
	if v == nil {
		return nil
	}
	return v.with(values)
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

// metric is a registered family's series: it renders its own sample
// lines.
type metric interface {
	write(b *strings.Builder, name string)
}

func (c *Counter) write(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %d\n", name, c.Value())
}

func (g *Gauge) write(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %s\n", name, formatFloat(g.Value()))
}

// write renders cumulative le-buckets plus _sum and _count.
func (h *Histogram) write(b *strings.Builder, name string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

func (v *CounterVec) write(b *strings.Builder, name string) {
	for _, c := range v.sorted() {
		fmt.Fprintf(b, "%s{%s} %d\n", name, renderLabels(v.labels, c.values), c.metric.Value())
	}
}

func (f *Func[T]) write(b *strings.Builder, name string) {
	v, _ := f.value()
	fmt.Fprintf(b, "%s %s\n", name, formatValue(v))
}

// write leaves out a child with no source bound: its owner has stopped.
func (v *FuncVec[T]) write(b *strings.Builder, name string) {
	for _, c := range v.sorted() {
		if x, ok := c.metric.value(); ok {
			fmt.Fprintf(b, "%s{%s} %s\n", name, renderLabels(v.labels, c.values), formatValue(x))
		}
	}
}

// family is one registered metric family.
type family struct {
	name, help, typ string // typ: counter, gauge or histogram
	m               metric
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is get-or-create: asking twice for the
// same name with a compatible shape returns the same metric (so two
// components of one process can share a family), while a name collision
// with a different kind or label set panics — that is a programming
// error, not a runtime condition.
//
// A nil *Registry is the no-op mode: constructors still return live
// metrics (cheap atomics), they are simply never exported; the Func
// constructors return nil, to which a Bind keeps nothing.
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

// register returns the metric registered under name, which must be an M
// (a vector with as many labels), or registers the one mk makes. Callers
// short-circuit a nil registry before this.
func register[M metric](r *Registry, name, help, typ string, labels []string, mk func() M) M {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		m, ok := f.m.(M)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T, not %T", name, f.m, m))
		}
		if v, ok := f.m.(interface{ labelNames() []string }); ok && len(v.labelNames()) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, had %v", name, labels, v.labelNames()))
		}
		return m
	}
	m := mk()
	r.families[name] = &family{name: name, help: help, typ: typ, m: m}
	r.order = append(r.order, name)
	return m
}

func (v *vec[M]) labelNames() []string { return v.labels }

// NewCounter returns the registered Counter with the given name,
// creating it on first use. Safe on a nil registry (returns an
// unregistered counter).
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return register(r, name, help, "counter", nil, func() *Counter { return &Counter{} })
}

// NewGauge returns the registered Gauge with the given name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return register(r, name, help, "gauge", nil, func() *Gauge { return &Gauge{} })
}

// NewHistogram returns the registered Histogram with the given name and
// bucket upper bounds (nil bounds use DefBuckets). Asking again for an
// existing histogram ignores the bounds argument and returns the
// original.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	return register(r, name, help, "histogram", nil, func() *Histogram { return newHistogram(bounds) })
}

// NewCounterVec returns the registered CounterVec with the given name and
// label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	mk := func() *CounterVec { return &CounterVec{newVec(labels, func() *Counter { return &Counter{} })} }
	if r == nil {
		return mk()
	}
	return register(r, name, help, "counter", labels, mk)
}

// NewCounterFunc returns the registered CounterFunc with the given name,
// creating it on first use. A nil registry returns nil.
func (r *Registry) NewCounterFunc(name, help string) *CounterFunc {
	return newFunc[uint64](r, name, help, "counter")
}

// NewGaugeFunc returns the registered GaugeFunc with the given name. A nil
// registry returns nil.
func (r *Registry) NewGaugeFunc(name, help string) *GaugeFunc {
	return newFunc[float64](r, name, help, "gauge")
}

// NewCounterFuncVec returns the registered CounterFuncVec with the given
// name and label names. A nil registry returns nil.
func (r *Registry) NewCounterFuncVec(name, help string, labels ...string) *CounterFuncVec {
	return newFuncVec[uint64](r, name, help, "counter", labels)
}

// NewGaugeFuncVec returns the registered GaugeFuncVec with the given name
// and label names. A nil registry returns nil.
func (r *Registry) NewGaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	return newFuncVec[float64](r, name, help, "gauge", labels)
}

func newFunc[T uint64 | float64](r *Registry, name, help, typ string) *Func[T] {
	if r == nil {
		return nil
	}
	return register(r, name, help, typ, nil, func() *Func[T] { return &Func[T]{} })
}

func newFuncVec[T uint64 | float64](r *Registry, name, help, typ string, labels []string) *FuncVec[T] {
	if r == nil {
		return nil
	}
	return register(r, name, help, typ, labels, func() *FuncVec[T] {
		return &FuncVec[T]{newVec(labels, func() *Func[T] { return &Func[T]{} })}
	})
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
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.m.write(&b, f.name)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
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

// formatValue renders a Func's value: a count as an integer, a gauge as
// formatFloat does.
func formatValue[T uint64 | float64](v T) string {
	if n, ok := any(v).(uint64); ok {
		return strconv.FormatUint(n, 10)
	}
	return formatFloat(float64(v))
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
