// Package metrics is the dependency-free instrumentation core of the
// simulation service: atomic counters, gauges and fixed-bucket
// histograms, optionally fanned out into labeled families, collected in
// a Registry that renders the Prometheus text exposition format and a
// programmatic snapshot.
//
// The design constraints come from the layers it instruments:
//
//   - Zero hot-path allocations. Every series is a preallocated struct
//     of atomics; callers resolve a labeled child once (With) and cache
//     the handle, so an increment is one atomic add — cheap enough for
//     the transport frame path and invisible to the engine's warm-alloc
//     gate.
//   - No third-party dependencies. The exposition writer emits the
//     subset of the Prometheus text format (version 0.0.4) that
//     counters, gauges and classic histograms need; nothing here
//     imports outside the standard library.
//   - Fixed bucket layouts. Histograms take their upper bounds at
//     registration (DurationBuckets is the layout the service uses),
//     so observation is a bounded linear scan over a dozen atomics,
//     never a tree or a lock.
//
// Registration is idempotent: asking for an existing name with the same
// kind and label arity returns the same family, so package-level series
// (transport, dist) and explicitly wired ones (server) can share one
// registry. A name re-registered with a different shape panics — that
// is a programming error, not load.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind tags a family's metric type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds a set of metric families and renders them.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry. Package-level instrumentation
// (transport, dist) registers here; the daemon serves it at /metrics.
// Tests that need isolation construct their own with NewRegistry.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name, help string
	kind       kind
	labels     []string
	buckets    []float64 // histogram upper bounds, ascending

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// series is one concrete time series: the atomic cells behind a
// Counter, Gauge or Histogram handle.
type series struct {
	labelVals []string
	bits      atomic.Uint64  // counter/gauge value (float64 bits)
	counts    []atomic.Int64 // histogram: one cell per bucket + overflow
	count     atomic.Int64   // histogram: total observations
	sumBits   atomic.Uint64  // histogram: sum of observations (float64 bits)
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// register returns (creating if needed) the family, enforcing shape.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := checkMetricName(l); err != nil {
			panic(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s/%d labels, was %s/%d", name, k, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty name")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("metrics: name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("metrics: name %q has invalid character %q", name, c)
		}
	}
	return nil
}

// child returns (creating if needed) the series for one label-value
// combination. Callers cache the returned handle; resolution takes the
// family lock, increments do not.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		s.counts = make([]atomic.Int64, len(f.buckets)+1)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { addFloat(&c.s.bits, 1) }

// Add adds n; negative deltas are a caller bug and are dropped.
func (c *Counter) Add(n float64) {
	if n > 0 {
		addFloat(&c.s.bits, n)
	}
}

// Value reads the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// Gauge is a series that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n float64) { addFloat(&g.s.bits, n) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram is a fixed-bucket distribution series.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one observation: a bounded linear scan to the first
// bucket whose upper bound admits v, then three atomic updates.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.s.counts[i].Add(1)
	h.s.count.Add(1)
	addFloat(&h.s.sumBits, v)
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.s.count.Load() }

// Sum reads the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// With resolves (creating if needed) the child for the given label
// values, in the order the labels were registered. Cache the handle.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{s: v.f.child(values)} }

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// With resolves the child gauge; see CounterVec.With.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{s: v.f.child(values)} }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return &Counter{s: f.child(nil)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return &Gauge{s: f.child(nil)}
}

// Histogram registers (or returns) an unlabeled histogram with the
// given ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not ascending at %d", name, i))
		}
	}
	f := r.register(name, help, kindHistogram, nil, buckets)
	return &Histogram{s: f.child(nil), buckets: f.buckets}
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// DurationBuckets is the fixed seconds layout for latency histograms:
// 100µs to ~10s, roughly trebling — quantum durations on the scenario
// sizes the service admits land in the low buckets, stalled or
// oversized quanta climb visibly.
func DurationBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10}
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value for the text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// labelString renders {k="v",...} for the given extra le pair (used by
// histogram buckets); empty when there are no labels at all.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, names[i], escapeLabel(values[i]))
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le="%s"`, le)
	}
	b.WriteByte('}')
	return b.String()
}

// snapshotFamilies copies the family list in name order for rendering.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// snapshotSeries copies one family's series in sorted label order.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	out := make([]*series, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families in name order, series in label order, so
// equal registries render byte-identical pages.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.snapshotSeries() {
			if err := f.writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, s *series) error {
	switch f.kind {
	case kindCounter, kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, ""),
			formatFloat(math.Float64frombits(s.bits.Load())))
		return err
	case kindHistogram:
		cum := int64(0)
		for i := range f.buckets {
			cum += s.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelVals, formatFloat(f.buckets[i])), cum); err != nil {
				return err
			}
		}
		cum += s.counts[len(f.buckets)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, s.labelVals, "+Inf"), cum); err != nil {
			return err
		}
		ls := labelString(f.labels, s.labelVals, "")
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls,
			formatFloat(math.Float64frombits(s.sumBits.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, s.count.Load())
		return err
	}
	return nil
}

// Snapshot returns every series as a flat map keyed exactly as the
// exposition page names them — "name" or `name{label="v"}`, histograms
// fanned into _bucket/_sum/_count — the programmatic twin of
// WritePrometheus for tests and internal consumers.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.snapshotSeries() {
			switch f.kind {
			case kindCounter, kindGauge:
				out[f.name+labelString(f.labels, s.labelVals, "")] = math.Float64frombits(s.bits.Load())
			case kindHistogram:
				cum := int64(0)
				for i := range f.buckets {
					cum += s.counts[i].Load()
					out[f.name+"_bucket"+labelString(f.labels, s.labelVals, formatFloat(f.buckets[i]))] = float64(cum)
				}
				cum += s.counts[len(f.buckets)].Load()
				out[f.name+"_bucket"+labelString(f.labels, s.labelVals, "+Inf")] = float64(cum)
				out[f.name+"_sum"+labelString(f.labels, s.labelVals, "")] = math.Float64frombits(s.sumBits.Load())
				out[f.name+"_count"+labelString(f.labels, s.labelVals, "")] = float64(s.count.Load())
			}
		}
	}
	return out
}
