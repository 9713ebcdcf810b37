// Package telemetry is the simulator's observability layer: a
// zero-allocation-on-hot-path metrics registry (counters, gauges,
// fixed-bucket histograms), a per-cycle sampler that turns the machine's
// state into a time series, a steering-decision log capturing every
// configuration switch, and exporters for JSON-lines, CSV and
// Prometheus text format.
//
// Counts have one data path: sampling. Every Interval cycles, and at
// Flush, the Probe reads a State — the processor's statistics and the
// window, fabric and manager facts, each from the code that keeps it —
// sets its registry's counters from it and exports a Sample whose
// interval fields are the differences between two States. Events only
// pace the sampling and carry the occurrences logged one by one
// (decisions, fault and prefetch transitions); nothing is counted
// twice. Metrics are plain fields, written without allocation or
// locking (a Probe belongs to exactly one machine).
package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Counter is a monotonically increasing metric. Not goroutine-safe: a
// counter belongs to the single goroutine driving its machine (the sweep
// harness builds one registry per worker machine).
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// set brings the counter to n, a cumulative count kept elsewhere.
func (c *Counter) set(n int) { c.v = uint64(n) }

// Gauge is a metric that can go up and down (occupancy, in-flight
// reconfiguration slots, the latest CEM score).
type Gauge struct {
	v int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram counts integer observations into fixed buckets chosen at
// registration time. Buckets are cumulative in the export (Prometheus
// `le` semantics); observation is two array writes, no allocation.
type Histogram struct {
	bounds []int64  // upper bounds, ascending; implicit +Inf bucket last
	counts []uint64 // len(bounds)+1
	sum    int64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Label is one fixed name="value" pair attached to a metric at
// registration; the simulator uses it for per-unit-type series.
type Label struct {
	Key, Value string
}

// kind tags a metric family for rendering.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series of a family.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is every series registered under one metric name. The
// Prometheus text format requires a family's lines to form one group,
// so Render writes a family's header and all of its series together.
type family struct {
	name, help string
	kind       kind
	series     []*metric
}

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
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds the registered metrics of one machine. Registration
// happens at setup time and may allocate; after that the registry is
// only read (by exporters) or written through the metric handles.
type Registry struct {
	families []*family // in first-registration order
	byName   map[string]*family
	byKey    map[string]bool // name plus rendered labels of every series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, byKey: map[string]bool{}}
}

// register adds a series to its family, panicking on a duplicate
// (name, labels) pair or on a name registered before under another
// kind or help text — either is always a wiring bug.
func (r *Registry) register(name, help string, k kind, m *metric) {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != k || f.help != help {
		panic(fmt.Sprintf("telemetry: metric %s registered with a different kind or help text", name))
	}
	key := name + renderLabels(m.labels)
	if r.byKey[key] {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", key))
	}
	r.byKey[key] = true
	f.series = append(f.series, m)
}

// add registers one series of kind k (over bounds, for a histogram)
// and returns it.
func (r *Registry) add(name, help string, k kind, bounds []int64, labels []Label) *metric {
	m := &metric{labels: labels}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
			}
		}
		m.h = &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	}
	r.register(name, help, k, m)
	return m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	return r.add(name, help, kindCounter, nil, labels).c
}

// NewCounters registers a counter family with one series per value of
// the label key, in value order, and returns the series by value.
func (r *Registry) NewCounters(name, help, key string, values ...string) map[string]*Counter {
	out := make(map[string]*Counter, len(values))
	for _, v := range values {
		out[v] = r.NewCounter(name, help, Label{key, v})
	}
	return out
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	return r.add(name, help, kindGauge, nil, labels).g
}

// NewHistogram registers and returns a histogram with the given
// ascending upper bucket bounds (an implicit +Inf bucket is added).
func (r *Registry) NewHistogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	return r.add(name, help, kindHistogram, bounds, labels).h
}

// NewHistograms registers a histogram family with one series per value
// of the label key, in value order, all over the same bucket bounds,
// and returns the series by value.
func (r *Registry) NewHistograms(name, help string, bounds []int64, key string, values ...string) map[string]*Histogram {
	out := make(map[string]*Histogram, len(values))
	for _, v := range values {
		out[v] = r.NewHistogram(name, help, bounds, Label{key, v})
	}
	return out
}

// CounterValue returns the value of the counter with the given name and
// labels, for tests and report code; ok is false when no such counter
// exists.
func (r *Registry) CounterValue(name string, labels ...Label) (uint64, bool) {
	f := r.byName[name]
	if f == nil || f.kind != kindCounter {
		return 0, false
	}
	key := renderLabels(labels)
	for _, m := range f.series {
		if renderLabels(m.labels) == key {
			return m.c.Value(), true
		}
	}
	return 0, false
}

// Render writes the registry in Prometheus text exposition format: one
// block per metric family, in first-registration order, holding the
// "# HELP"/"# TYPE" headers and then every series of the family in
// registration order. Histograms render cumulative le-buckets plus
// _sum and _count.
func (r *Registry) Render(w io.Writer) error {
	for _, f := range r.families {
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		for _, m := range f.series {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(m.labels), m.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(m.labels), m.g.Value())
			case kindHistogram:
				err = renderHistogram(w, f.name, m)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// renderHistogram writes one histogram's bucket, sum and count series.
func renderHistogram(w io.Writer, name string, m *metric) error {
	cum := uint64(0)
	for i, bound := range m.h.bounds {
		cum += m.h.counts[i]
		labels := append(append([]Label(nil), m.labels...), Label{"le", fmt.Sprint(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(labels), cum); err != nil {
			return err
		}
	}
	cum += m.h.counts[len(m.h.bounds)]
	labels := append(append([]Label(nil), m.labels...), Label{"le", "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(labels), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, renderLabels(m.labels), m.h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(m.labels), m.h.Count())
	return err
}
