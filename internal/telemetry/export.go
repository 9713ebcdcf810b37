package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/jsonw"
)

// Exporter receives the sampler's output. Samples arrive every probe
// interval; decisions, fault events and prefetch events arrive the
// cycle they happen. Flush is called once at end of run. A record is
// valid only during the call that receives it (the probe reuses it), so
// an exporter that keeps one must copy it.
type Exporter interface {
	Sample(*Sample) error
	Decision(*Decision) error
	Fault(*FaultEvent) error
	Prefetch(*PrefetchEvent) error
	Flush() error
}

// NewExporter builds the exporter format names over w: "jsonl" (samples
// plus decision, fault and prefetch records, one JSON object per line),
// "csv" (the sample time series) or "prom" (a Prometheus text snapshot
// of reg, written at flush).
func NewExporter(w io.Writer, format string, reg *Registry) (Exporter, error) {
	switch format {
	case "jsonl":
		return NewJSONL(w), nil
	case "csv":
		return NewCSV(w), nil
	case "prom":
		return NewProm(w, reg), nil
	}
	return nil, fmt.Errorf("telemetry: unknown metrics format %q (known: jsonl, csv, prom)", format)
}

// JSONL streams samples, decisions, fault and prefetch events as one
// JSON object per line, each tagged with "record":"sample", "decision",
// "fault" or "prefetch" ahead of the row's fields in declared order.
// Each row is appended into one reused buffer (internal/jsonw), so a
// row costs no allocation.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONL wraps w in a buffered JSON-lines exporter.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// write emits the row an append function built into e.buf, keeping the
// buffer for the next row. A row whose encoding failed is not written.
func (e *JSONL) write(b []byte, err error) error {
	if err != nil {
		e.buf = b
		return err
	}
	e.buf = append(b, '\n')
	_, err = e.w.Write(e.buf)
	return err
}

// Sample writes one sample row.
func (e *JSONL) Sample(s *Sample) error { return e.write(appendSample(e.buf[:0], s)) }

// Decision writes one decision row.
func (e *JSONL) Decision(d *Decision) error { return e.write(appendDecision(e.buf[:0], d), nil) }

// Fault writes one fault-event row.
func (e *JSONL) Fault(f *FaultEvent) error { return e.write(appendFault(e.buf[:0], f), nil) }

// Prefetch writes one prefetch-event row.
func (e *JSONL) Prefetch(p *PrefetchEvent) error { return e.write(appendPrefetch(e.buf[:0], p), nil) }

// Flush drains the buffer.
func (e *JSONL) Flush() error { return e.w.Flush() }

// appendSample appends s's JSONL row. The only field that can fail is
// IntervalIPC (NaN or an infinity, as json.Marshal refuses them).
func appendSample(b []byte, s *Sample) ([]byte, error) {
	b = append(b, '{')
	b = jsonw.String(b, "record", "sample")
	b = jsonw.Int(b, "cycle", int64(s.Cycle))
	b = jsonw.Int(b, "core", int64(s.Core))
	b = jsonw.Int(b, "retired", int64(s.Retired))
	b = jsonw.Int(b, "intervalRetired", int64(s.IntervalRetired))
	b, err := jsonw.Float(b, "intervalIPC", s.IntervalIPC)
	if err != nil {
		return b, err
	}
	b = jsonw.Int(b, "occupancy", int64(s.Occupancy))
	b = jsonw.Ints(b, "demand", s.Demand[:])
	b = jsonw.Ints(b, "intervalIssued", s.IntervalIssued[:])
	b = jsonw.Ints(b, "rfuUnits", s.RFUUnits[:])
	b = jsonw.Ints(b, "rfuBusy", s.RFUBusy[:])
	b = jsonw.Ints(b, "ffuBusy", s.FFUBusy[:])
	b = jsonw.Ints(b, "slots", s.Slots[:])
	b = jsonw.Bool(b, "cemValid", s.CEMValid)
	b = jsonw.Ints(b, "cemErrors", s.CEMErrors[:])
	b = jsonw.Int(b, "cemChoice", int64(s.CEMChoice))
	b = jsonw.Int(b, "reconfigSlots", int64(s.ReconfigSlots))
	b = jsonw.Int(b, "intervalReconfigs", int64(s.IntervalReconfigs))
	b = jsonw.Int(b, "intervalFlushed", int64(s.IntervalFlushed))
	b = jsonw.Int(b, "intervalDispatchStalls", int64(s.IntervalDispatchStalls))
	b = jsonw.Int(b, "intervalSteerCacheHits", int64(s.IntervalSteerCacheHits))
	b = jsonw.Int(b, "intervalSteerCacheMisses", int64(s.IntervalSteerCacheMisses))
	b = jsonw.Int(b, "intervalPrefetchIssued", int64(s.IntervalPrefetchIssued))
	b = jsonw.Int(b, "intervalPrefetchConfirmed", int64(s.IntervalPrefetchConfirmed))
	b = jsonw.Int(b, "intervalPrefetchMispredicted", int64(s.IntervalPrefetchMispredicted))
	b = jsonw.Int(b, "intervalPrefetchCancelled", int64(s.IntervalPrefetchCancelled))
	b = jsonw.Int(b, "intervalFaultsInjected", int64(s.IntervalFaultsInjected))
	b = jsonw.Int(b, "intervalFaultsDetected", int64(s.IntervalFaultsDetected))
	b = jsonw.Int(b, "intervalFaultsRepaired", int64(s.IntervalFaultsRepaired))
	b = jsonw.Int(b, "intervalScrubScans", int64(s.IntervalScrubScans))
	b = jsonw.Int(b, "maskedSlots", int64(s.MaskedSlots))
	b = jsonw.Int(b, "bucketIssued", int64(s.BucketIssued))
	b = jsonw.Int(b, "bucketUnits", int64(s.BucketUnits))
	b = jsonw.Int(b, "bucketDeps", int64(s.BucketDeps))
	b = jsonw.Int(b, "bucketFrontend", int64(s.BucketFrontend))
	return append(b, '}'), nil
}

// appendDecision appends d's JSONL row.
func appendDecision(b []byte, d *Decision) []byte {
	b = append(b, '{')
	b = jsonw.String(b, "record", "decision")
	b = jsonw.Int(b, "cycle", int64(d.Cycle))
	b = jsonw.Int(b, "core", int64(d.Core))
	b = jsonw.String(b, "from", d.From)
	b = jsonw.String(b, "to", d.To)
	b = jsonw.Int(b, "choice", int64(d.Choice))
	b = jsonw.Int(b, "diffSlots", int64(d.DiffSlots))
	b = jsonw.Int(b, "spans", int64(d.Spans))
	b = jsonw.Int(b, "slotsLoading", int64(d.SlotsLoading))
	b = jsonw.Int(b, "deferredSlots", int64(d.DeferredSlots))
	b = jsonw.Int(b, "stallSlotCycles", int64(d.StallSlotCycles))
	return append(b, '}')
}

// appendFault appends f's JSONL row.
func appendFault(b []byte, f *FaultEvent) []byte {
	b = append(b, '{')
	b = jsonw.String(b, "record", "fault")
	b = jsonw.Int(b, "cycle", int64(f.Cycle))
	b = jsonw.Int(b, "core", int64(f.Core))
	b = jsonw.Int(b, "slot", int64(f.Slot))
	b = jsonw.String(b, "event", f.Event)
	return append(b, '}')
}

// appendPrefetch appends p's JSONL row.
func appendPrefetch(b []byte, p *PrefetchEvent) []byte {
	b = append(b, '{')
	b = jsonw.String(b, "record", "prefetch")
	b = jsonw.Int(b, "cycle", int64(p.Cycle))
	b = jsonw.Int(b, "core", int64(p.Core))
	b = jsonw.String(b, "event", p.Event)
	b = jsonw.String(b, "config", p.Config)
	b = jsonw.Int(b, "spans", int64(p.Spans))
	b = jsonw.Int(b, "confidencePct", int64(p.ConfidencePct))
	return append(b, '}')
}

// CSV writes the sample time series as comma-separated rows with a
// header. Decision records have a different shape and are omitted from
// CSV output — use the JSONL exporter when the steering log matters.
type CSV struct {
	w      *bufio.Writer
	header bool
	buf    []byte
}

// NewCSV wraps w in a buffered CSV exporter.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: bufio.NewWriter(w)}
}

// csvHeader lists the sample columns; per-unit-type vectors expand into
// one column per type, slots join into one quoted string.
func csvHeader() string {
	cols := []string{"cycle", "core", "retired", "intervalRetired", "intervalIPC", "occupancy"}
	for _, group := range []string{"demand", "issued", "rfuUnits", "rfuBusy", "ffuBusy"} {
		for _, t := range arch.UnitTypes() {
			cols = append(cols, group+"_"+t.String())
		}
	}
	cols = append(cols, "slots", "cemValid")
	for i := 0; i < arch.NumConfigs; i++ {
		cols = append(cols, fmt.Sprintf("cemError%d", i))
	}
	cols = append(cols, "cemChoice", "reconfigSlots", "intervalReconfigs",
		"intervalFlushed", "intervalDispatchStalls",
		"bucketIssued", "bucketUnits", "bucketDeps", "bucketFrontend")
	return strings.Join(cols, ",")
}

// Sample writes one CSV row (and the header before the first row),
// appended into one reused buffer.
func (e *CSV) Sample(s *Sample) error {
	if !e.header {
		e.header = true
		if _, err := fmt.Fprintln(e.w, csvHeader()); err != nil {
			return err
		}
	}
	b := strconv.AppendInt(e.buf[:0], int64(s.Cycle), 10)
	b = csvInts(b, s.Core, s.Retired, s.IntervalRetired)
	b = strconv.AppendFloat(append(b, ','), s.IntervalIPC, 'f', 4, 64)
	b = csvInts(b, s.Occupancy)
	for _, counts := range [...]*arch.Counts{&s.Demand, &s.IntervalIssued, &s.RFUUnits, &s.RFUBusy, &s.FFUBusy} {
		b = csvInts(b, counts[:]...)
	}
	b = append(b, ',', '"')
	for i, enc := range s.Slots {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(enc), 10)
	}
	valid := byte('0')
	if s.CEMValid {
		valid = '1'
	}
	b = append(b, '"', ',', valid)
	b = csvInts(b, s.CEMErrors[:]...)
	b = csvInts(b, s.CEMChoice, s.ReconfigSlots, s.IntervalReconfigs,
		s.IntervalFlushed, s.IntervalDispatchStalls,
		s.BucketIssued, s.BucketUnits, s.BucketDeps, s.BucketFrontend)
	e.buf = append(b, '\n')
	_, err := e.w.Write(e.buf)
	return err
}

// csvInts appends each of vs as a comma-led decimal column.
func csvInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(append(b, ','), int64(v), 10)
	}
	return b
}

// Decision is a no-op: decisions do not fit the sample row shape.
func (e *CSV) Decision(*Decision) error { return nil }

// Fault is a no-op: fault events do not fit the sample row shape — use
// the JSONL exporter when the fault log matters.
func (e *CSV) Fault(*FaultEvent) error { return nil }

// Prefetch is a no-op: prefetch events do not fit the sample row shape
// either. The CSV carries no prefetch, steering-cache or fault columns
// (see csvHeader) — use the JSONL exporter for those.
func (e *CSV) Prefetch(*PrefetchEvent) error { return nil }

// Flush drains the buffer.
func (e *CSV) Flush() error { return e.w.Flush() }

// Prom renders the probe's registry in Prometheus text exposition format
// once, at Flush — a snapshot of the cumulative counters at end of run.
// Per-sample rows and decisions are not part of the exposition format
// and are dropped.
type Prom struct {
	w   io.Writer
	reg *Registry
}

// NewProm builds a Prometheus snapshot exporter over the registry.
func NewProm(w io.Writer, reg *Registry) *Prom {
	return &Prom{w: w, reg: reg}
}

// Sample is a no-op; the registry's gauges already track sampled state.
func (e *Prom) Sample(*Sample) error { return nil }

// Decision is a no-op; the registry counts the switches.
func (e *Prom) Decision(*Decision) error { return nil }

// Fault is a no-op; the registry's fault counters count the upsets.
func (e *Prom) Fault(*FaultEvent) error { return nil }

// Prefetch is a no-op; the registry's prefetch counters count the
// speculations.
func (e *Prom) Prefetch(*PrefetchEvent) error { return nil }

// Flush renders the registry.
func (e *Prom) Flush() error { return e.reg.Render(e.w) }

// Collector retains samples, decisions and fault events in memory, for
// studies and tests that post-process the series instead of streaming it.
type Collector struct {
	Samples    []Sample
	Decisions  []Decision
	Faults     []FaultEvent
	Prefetches []PrefetchEvent
}

// Sample appends a copy of s.
func (c *Collector) Sample(s *Sample) error {
	c.Samples = append(c.Samples, *s)
	return nil
}

// Decision appends a copy of d.
func (c *Collector) Decision(d *Decision) error {
	c.Decisions = append(c.Decisions, *d)
	return nil
}

// Fault appends a copy of f.
func (c *Collector) Fault(f *FaultEvent) error {
	c.Faults = append(c.Faults, *f)
	return nil
}

// Prefetch appends a copy of p.
func (c *Collector) Prefetch(p *PrefetchEvent) error {
	c.Prefetches = append(c.Prefetches, *p)
	return nil
}

// Flush is a no-op.
func (c *Collector) Flush() error { return nil }
