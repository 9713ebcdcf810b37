package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
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

// sampleRecord / decisionRecord wrap a row with a "record" discriminator
// so the two row types can share one stream. (Two separate wrapper types:
// embedding both in one struct would make the shared "cycle" field
// ambiguous and encoding/json would drop it.)
type sampleRecord struct {
	Record string `json:"record"`
	*Sample
}

type decisionRecord struct {
	Record string `json:"record"`
	*Decision
}

type faultRecord struct {
	Record string `json:"record"`
	*FaultEvent
}

type prefetchRecord struct {
	Record string `json:"record"`
	*PrefetchEvent
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

// JSONL streams samples and decisions as one JSON object per line, each
// tagged with "record":"sample" or "record":"decision".
type JSONL struct {
	w *bufio.Writer
}

// NewJSONL wraps w in a buffered JSON-lines exporter.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

func (e *JSONL) write(rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	return e.w.WriteByte('\n')
}

// Sample writes one sample row.
func (e *JSONL) Sample(s *Sample) error { return e.write(sampleRecord{Record: "sample", Sample: s}) }

// Decision writes one decision row.
func (e *JSONL) Decision(d *Decision) error {
	return e.write(decisionRecord{Record: "decision", Decision: d})
}

// Fault writes one fault-event row.
func (e *JSONL) Fault(f *FaultEvent) error {
	return e.write(faultRecord{Record: "fault", FaultEvent: f})
}

// Prefetch writes one prefetch-event row.
func (e *JSONL) Prefetch(p *PrefetchEvent) error {
	return e.write(prefetchRecord{Record: "prefetch", PrefetchEvent: p})
}

// Flush drains the buffer.
func (e *JSONL) Flush() error { return e.w.Flush() }

// CSV writes the sample time series as comma-separated rows with a
// header. Decision records have a different shape and are omitted from
// CSV output — use the JSONL exporter when the steering log matters.
type CSV struct {
	w      *bufio.Writer
	header bool
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

// Sample writes one CSV row (and the header before the first row).
func (e *CSV) Sample(s *Sample) error {
	if !e.header {
		e.header = true
		if _, err := fmt.Fprintln(e.w, csvHeader()); err != nil {
			return err
		}
	}
	fields := []string{
		itoa(s.Cycle), itoa(s.Core), itoa(s.Retired), itoa(s.IntervalRetired),
		fmt.Sprintf("%.4f", s.IntervalIPC), itoa(s.Occupancy),
	}
	for _, counts := range []arch.Counts{s.Demand, s.IntervalIssued, s.RFUUnits, s.RFUBusy, s.FFUBusy} {
		for _, v := range counts {
			fields = append(fields, itoa(v))
		}
	}
	slot := make([]string, len(s.Slots))
	for i, enc := range s.Slots {
		slot[i] = itoa(int(enc))
	}
	fields = append(fields, "\""+strings.Join(slot, " ")+"\"")
	if s.CEMValid {
		fields = append(fields, "1")
	} else {
		fields = append(fields, "0")
	}
	for _, e := range s.CEMErrors {
		fields = append(fields, itoa(e))
	}
	fields = append(fields, itoa(s.CEMChoice), itoa(s.ReconfigSlots), itoa(s.IntervalReconfigs),
		itoa(s.IntervalFlushed), itoa(s.IntervalDispatchStalls),
		itoa(s.BucketIssued), itoa(s.BucketUnits), itoa(s.BucketDeps), itoa(s.BucketFrontend))
	_, err := fmt.Fprintln(e.w, strings.Join(fields, ","))
	return err
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

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
