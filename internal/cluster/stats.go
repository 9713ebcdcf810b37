package cluster

import (
	"encoding/json"
	"fmt"
	"io"

	"repro"
	"repro/internal/cpu"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Stats aggregates a cluster run: the cluster cycle count, the mode
// history, and each core's full scalar statistics.
type Stats struct {
	Cycles       int         `json:"cycles"`
	Cores        []cpu.Stats `json:"cores"`
	Mode         string      `json:"mode"`
	Arbiter      string      `json:"arbiter"`
	ModeSwitches int         `json:"modeSwitches"`
}

// Stats snapshots the cluster state.
func (c *Machine) Stats() Stats {
	s := Stats{
		Cycles:       c.cycle,
		Mode:         c.mode.String(),
		Arbiter:      c.arb.String(),
		ModeSwitches: c.modeSwitches,
	}
	for _, p := range c.procs {
		s.Cores = append(s.Cores, p.Stats())
	}
	return s
}

// AggregateIPC is the cluster's throughput: total instructions retired
// across every core per cluster cycle.
func (s Stats) AggregateIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	total := 0
	for _, cs := range s.Cores {
		total += cs.Retired
	}
	return float64(total) / float64(s.Cycles)
}

// Fairness is Jain's index over the per-core IPCs: 1.0 when every core
// progresses at the same rate, approaching 1/K when one core starves
// the rest. Degenerate inputs (no cores, all-zero IPC) report 1.0 —
// nothing is being shared unfairly.
func (s Stats) Fairness() float64 {
	if len(s.Cores) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, cs := range s.Cores {
		ipc := cs.IPC()
		sum += ipc
		sumSq += ipc * ipc
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(s.Cores)) * sumSq)
}

// Report is the run report of a multi-core cluster: the cluster-level
// aggregates plus one full scalar report per core. It rides in the same
// report slot scalar reports use; clients discriminate on the
// "cluster" key.
type Report struct {
	Cluster Summary `json:"cluster"`
	// Cores holds each core's scalar run report, index = core id.
	Cores []repro.RunReport `json:"cores"`
}

// Summary is the cluster-level aggregate block of a Report.
type Summary struct {
	Cores        int     `json:"cores"`
	Mode         string  `json:"mode"`
	Arbiter      string  `json:"arbiter"`
	ModeSwitches int     `json:"modeSwitches"`
	Cycles       int     `json:"cycles"`
	AggregateIPC float64 `json:"aggregateIPC"`
	Fairness     float64 `json:"fairness"`
}

// ReportJSON renders the run report: a one-core cluster is the scalar
// machine and renders its scalar document; a K-core cluster renders a
// Report.
func (c *Machine) ReportJSON() ([]byte, error) {
	if len(c.cores) == 1 {
		return c.cores[0].ReportJSON()
	}
	stats := c.Stats()
	rep := Report{Cluster: Summary{
		Cores:        len(c.cores),
		Mode:         stats.Mode,
		Arbiter:      stats.Arbiter,
		ModeSwitches: stats.ModeSwitches,
		Cycles:       stats.Cycles,
		AggregateIPC: stats.AggregateIPC(),
		Fairness:     stats.Fairness(),
	}}
	for _, m := range c.cores {
		rep.Cores = append(rep.Cores, m.Report())
	}
	return json.Marshal(rep)
}

// EnableTelemetry streams per-core telemetry into one shared exporter,
// every record labelled with its core index by the core's observer.
// format is "jsonl" or "csv" ("prom" renders one registry snapshot and
// cannot merge K registries into one stream — enable it per core
// instead). A one-core cluster is the scalar machine and takes every
// format Machine.EnableTelemetry does. The interval is resolved by
// repro.MetricsInterval for every core count. Call before Run.
func (c *Machine) EnableTelemetry(w io.Writer, format string, interval int) error {
	interval, err := repro.MetricsInterval(interval)
	if err != nil {
		return err
	}
	if len(c.cores) == 1 {
		_, err := c.cores[0].EnableTelemetry(w, format, interval)
		return err
	}
	if format == "prom" {
		return fmt.Errorf("cluster: unsupported telemetry format %q (want jsonl or csv)", format)
	}
	exp, err := telemetry.NewExporter(w, format, nil)
	if err != nil {
		return err
	}
	for k, m := range c.cores {
		m.EnableTelemetryExporter(exp, interval)
		m.Observer().SetCore(k)
	}
	return nil
}

// EnableSpans attaches one span recorder per core, each labelled with
// its core index by the core's observer; RunContext's per-core Flush
// finishes them for halted cores. Export a combined trace afterwards with
// WriteChromeTrace or the recorders' own writers. Call before Run.
func (c *Machine) EnableSpans(cfg repro.SpanConfig) []*span.Recorder {
	out := make([]*span.Recorder, len(c.cores))
	for k, m := range c.cores {
		out[k] = m.EnableSpans(cfg)
		m.Observer().SetCore(k)
	}
	return out
}

// WriteChromeTrace renders every enabled core's span trace into one
// Chrome Trace document, each core under its own process lane.
func (c *Machine) WriteChromeTrace(w io.Writer) error {
	recs := make([]*span.Recorder, len(c.cores))
	for k, m := range c.cores {
		recs[k] = m.Spans()
	}
	return span.WriteChromeTraceMulti(w, recs)
}
