package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/rfu"
	"repro/internal/trace"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := reg.NewGauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	h := reg.NewHistogram("h", "a histogram", []int64{1, 4})
	for _, v := range []int64{0, 1, 2, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 8 {
		t.Errorf("histogram count=%d sum=%d, want 4/8", h.Count(), h.Sum())
	}
	if got := h.counts; got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("bucket counts = %v, want [2 1 1]", got)
	}
}

// TestRegistryDuplicatePanics: a series registered twice, or a family
// name registered again under another help text or kind, is a wiring
// bug.
func TestRegistryDuplicatePanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		second func(*Registry)
	}{
		{"same series", func(r *Registry) { r.NewCounter("dup", "first") }},
		{"other help", func(r *Registry) { r.NewCounter("dup", "second", Label{"k", "v"}) }},
		{"other kind", func(r *Registry) { r.NewGauge("dup", "first", Label{"k", "v"}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.NewCounter("dup", "first")
			defer func() {
				if recover() == nil {
					t.Error("registration did not panic")
				}
			}()
			tc.second(reg)
		})
	}
}

// TestRenderGroupsFamilies: series registered interleaved across
// families render as one contiguous block per family, headers once, in
// first-registration order — the Prometheus text format's grouping
// rule.
func TestRenderGroupsFamilies(t *testing.T) {
	reg := NewRegistry()
	for _, v := range []string{"a", "b"} {
		reg.NewCounter("req_total", "requests", Label{"h", v})
		reg.NewHistogram("dur_us", "durations", []int64{10}, Label{"h", v})
		reg.NewCounter("fail_total", "failures", Label{"h", v})
	}
	byKind := reg.NewCounters("kind_total", "by kind", "kind", "x", "y")
	byKind["y"].Add(2)
	reg.NewHistograms("wait_us", "waits", []int64{1, 5}, "kind", "x", "y")["x"].Observe(3)
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	var order []string
	headers := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		name := strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
		if strings.HasPrefix(line, "# ") {
			name = strings.Fields(line)[2]
			headers[line]++
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if len(order) == 0 || order[len(order)-1] != name {
			order = append(order, name)
		}
	}
	want := []string{"req_total", "dur_us", "fail_total", "kind_total", "wait_us"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("family blocks = %v, want %v\n%s", order, want, buf.String())
	}
	for h, n := range headers {
		if n != 1 {
			t.Errorf("header %q appears %d times", h, n)
		}
	}
	for _, line := range []string{
		`kind_total{kind="x"} 0`, `kind_total{kind="y"} 2`,
		`wait_us_bucket{kind="x",le="5"} 1`, `wait_us_count{kind="y"} 0`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("render output missing %q\n%s", line, buf.String())
		}
	}
}

func TestRegistryLabelsDistinguish(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("issued", "per unit", Label{"unit", "IntALU"})
	b := reg.NewCounter("issued", "per unit", Label{"unit", "LSU"})
	a.Inc()
	b.Add(2)
	if v, ok := reg.CounterValue("issued", Label{"unit", "LSU"}); !ok || v != 2 {
		t.Errorf("CounterValue(LSU) = %d,%v, want 2,true", v, ok)
	}
	if _, ok := reg.CounterValue("issued", Label{"unit", "FPALU"}); ok {
		t.Error("CounterValue on unregistered labels reported ok")
	}
}

func TestRenderPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("sim_events_total", "events", Label{"kind", "x"})
	c.Add(3)
	h := reg.NewHistogram("sim_occ", "occupancy", []int64{1, 2})
	h.Observe(0)
	h.Observe(2)
	h.Observe(9)
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP sim_events_total events",
		"# TYPE sim_events_total counter",
		`sim_events_total{kind="x"} 3`,
		"# TYPE sim_occ histogram",
		`sim_occ_bucket{le="1"} 1`,
		`sim_occ_bucket{le="2"} 2`,
		`sim_occ_bucket{le="+Inf"} 3`,
		"sim_occ_sum 11",
		"sim_occ_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q\n%s", want, out)
		}
	}
}

// observed attaches p to a fresh observer, as a machine would.
func observed(p *Probe) *trace.Observer {
	o := &trace.Observer{}
	o.Add(p)
	return o
}

func TestProbeNilReceiverSafe(t *testing.T) {
	var p *Probe
	if err := p.Flush(); err != nil {
		t.Errorf("nil probe Flush = %v", err)
	}
	if p.Registry() != nil {
		t.Error("nil probe accessors not zero")
	}
}

func TestProbeSamplingAndCounters(t *testing.T) {
	p := NewProbe(10)
	col := &Collector{}
	p.SetExporter(col)
	var cycle int
	p.SetState(func() State {
		// One instruction dispatched, issued to an LSU and retired per
		// cycle; three more in flight. One selection pass per cycle,
		// every other one a steering-cache hit; a scrub every fifth
		// cycle.
		return State{
			Stats: cpu.Stats{Cycles: cycle, Retired: cycle,
				IssuedByType: arch.Counts{arch.LSU: cycle}, CyclesIssued: cycle},
			Occupancy: 3,
			Manager:   core.Stats{Selections: [arch.NumConfigs]int{cycle}, CacheHits: cycle / 2},
			Selection: core.Selection{Errors: [arch.NumConfigs]int{1, 2, 3, 4}},
			Faults:    rfu.FaultStats{ScrubScans: cycle / 5},
		}
	})
	o := observed(p)

	for cycle = 1; cycle <= 20; cycle++ {
		o.SetCycle(cycle)
		o.Emit(trace.Event{Kind: trace.KindCycleEnd, A: int32(cycle)})
	}
	if len(col.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(col.Samples))
	}
	s := col.Samples[1]
	if s.Cycle != 20 || s.IntervalRetired != 10 || s.IntervalIPC != 1.0 {
		t.Errorf("sample = %+v, want cycle 20, intervalRetired 10, IPC 1.0", s)
	}
	if s.IntervalIssued[arch.LSU] != 10 {
		t.Errorf("interval issued LSU = %d, want 10", s.IntervalIssued[arch.LSU])
	}
	if s.BucketIssued != 10 {
		t.Errorf("bucketIssued = %d, want 10 (interval delta)", s.BucketIssued)
	}
	if s.IntervalSteerCacheHits != 5 || s.IntervalScrubScans != 2 {
		t.Errorf("interval cache hits/scrubs = %d/%d, want 5/2 (interval deltas)",
			s.IntervalSteerCacheHits, s.IntervalScrubScans)
	}
	if !s.CEMValid || s.CEMErrors != [arch.NumConfigs]int{1, 2, 3, 4} {
		t.Errorf("CEM valid/errors = %v/%v, want the latest selection's", s.CEMValid, s.CEMErrors)
	}
	if v, _ := p.Registry().CounterValue("rsssim_cycles_total"); v != 20 {
		t.Errorf("cycles counter = %d, want 20", v)
	}
	if v, _ := p.Registry().CounterValue("rsssim_issued_total", Label{"unit", "LSU"}); v != 20 {
		t.Errorf("issued{LSU} counter = %d, want 20", v)
	}
	if v, _ := p.Registry().CounterValue("rsssim_dispatched_total"); v != 23 {
		t.Errorf("dispatched counter = %d, want 23 (retired + in flight)", v)
	}
}

func TestProbeDecisionStampedAndExported(t *testing.T) {
	p := NewProbe(100)
	col := &Collector{}
	p.SetExporter(col)
	p.SetBasis([3]string{"integer", "memory", "floating"})
	p.SetState(func() State {
		return State{Manager: core.Stats{Selections: [arch.NumConfigs]int{0, 1}}}
	})
	o := observed(p)
	o.SetCore(2)
	o.SetCycle(42)
	o.Emit(trace.Event{Kind: trace.KindDecision, Str: "memory", A: 3,
		B: trace.Pack4([4]int{6, 2, 4, 0}), C: 32})
	if len(col.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(col.Decisions))
	}
	d := col.Decisions[0]
	if d.Cycle != 42 || d.Core != 2 {
		t.Errorf("decision cycle/core = %d/%d, want 42/2 (stamped by the observer)", d.Cycle, d.Core)
	}
	if d.From != "memory" || d.To != "floating" || d.StallSlotCycles != 32 ||
		d.Choice != 3 || d.DiffSlots != 6 || d.Spans != 2 || d.SlotsLoading != 4 {
		t.Errorf("decision = %+v", d)
	}
	if v, _ := p.Registry().CounterValue("rsssim_steering_decisions_total"); v != 1 {
		t.Errorf("decisions counter = %d, want 1", v)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Registry().CounterValue("rsssim_selections_total", Label{"config", "basis1"}); v != 1 {
		t.Errorf("selections{basis1} counter = %d, want 1", v)
	}
}

// TestProbeFaultAndPrefetchRecords maps fault and speculation events to
// their exported record vocabularies, and the fault and prefetch
// counters to the state's.
func TestProbeFaultAndPrefetchRecords(t *testing.T) {
	p := NewProbe(100)
	col := &Collector{}
	p.SetExporter(col)
	p.SetState(func() State {
		return State{Faults: rfu.FaultStats{Repaired: 1, HealedByLoad: 1},
			Manager: core.Stats{PrefetchWastedSpans: 2}}
	})
	o := observed(p)
	o.SetCycle(9)
	for _, e := range []trace.Event{
		{Kind: trace.KindFaultInject, A: 1, B: 1},
		{Kind: trace.KindFaultInject, A: 2},
		{Kind: trace.KindFaultDetect, A: 2},
		{Kind: trace.KindRepairStart, A: 2},
		{Kind: trace.KindRepairEnd, A: 2},
		{Kind: trace.KindRepairEnd, A: 1, B: 1},
		{Kind: trace.KindFaultHeal, A: 3},
		{Kind: trace.KindPhaseChange},
		{Kind: trace.KindPrefetchIssue, Str: "floating", A: 2, B: 80},
		{Kind: trace.KindSpecResolve, Str: "floating", A: 2, B: 80, C: trace.SpecMispredict},
	} {
		o.Emit(e)
	}
	var faults []string
	for _, f := range col.Faults {
		faults = append(faults, f.Event)
	}
	want := []string{FaultInjectedPermanent, FaultInjectedTransient, FaultDetected,
		FaultRepairStart, FaultRepaired, FaultDead, FaultRepaired}
	if strings.Join(faults, ",") != strings.Join(want, ",") {
		t.Errorf("fault records = %v, want %v", faults, want)
	}
	if len(col.Prefetches) != 3 || col.Prefetches[2].Event != PrefetchMispredict ||
		col.Prefetches[2].Config != "floating" || col.Prefetches[2].Spans != 2 {
		t.Errorf("prefetch records = %+v", col.Prefetches)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Registry().CounterValue("rsssim_faults_repaired_total"); v != 2 {
		t.Errorf("repaired counter = %d, want 2 (repair + heal)", v)
	}
	if v, _ := p.Registry().CounterValue("rsssim_prefetch_wasted_spans_total"); v != 2 {
		t.Errorf("wasted spans counter = %d, want 2", v)
	}
}

func TestJSONLExporterRecords(t *testing.T) {
	var buf bytes.Buffer
	e := NewJSONL(&buf)
	if err := e.Sample(&Sample{Cycle: 100, Occupancy: 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.Decision(&Decision{Cycle: 101, From: "(empty)", To: "memory"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var sample map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &sample); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if sample["record"] != "sample" || sample["cycle"] != float64(100) {
		t.Errorf("sample row = %v", sample)
	}
	if _, ok := sample["from"]; ok {
		t.Error("sample row leaked decision fields")
	}
	var dec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &dec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if dec["record"] != "decision" || dec["to"] != "memory" {
		t.Errorf("decision row = %v", dec)
	}
}

func TestCSVExporterShape(t *testing.T) {
	var buf bytes.Buffer
	e := NewCSV(&buf)
	s := &Sample{Cycle: 10, Retired: 5, IntervalRetired: 5, IntervalIPC: 0.5,
		Occupancy: 3, CEMValid: true, CEMErrors: [arch.NumConfigs]int{4, 3, 2, 1}}
	if err := e.Sample(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Sample(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
	nCols := len(strings.Split(lines[0], ","))
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != nCols {
			t.Errorf("row %d has %d columns, header has %d", i, got, nCols)
		}
	}
	if !strings.HasPrefix(lines[0], "cycle,core,retired,") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestPromExporterSnapshot(t *testing.T) {
	p := NewProbe(10)
	var buf bytes.Buffer
	e := NewProm(&buf, p.Registry())
	p.SetExporter(e)
	p.SetState(func() State { return State{Stats: cpu.Stats{Cycles: 1, Retired: 1}} })
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rsssim_retired_total 1") {
		t.Errorf("prom snapshot missing retired counter:\n%s", out)
	}
	if !strings.Contains(out, "rsssim_cycles_total 1") {
		t.Errorf("prom snapshot missing cycles counter:\n%s", out)
	}
}

func TestProbeInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProbe(0) did not panic")
		}
	}()
	NewProbe(0)
}
