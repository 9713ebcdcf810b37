// Tests for the one observer stream: every sink sees each event once,
// so the sinks agree with each other and with the simulator's own
// counters, and the instrumented packages depend on the stream alone.
package repro

import (
	"bytes"
	"fmt"
	"go/build"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestObserverSinksAgree runs the fault-injecting prefetch campaign with
// one observer carrying a telemetry collector, a span recorder and a
// pipeline buffer, and checks that fault, reconfiguration and prefetch
// counts agree across the sinks and with rfu.FaultStats, core.Stats and
// the fabric's reconfiguration count, and that every telemetry counter
// equals the run's own accounting.
func TestObserverSinksAgree(t *testing.T) {
	m := NewMachine(spanRunProgram(), Options{Params: spanRunParams(), Policy: PolicyPrefetch})
	col := &telemetry.Collector{}
	probe := m.EnableTelemetryExporter(col, 100)
	rec := m.EnableSpans(SpanConfig{})
	m.EnableTracingUntil(1<<17, -1)
	stats, err := m.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.tracer.Dropped() || rec.Dropped() > 0 {
		t.Fatal("a bounded sink dropped events; enlarge it")
	}
	report := m.Report()
	if report.Faults == nil || report.Prefetch == nil {
		t.Fatal("fault injection or prefetch accounting not enabled")
	}
	fs, ps := *report.Faults, *report.Prefetch

	counter := func(name string, labels ...telemetry.Label) int {
		v, ok := probe.Registry().CounterValue(name, labels...)
		if !ok {
			t.Fatalf("no counter %s%v", name, labels)
		}
		return int(v)
	}
	faultRecords := map[string]int{}
	for _, f := range col.Faults {
		faultRecords[f.Event]++
	}
	prefetchRecords := map[string]int{}
	issuedSpans := 0
	for _, p := range col.Prefetches {
		prefetchRecords[p.Event]++
		if p.Event == telemetry.PrefetchIssue {
			issuedSpans += p.Spans
		}
	}
	spanCounts := map[string]int{} // kind/name/detail
	for _, e := range rec.Entries() {
		spanCounts[e.Kind.String()+"/"+e.Name+"/"+e.Aux]++
	}
	pipelineReconfigs, retires := 0, 0
	for _, e := range m.tracer.Events() {
		switch e.Kind {
		case trace.KindReconfig:
			pipelineReconfigs++
		case trace.KindRetire:
			retires++
		}
	}

	check := func(what string, want int, got map[string]int) {
		t.Helper()
		for sink, n := range got {
			if n != want {
				t.Errorf("%s: %s counts %d, want %d", what, sink, n, want)
			}
		}
	}
	injected := fs.InjectedTransient + fs.InjectedPermanent
	if injected == 0 || fs.Detected == 0 || fs.Repaired == 0 || ps.Issued == 0 {
		t.Fatalf("campaign too quiet to compare: %+v, %+v", fs, ps)
	}
	t.Logf("faults %+v; prefetch %+v; %d reconfigurations", fs, ps, m.Reconfigurations())
	check("fault injections", injected, map[string]int{
		"telemetry counter": counter("rsssim_faults_injected_total", telemetry.Label{Key: "kind", Value: "transient"}) +
			counter("rsssim_faults_injected_total", telemetry.Label{Key: "kind", Value: "permanent"}),
		"telemetry records": faultRecords[telemetry.FaultInjectedTransient] + faultRecords[telemetry.FaultInjectedPermanent],
		"span instants":     spanCounts["fault/inject/transient"] + spanCounts["fault/inject/permanent"],
	})
	check("fault detections", fs.Detected, map[string]int{
		"telemetry counter": counter("rsssim_faults_detected_total"),
		"telemetry records": faultRecords[telemetry.FaultDetected],
		"span instants":     spanCounts["fault/detect/scrub"],
	})
	check("repairs started", fs.RepairsStarted, map[string]int{
		"telemetry records": faultRecords[telemetry.FaultRepairStart],
		"span windows": spanCounts["repair/repair/repaired"] + spanCounts["repair/repair/dead"] +
			spanCounts["repair/repair/"+span.OutcomeOpen],
	})
	check("slots restored", fs.Repaired+fs.HealedByLoad, map[string]int{
		"telemetry counter": counter("rsssim_faults_repaired_total"),
		"telemetry records": faultRecords[telemetry.FaultRepaired],
		"span entries":      spanCounts["repair/repair/repaired"] + spanCounts["fault/heal/load"],
	})
	check("dead slots", fs.DeadSlots, map[string]int{
		"telemetry records": faultRecords[telemetry.FaultDead],
		"span windows":      spanCounts["repair/repair/dead"],
	})
	reconfigSpans := 0
	for key, n := range spanCounts {
		if len(key) > 9 && key[:9] == "reconfig/" {
			reconfigSpans += n
		}
	}
	check("reconfigurations", m.Reconfigurations(), map[string]int{
		"telemetry counter": counter("rsssim_reconfig_spans_total"),
		"span recorder":     reconfigSpans,
		"pipeline buffer":   pipelineReconfigs,
	})
	check("prefetch spans issued", ps.Issued, map[string]int{
		"telemetry counter": counter("rsssim_prefetch_issued_total"),
		"telemetry records": issuedSpans,
	})
	for _, c := range []struct {
		outcome string
		want    int
		counter string
	}{
		{span.OutcomeConfirm, ps.Confirmed, "rsssim_prefetch_confirmed_total"},
		{span.OutcomeMispredict, ps.Mispredicted, "rsssim_prefetch_mispredicted_total"},
		{span.OutcomeCancel, ps.Cancelled, "rsssim_prefetch_cancelled_total"},
	} {
		n := 0
		for _, e := range rec.Entries() {
			if e.Kind == span.KindSpec && e.Aux == c.outcome {
				n++
			}
		}
		check("prefetch "+c.outcome, c.want, map[string]int{
			"telemetry counter": counter(c.counter),
			"telemetry records": prefetchRecords[c.outcome],
			"span recorder":     n,
		})
	}
	check("retired instructions", stats.Retired, map[string]int{
		"telemetry counter": counter("rsssim_retired_total"),
		"pipeline buffer":   retires,
	})

	// Every counter series the registry exports, keyed as the Prometheus
	// text renders it, against the run's Stats and RunReport. A counter
	// without an entry here fails, so each new one gets its cross-check.
	ms, _ := m.ManagerStats()
	w := m.Processor().Window()
	want := map[string]int{
		"rsssim_cycles_total":                            stats.Cycles,
		"rsssim_retired_total":                           stats.Retired,
		"rsssim_dispatched_total":                        stats.Retired + stats.Flushed + w.Size() - w.Free(),
		"rsssim_flushed_total":                           stats.Flushed,
		"rsssim_dispatch_stalls_total":                   stats.DispatchStallFull,
		"rsssim_steering_decisions_total":                len(col.Decisions),
		"rsssim_reconfig_spans_total":                    report.Reconfigurations,
		"rsssim_reconfig_slot_cycles_total":              report.ReconfigurationCycles,
		"rsssim_steering_cache_hits_total":               report.SteeringCacheHits,
		"rsssim_steering_cache_misses_total":             report.SteeringCacheMisses,
		"rsssim_prefetch_issued_total":                   ps.Issued,
		"rsssim_prefetch_confirmed_total":                ps.Confirmed,
		"rsssim_prefetch_mispredicted_total":             ps.Mispredicted,
		"rsssim_prefetch_cancelled_total":                ps.Cancelled,
		"rsssim_prefetch_wasted_spans_total":             ps.WastedSpans,
		"rsssim_phase_changes_total":                     ps.PhaseChanges,
		`rsssim_faults_injected_total{kind="transient"}`: fs.InjectedTransient,
		`rsssim_faults_injected_total{kind="permanent"}`: fs.InjectedPermanent,
		"rsssim_faults_detected_total":                   fs.Detected,
		"rsssim_faults_repaired_total":                   fs.Repaired + fs.HealedByLoad,
		"rsssim_scrub_scans_total":                       fs.ScrubScans,
		"rsssim_masked_slot_cycles_total":                fs.MaskedSlotCycles,
	}
	for u := arch.UnitType(0); u < arch.NumUnitTypes; u++ {
		want[fmt.Sprintf("rsssim_issued_total{unit=%q}", u)] = stats.IssuedByType[u]
	}
	for i, c := range []string{"current", "basis1", "basis2", "basis3"} {
		want[fmt.Sprintf("rsssim_selections_total{config=%q}", c)] = report.Selections[i]
	}
	if report.Selections != ms.Selections {
		t.Errorf("report selections %v, manager %v", report.Selections, ms.Selections)
	}
	var prom bytes.Buffer
	if err := probe.Registry().Render(&prom); err != nil {
		t.Fatal(err)
	}
	counters := map[string]bool{} // counter family names
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "counter" {
			counters[f[2]] = true
		}
		series, value, ok := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if !ok || !counters[name] {
			continue
		}
		seen++
		exp, ok := want[series]
		if !ok {
			t.Errorf("counter %s has no cross-check", series)
			continue
		}
		if got, _ := strconv.Atoi(value); got != exp {
			t.Errorf("counter %s = %s, want %d", series, value, exp)
		}
	}
	if seen != len(want) {
		t.Errorf("registry exports %d counter series, want %d", seen, len(want))
	}
}

// TestFullPolicyObserved pins what the full-reconfiguration policy
// reports since its selection manager shares the machine's observer and
// telemetry reads that manager's counters: every selection pass goes
// through the manager's steering cache, so each is a counted hit or
// miss, and each whole-fabric swap is a decision naming a basis
// configuration.
func TestFullPolicyObserved(t *testing.T) {
	m := NewMachine(spanRunProgram(), Options{Policy: PolicyFullReconfig})
	col := &telemetry.Collector{}
	probe := m.EnableTelemetryExporter(col, 100)
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	counter := func(name string, labels ...telemetry.Label) uint64 {
		v, _ := probe.Registry().CounterValue(name, labels...)
		return v
	}
	var selections uint64
	for _, c := range []string{"current", "basis1", "basis2", "basis3"} {
		selections += counter("rsssim_selections_total", telemetry.Label{Key: "config", Value: c})
	}
	lookups := counter("rsssim_steering_cache_hits_total") + counter("rsssim_steering_cache_misses_total")
	if selections == 0 || lookups != selections {
		t.Errorf("steering-cache lookups = %d, want one per selection pass (%d)", lookups, selections)
	}
	if len(col.Decisions) == 0 {
		t.Fatal("no decisions logged")
	}
	for _, d := range col.Decisions {
		if d.To != m.basis[d.Choice-1] || d.SlotsLoading != d.DiffSlots {
			t.Errorf("decision %+v: want To naming basis choice and whole-fabric loading", d)
		}
	}
}

// TestObserverLayering pins the dependency rule of the observer stream:
// the instrumented hot-path packages emit trace.Events and know nothing
// of the sinks that consume them.
func TestObserverLayering(t *testing.T) {
	for _, pkg := range []string{"cpu", "core", "rfu", "predict", "baseline"} {
		p, err := build.ImportDir(filepath.Join("internal", pkg), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports {
			if imp == "repro/internal/telemetry" || imp == "repro/internal/span" {
				t.Errorf("internal/%s imports %s; emit a trace.Event instead", pkg, imp)
			}
		}
	}
}
