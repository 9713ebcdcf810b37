// Machine-level tests for the span recorder: JSONL schema stability,
// Chrome Trace export on an instrumented prefetch+fault run, flight
// dumps at anomaly triggers, and the pure-observer guarantee that a
// run is bit-identical with the recorder attached or not.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/span"
)

// spanRunParams is the reference campaign for these tests: fault rates
// high enough for repair windows and a phase-alternating workload long
// enough for the prefetch predictor to open speculations, so one run
// exercises every span kind.
func spanRunParams() Params {
	p := DefaultParams()
	p.FaultTransientRate = 0.001
	p.FaultPermanentRate = 0.0001
	p.FaultSeed = 1234
	p.FaultScrubInterval = 32
	return p
}

func spanRunProgram() Program {
	return Synthesize(AlternatingPhases(4000, 250), 7)
}

// instrumentedSpanRun executes the reference campaign with a recorder
// attached and returns both.
func instrumentedSpanRun(t *testing.T, cfg SpanConfig) (*Machine, *span.Recorder) {
	t.Helper()
	m := NewMachine(spanRunProgram(), Options{Params: spanRunParams(), Policy: PolicyPrefetch})
	rec := m.EnableSpans(cfg)
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// TestSpanJSONLSchemaGolden pins the span JSONL schema: the field names
// and JSON types of span and instant records must match
// testdata/span_schema.golden. Downstream tooling parses this stream,
// so adding a field means regenerating the golden file deliberately
// (delete it and re-run with -run SpanJSONLSchemaGolden to print the
// new schema).
func TestSpanJSONLSchemaGolden(t *testing.T) {
	_, rec := instrumentedSpanRun(t, SpanConfig{})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	schemas := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		kind, _ := row["record"].(string)
		if kind == "" {
			t.Fatalf("row missing record tag: %s", line)
		}
		if _, seen := schemas[kind]; !seen {
			schemas[kind] = schemaOf(row)
		}
	}
	for _, kind := range []string{"span", "instant"} {
		if schemas[kind] == "" {
			t.Fatalf("no %s record in the instrumented run", kind)
		}
	}

	var sb strings.Builder
	sb.WriteString("# Span JSONL schema: field -> JSON type, per record kind.\n")
	sb.WriteString("# Regenerate: delete this file, run go test -run SpanJSONLSchemaGolden,\n")
	sb.WriteString("# and copy the schema the failure prints.\n")
	kinds := make([]string, 0, len(schemas))
	for kind := range schemas {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(&sb, "[%s]\n%s", kind, schemas[kind])
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "span_schema.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (current schema below, save it there if this is a new checkout):\n%s\n%v",
			goldenPath, got, err)
	}
	if got != string(want) {
		t.Errorf("span JSONL schema drifted from %s.\ngot:\n%s\nwant:\n%s",
			goldenPath, got, want)
	}
}

// TestSpanChromeTraceEndToEnd runs the instrumented campaign and checks
// the Chrome Trace export: valid JSON, every span kind present, sane
// timestamps, and sequential (non-overlapping) phase spans.
func TestSpanChromeTraceEndToEnd(t *testing.T) {
	m, rec := instrumentedSpanRun(t, SpanConfig{})
	finalCycle := int64(m.Stats().Cycles)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  *int64 `json:"dur"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}

	byCat := map[string]int{}
	var lastPhaseEnd int64 = -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		byCat[ev.Cat]++
		if ev.TS < 0 {
			t.Errorf("event %s/%s has negative timestamp %d", ev.Cat, ev.Name, ev.TS)
		}
		if ev.Ph == "X" {
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("span %s/%s missing or negative duration", ev.Cat, ev.Name)
				continue
			}
			// The reconfiguration recorded in the final cycles may
			// nominally complete after the halt; everything else must
			// fit inside the run.
			if ev.Cat != "reconfig" && ev.TS+*ev.Dur > finalCycle {
				t.Errorf("span %s/%s ends at %d, past final cycle %d",
					ev.Cat, ev.Name, ev.TS+*ev.Dur, finalCycle)
			}
		}
		if ev.Cat == "phase" {
			if ev.TS < lastPhaseEnd {
				t.Errorf("phase span at %d overlaps previous phase ending %d", ev.TS, lastPhaseEnd)
			}
			lastPhaseEnd = ev.TS + *ev.Dur
		}
	}
	for _, cat := range []string{"reconfig", "repair", "speculation", "phase", "fault"} {
		if byCat[cat] == 0 {
			t.Errorf("no %q events in the trace (categories: %v)", cat, byCat)
		}
	}
}

// TestSpanFlightDumpOnTrigger runs with a tight window and a low storm
// threshold so the fault-storm trigger fires mid-run, and checks the
// OnTrigger hook produces a well-formed flight dump.
func TestSpanFlightDumpOnTrigger(t *testing.T) {
	var dump bytes.Buffer
	var reasons []string
	cfg := SpanConfig{
		Window:     256,
		FaultStorm: 1,
		OnTrigger: func(r *span.Recorder, reason string) {
			if len(reasons) == 0 { // dump once, like cmd/rsssim -flight-dump
				if err := r.DumpFlight(&dump, reason); err != nil {
					t.Errorf("DumpFlight: %v", err)
				}
			}
			reasons = append(reasons, reason)
		},
	}
	_, rec := instrumentedSpanRun(t, cfg)
	if rec.Triggers() == 0 || len(reasons) == 0 {
		t.Fatalf("no trigger fired (triggers=%d)", rec.Triggers())
	}
	if reasons[0] != span.TriggerFaultStorm {
		t.Errorf("first trigger = %q, want %q", reasons[0], span.TriggerFaultStorm)
	}
	var d struct {
		Reason  string           `json:"reason"`
		Cycle   int64            `json:"cycle"`
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(dump.Bytes(), &d); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if d.Reason != span.TriggerFaultStorm || len(d.Entries) == 0 {
		t.Errorf("dump = reason %q with %d entries, want fault-storm with entries", d.Reason, len(d.Entries))
	}
}

// TestSpansBitIdentical pins the pure-observer guarantee: the same
// seeded campaign must produce identical statistics and report with the
// recorder attached and without it.
func TestSpansBitIdentical(t *testing.T) {
	run := func(withSpans bool) (Stats, string) {
		m := NewMachine(spanRunProgram(), Options{Params: spanRunParams(), Policy: PolicyPrefetch})
		if withSpans {
			m.EnableSpans(SpanConfig{})
		}
		if _, err := m.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), m.Report().String()
	}
	plainStats, plainReport := run(false)
	spanStats, spanReport := run(true)
	if !reflect.DeepEqual(plainStats, spanStats) {
		t.Errorf("stats diverge with spans attached:\nwithout: %+v\nwith:    %+v", plainStats, spanStats)
	}
	if plainReport != spanReport {
		t.Errorf("report diverges with spans attached:\nwithout:\n%s\nwith:\n%s", plainReport, spanReport)
	}
}
