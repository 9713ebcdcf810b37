package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload, untraced and traced, at
// 1% program size over a short window: every operation must pass the
// correctness gate and every result-line metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: def.name, seed: 3, seconds: 0.2, trace: trace, scale: 0.01, root: root, minOps: 10}
			rec, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", def.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v", def.name, trace, d.Name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestResultLine runs the command as the benchmark contract does and
// checks its last line: exactly correct, attempted, failed and metrics,
// with every end-to-end metric.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out bytes.Buffer
	code := run([]string{"-workload", "serve-short", "-seed", "3", "-seconds", "0.2", "-scale", "0.01", "-trace", "0"}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := metrics[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-scale", "2"},
		{"-runs", "0"},
		{"-workload", "sim-steady", "-runs", "2"},
		{"extra"},
		{"-compare", "only-one.json"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-workload", "nope", "-seconds", "0.1"}, &out); code == 0 {
		t.Error("unknown workload accepted")
	}
}
