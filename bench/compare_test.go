package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values spread by ±spread/2 around center, in an
// order that alternates low and high.
func around(center, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		f := float64(i%5)/4 - 0.5 // -0.5 .. 0.5
		xs[i] = center * (1 + spread*f)
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same distribution", lower, around(100, 0.02, 10), around(100, 0.02, 10), verdictUnchanged},
		{"within bound", lower, around(100, 0.02, 10), around(105, 0.02, 10), verdictUnchanged},
		{"slower beyond bound", lower, around(100, 0.02, 10), around(115, 0.02, 10), verdictWorse},
		{"throughput drop beyond bound", higher, around(100, 0.02, 10), around(85, 0.02, 10), verdictWorse},
		{"clear gain over 10 pairs", lower, around(100, 0.02, 10), around(90, 0.02, 10), verdictImproved},
		{"throughput gain over 10 pairs", higher, around(100, 0.02, 10), around(110, 0.02, 10), verdictImproved},
		{"gain on 5 pairs is not claimed", lower, around(100, 0.02, 5), around(90, 0.02, 5), verdictUnchanged},
		{"gain inside A's spread is not claimed", lower, around(100, 0.08, 10), around(98, 0.02, 10), verdictUnchanged},
		{"spread wider than bound", lower, around(100, 0.40, 10), around(100, 0.02, 10), verdictUnresolved},
		{"wide spread but B beats every A", lower, []float64{100, 130, 100, 130, 115}, []float64{90, 91, 92, 93, 94}, verdictUnchanged},
		{"set-up is judged on its median", setup, around(100, 0.40, 10), around(105, 0.40, 10), verdictUnchanged},
		{"set-up median beyond bound", setup, around(100, 0.40, 10), around(130, 0.40, 10), verdictWorse},
	} {
		if got := compareMetric("w", tc.def, tc.a, tc.b); got.verdict != tc.want {
			t.Errorf("%s: verdict %s (change %+.3f, wins %d/%d), want %s", tc.name, got.verdict, got.change, got.wins, got.pairs, tc.want)
		}
	}
}

func TestCompareFailures(t *testing.T) {
	clean := []*runRecord{{Attempted: 100}}
	dirty := []*runRecord{{Attempted: 100, Failed: 1}}
	if v := compareFailures("w", clean, dirty).verdict; v != verdictWorse {
		t.Errorf("one more failure: %s, want worse", v)
	}
	if v := compareFailures("w", dirty, clean).verdict; v != verdictUnchanged {
		t.Errorf("fewer failures: %s, want unchanged", v)
	}
}

// TestCompareRefusesOtherHost checks the same-host guard: result files
// whose fingerprints differ in host or inputs are not compared, while a
// different commit is exactly what a comparison is for.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	fp := fingerprint{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2, GOGC: "100", GoVersion: "go1.24.0", Commit: "aaa", Seed: 7, Scale: 1, Seconds: 10}
	run := &runRecord{Workload: "sim-steady", Attempted: 10, Metrics: metricSet{}}
	for _, d := range endToEnd {
		run.Metrics.set(d.Name, 1, d.Unit)
	}
	write := func(name string, fp fingerprint) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, resultFile{Fingerprint: fp, Runs: []*runRecord{run}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", fp)
	other := fp
	other.Commit = "bbb"
	b := write("b.json", other)
	var out bytes.Buffer
	if code := compareMain([]string{a, b}, &out); code != 0 {
		t.Fatalf("same host, other commit: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "sim-steady") || strings.Contains(out.String(), verdictWorse) {
		t.Errorf("unexpected comparison:\n%s", out.String())
	}
	for _, change := range []func(*fingerprint){
		func(f *fingerprint) { f.CPUModel = "cpu B" },
		func(f *fingerprint) { f.NProc = 4 },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.GOGC = "off" },
		func(f *fingerprint) { f.GoVersion = "go1.23.0" },
		func(f *fingerprint) { f.Seed = 8 },
	} {
		moved := fp
		change(&moved)
		c := write("c.json", moved)
		if code := compareMain([]string{a, c}, &out); code != 2 {
			t.Errorf("fingerprint %+v: exit %d, want 2 (refused)", moved, code)
		}
	}
}
