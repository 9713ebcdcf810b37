package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestSyntheticProgramKinds(t *testing.T) {
	for _, kind := range []string{"int", "fp", "mem", "mdu", "uniform", "phased"} {
		prog, err := syntheticProgram(kind, 3)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if len(prog) == 0 {
			t.Errorf("%s: empty program", kind)
			continue
		}
		if prog[len(prog)-1].Op != isa.HALT {
			t.Errorf("%s: program does not end in HALT", kind)
		}
	}
	if _, err := syntheticProgram("bogus", 1); err == nil {
		t.Error("unknown workload kind accepted")
	}
}

func TestSyntheticProgramSeeded(t *testing.T) {
	a, _ := syntheticProgram("uniform", 5)
	b, _ := syntheticProgram("uniform", 5)
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different programs")
		}
	}
}

// TestRunOutputPins runs rsssim in-process and compares its output with
// files captured from a build that ran one core on repro.Machine
// directly: cluster.Machine at K=1 must print exactly what the scalar
// machine printed. The telemetry cases (prom, csv, full-reconfig and
// 2-core -metrics) were captured while the telemetry probe still
// recounted events, so they pin that reading counters changed no byte.
// The cluster table's wall-clock throughput line is stripped.
func TestRunOutputPins(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		args         []string
	}{
		{"saxpy text", "saxpy.golden", []string{"-kernel", "saxpy"}},
		{"saxpy json", "saxpy_json.golden", []string{"-kernel", "saxpy", "-json"}},
		{"alternating prefetch metrics", "alternating_prefetch_metrics.golden",
			[]string{"-synthetic", "alternating", "-prefetch", "-metrics", "-"}},
		{"alternating prefetch faults", "alternating_prefetch_faults.golden",
			[]string{"-synthetic", "alternating", "-prefetch", "-fault-rate", "0.001", "-fault-seed", "3"}},
		{"saxpy 2-core split", "saxpy_cores2_split.golden",
			[]string{"-kernel", "saxpy", "-cores", "2", "-cluster-mode", "split", "-cluster-arbiter", "demand-weighted"}},
		{"alternating prefetch faults prom", "alternating_prefetch_faults_prom.golden",
			[]string{"-synthetic", "alternating", "-prefetch", "-fault-rate", "0.001", "-fault-seed", "3",
				"-metrics", "-", "-metrics-format", "prom"}},
		{"alternating prefetch faults csv", "alternating_prefetch_faults_csv.golden",
			[]string{"-synthetic", "alternating", "-prefetch", "-fault-rate", "0.001", "-fault-seed", "3",
				"-metrics", "-", "-metrics-format", "csv"}},
		{"saxpy full-reconfig metrics", "saxpy_full_reconfig_metrics.golden",
			[]string{"-kernel", "saxpy", "-policy", "full-reconfig", "-metrics", "-"}},
		{"saxpy 2-core metrics", "saxpy_cores2_metrics.golden",
			[]string{"-kernel", "saxpy", "-cores", "2", "-metrics", "-"}},
		{"alternating prefetch faults spans chrome", "alternating_prefetch_faults_spans_chrome.golden",
			append(everyEventRun(), "-trace-spans", "-")},
		{"alternating prefetch faults spans jsonl", "alternating_prefetch_faults_spans_jsonl.golden",
			append(everyEventRun(), "-trace-spans", "-", "-trace-spans-format", "jsonl")},
		{"alternating prefetch faults metrics jsonl", "alternating_prefetch_faults_metrics_jsonl.golden",
			append(everyEventRun(), "-metrics", "-")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := stripThroughput(stdout.String()); got != string(want) {
				t.Errorf("output differs from testdata/%s:\n%s", tc.golden, got)
			}
			if stderr.Len() > 0 {
				t.Errorf("unexpected stderr: %s", stderr.String())
			}
		})
	}
}

// everyEventRun is a run that emits every span category (reconfig,
// repair, speculation, phase, fault, trigger) and every telemetry
// record kind (sample, decision, fault, prefetch), so its exports pin
// the byte form of each record shape.
func everyEventRun() []string {
	return []string{"-synthetic", "alternating", "-policy", "prefetch",
		"-reconfig-latency", "32", "-fault-rate", "0.002"}
}

// TestFlightDumpPin compares a fault-storm flight dump, byte for byte,
// with a captured file: the envelope, the indentation and every entry
// row.
func TestFlightDumpPin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kernel", "saxpy", "-fault-rate", "0.01", "-flight-dump", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if want := "flight recorder: fault-storm trigger, ring dumped to " + path + "\n"; stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "saxpy_flight_dump.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flight dump differs from testdata/saxpy_flight_dump.golden:\n%s", got)
	}
}

func stripThroughput(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "throughput:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestRunInvalidSpec pins the exit status and stderr of bad specs. The
// policy name fails as it always did; a bad spec field fails with the
// Options.Validate message rssd and rssbench report too.
func TestRunInvalidSpec(t *testing.T) {
	policyErr, err := os.ReadFile(filepath.Join("testdata", "bad_policy.stderr.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-kernel", "saxpy", "-policy", "nope"}, string(policyErr)},
		{[]string{"-kernel", "saxpy", "-window", "-1"},
			"rsssim: invalid machine parameters: WindowSize must be non-negative, got -1\n"},
		{[]string{"-kernel", "saxpy", "-window", "65"},
			"rsssim: invalid machine parameters: WindowSize must be at most 64, got 65\n"},
		{[]string{"-kernel", "saxpy", "-fault-rate", "0.01", "-fault-scrub-interval", "0"},
			"rsssim: invalid machine parameters: fault rates are set but FaultScrubInterval is 0 (want > 0)\n"},
		{[]string{"-kernel", "saxpy", "-cores", "9"},
			"rsssim: invalid machine parameters: Cores must be in [0, 8], got 9\n"},
		{[]string{"-kernel", "saxpy", "-max-cycles", "-1"},
			"rsssim: maxCycles must be non-negative, got -1: invalid machine parameters\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if stderr.String() != tc.stderr {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr.String(), tc.stderr)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: unexpected stdout %q", tc.args, stdout.String())
		}
	}
}

// TestMaxCyclesZeroIsDefaultBudget: -max-cycles 0 reads as the default
// budget, as a spec's maxCycles 0 does in rssd, so the run matches the
// pinned default-budget run at one core and at two.
func TestMaxCyclesZeroIsDefaultBudget(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"saxpy.golden", []string{"-kernel", "saxpy"}},
		{"saxpy_cores2_split.golden", []string{"-kernel", "saxpy", "-cores", "2", "-cluster-mode", "split", "-cluster-arbiter", "demand-weighted"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.args, "-max-cycles", "0"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := stripThroughput(stdout.String()); got != string(want) {
			t.Errorf("%v -max-cycles 0 differs from testdata/%s:\n%s", tc.args, tc.golden, got)
		}
	}
}

// TestRunClusterJSON checks -json with -cores prints the cluster
// report: the aggregate block plus one scalar report per core.
func TestRunClusterJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kernel", "saxpy", "-cores", "2", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var rep struct {
		Cluster struct {
			Cores        int     `json:"cores"`
			AggregateIPC float64 `json:"aggregateIPC"`
		} `json:"cluster"`
		Cores []struct {
			IPC float64 `json:"ipc"`
		} `json:"cores"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("decoding %s: %v", stdout.String(), err)
	}
	if rep.Cluster.Cores != 2 || len(rep.Cores) != 2 || rep.Cluster.AggregateIPC <= 0 {
		t.Errorf("cluster report = %+v", rep)
	}
}
