// Tests for the multi-core reconfigurable cluster (ARCHITECTURE.md
// §17): K=1 bit-identity with the scalar machine, the arbiter's
// no-double-lease safety property under randomized multi-core request
// streams, allocation-vector structural validity every cycle, per-core
// telemetry labelling against the schema goldens, zero-allocation
// steady-state stepping, and the 2-core throughput benchmark.
package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/span"
	"repro/internal/workload"
)

// clusterPhased builds a phase-changing synthetic workload; distinct
// seeds give sibling cores genuinely different demand streams.
func clusterPhased(seed int64) repro.Program {
	return workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
		{Mix: workload.MixMemHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: seed})
}

// scalarRun executes prog on the plain scalar machine and returns its
// stats, report and telemetry JSONL stream.
func scalarRun(t *testing.T, prog repro.Program, opt repro.Options, setup *workload.Kernel) (repro.Stats, string, []byte) {
	t.Helper()
	m := repro.NewMachine(prog, opt)
	if setup != nil && setup.Setup != nil {
		setup.Setup(m.Processor().Memory(), m.Processor().SetReg)
	}
	var buf bytes.Buffer
	if _, err := m.EnableTelemetry(&buf, "jsonl", 50); err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return stats, m.Report().String(), buf.Bytes()
}

// clusterRun executes prog on a K=1 cluster and returns the same view.
func clusterRun(t *testing.T, prog repro.Program, opt repro.Options, setup *workload.Kernel) (repro.Stats, string, []byte) {
	t.Helper()
	c := cluster.New(prog, opt)
	if setup != nil && setup.Setup != nil {
		p := c.Core(0).Processor()
		setup.Setup(p.Memory(), p.SetReg)
	}
	var buf bytes.Buffer
	if err := c.EnableTelemetry(&buf, "jsonl", 50); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Cores) != 1 {
		t.Fatalf("K=1 cluster reported %d cores", len(stats.Cores))
	}
	if stats.Cycles != stats.Cores[0].Cycles {
		t.Errorf("cluster cycles %d != core cycles %d", stats.Cycles, stats.Cores[0].Cycles)
	}
	return stats.Cores[0], c.Core(0).Report().String(), buf.Bytes()
}

// TestClusterK1MatchesScalar pins the degenerate-cluster contract: a
// one-core cluster is bit-identical to the scalar machine — same final
// statistics, same human report, byte-identical telemetry JSONL — in
// both fabric-sharing modes, under both dynamic policies, with and
// without fault injection, across the kernel library and a phased
// synthetic workload.
func TestClusterK1MatchesScalar(t *testing.T) {
	type load struct {
		name   string
		prog   repro.Program
		kernel *workload.Kernel
	}
	loads := []load{{name: "phased", prog: clusterPhased(7)}}
	for _, name := range []string{"saxpy", "matmul", "memcpy", "vecmax", "histogram", "newton"} {
		k := workload.KernelByName(name)
		if k == nil {
			t.Fatalf("kernel %s missing", name)
		}
		loads = append(loads, load{name: name, prog: repro.Program(k.Program()), kernel: k})
	}
	for _, w := range loads {
		for _, policy := range []repro.Policy{repro.PolicySteering, repro.PolicyPrefetch} {
			for _, faults := range []bool{false, true} {
				for _, mode := range []string{"merged", "split"} {
					name := fmt.Sprintf("%s/%s/faults=%v/%s", w.name, policy, faults, mode)
					t.Run(name, func(t *testing.T) {
						params := repro.DefaultParams()
						if faults {
							params.FaultTransientRate = 0.001
							params.FaultPermanentRate = 0.0001
							params.FaultSeed = 1234
							params.FaultScrubInterval = 32
						}
						opt := repro.Options{Params: params, Policy: policy}
						sStats, sReport, sJSONL := scalarRun(t, w.prog, opt, w.kernel)
						opt.Params.Cores = 1
						opt.Params.ClusterMode = mode
						cStats, cReport, cJSONL := clusterRun(t, w.prog, opt, w.kernel)
						if !reflect.DeepEqual(sStats, cStats) {
							t.Errorf("stats diverge:\nscalar  %+v\ncluster %+v", sStats, cStats)
						}
						if sReport != cReport {
							t.Errorf("reports diverge:\n--- scalar\n%s--- cluster\n%s", sReport, cReport)
						}
						if !bytes.Equal(sJSONL, cJSONL) {
							t.Error("telemetry JSONL streams diverge between scalar and K=1 cluster")
						}
					})
				}
			}
		}
	}
}

// checkLeaseInvariants asserts the arbiter safety properties at one
// cluster cycle: the per-core lease masks are pairwise disjoint (no
// slot leased to two cores), they cover the whole fabric, and every
// core's allocation vector is structurally valid (unit heads followed
// by exactly their continuation slots).
func checkLeaseInvariants(t *testing.T, c *cluster.Machine, cycle int) {
	t.Helper()
	leases := c.Leases()
	var union, overlap uint8
	for _, m := range leases {
		overlap |= union & m
		union |= m
	}
	if overlap != 0 {
		t.Fatalf("cycle %d: slots %08b leased to two cores (leases %v)", cycle, overlap, leases)
	}
	if union != 1<<arch.NumRFUSlots-1 {
		t.Fatalf("cycle %d: leases %v do not cover the fabric", cycle, leases)
	}
	for k := 0; k < c.Cores(); k++ {
		alloc := c.Core(k).Processor().Fabric().Allocation()
		cfg := config.Configuration{Layout: alloc.Slots}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("cycle %d: core %d allocation vector invalid: %v (%v)", cycle, k, err, alloc)
		}
	}
}

// TestClusterNoDoubleLease drives K ∈ {2, 3, 4} clusters with
// heterogeneous workloads, fault injection (so repair traffic contends
// with demand and prefetch reconfiguration cross-core), both arbiter
// policies and randomized mode-switch requests, and asserts the lease
// safety invariants every cycle. CI runs this under -race as well.
func TestClusterNoDoubleLease(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, arb := range []string{"round-robin", "demand-weighted"} {
			t.Run(fmt.Sprintf("K=%d/%s", k, arb), func(t *testing.T) {
				params := repro.DefaultParams()
				params.Cores = k
				params.ClusterArbiter = arb
				params.FaultTransientRate = 0.002
				params.FaultPermanentRate = 0.0002
				params.FaultSeed = 42
				params.FaultScrubInterval = 32
				progs := make([]repro.Program, k)
				for i := range progs {
					progs[i] = clusterPhased(int64(100*k + i))
				}
				c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: repro.PolicySteering})
				rng := rand.New(rand.NewSource(int64(k)))
				for cycle := 0; cycle < 30_000 && !c.Halted(); cycle++ {
					if rng.Intn(500) == 0 {
						c.SetSwitchEvery(1 + rng.Intn(500))
					}
					c.Cycle()
					checkLeaseInvariants(t, c, cycle)
				}
				stats := c.Stats()
				total := 0
				for _, cs := range stats.Cores {
					total += cs.Retired
				}
				if total == 0 {
					t.Error("no instructions retired; the property test exercised nothing")
				}
			})
		}
	}
}

// TestClusterModeSwitchAndFairness checks the phase-boundary mode
// machinery end to end: a K=2 cluster with periodic auto-switching
// actually switches modes, both cores make progress, and the Jain
// fairness index is sane (in (0, 1]).
func TestClusterModeSwitchAndFairness(t *testing.T) {
	params := repro.DefaultParams()
	params.Cores = 2
	progs := []repro.Program{clusterPhased(11), clusterPhased(12)}
	c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: repro.PolicySteering})
	c.SetSwitchEvery(1000)
	stats, err := c.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModeSwitches == 0 {
		t.Error("periodic switching never applied a mode switch")
	}
	for k, cs := range stats.Cores {
		if cs.Retired == 0 {
			t.Errorf("core %d retired nothing", k)
		}
	}
	if f := stats.Fairness(); f <= 0 || f > 1 {
		t.Errorf("Jain fairness = %v, want (0, 1]", f)
	}
	if ipc := stats.AggregateIPC(); ipc <= 0 {
		t.Errorf("aggregate IPC = %v, want > 0", ipc)
	}
}

// TestClusterTelemetryRejectsBadInterval: a negative sampling interval
// is an error at every core count, the same error the scalar machine
// returns, and attaches nothing.
func TestClusterTelemetryRejectsBadInterval(t *testing.T) {
	for _, cores := range []int{1, 2} {
		params := repro.DefaultParams()
		params.Cores = cores
		c := cluster.New(clusterPhased(21), repro.Options{Params: params, Policy: repro.PolicySteering})
		var buf bytes.Buffer
		err := c.EnableTelemetry(&buf, "jsonl", -5)
		if err == nil || err.Error() != "repro: metrics interval must be positive, got -5" {
			t.Errorf("K=%d: EnableTelemetry(-5) = %v, want the metrics interval error", cores, err)
		}
		if _, err := c.Run(20_000_000); err != nil {
			t.Fatalf("K=%d: %v", cores, err)
		}
		if buf.Len() != 0 {
			t.Errorf("K=%d: rejected telemetry wrote %d bytes", cores, buf.Len())
		}
	}
}

// TestClusterTelemetryCoreLabels pins the per-core telemetry contract:
// a K=2 cluster's shared JSONL stream contains records from both cores,
// and every record matches the field schema pinned in
// testdata/telemetry_schema.golden (the cluster adds no out-of-schema
// fields — "core" is part of the pinned schema).
func TestClusterTelemetryCoreLabels(t *testing.T) {
	params := repro.DefaultParams()
	params.Cores = 2
	params.ClusterMode = "split"
	params.FaultTransientRate = 0.002
	params.FaultSeed = 5
	progs := []repro.Program{clusterPhased(21), clusterPhased(22)}
	c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: repro.PolicySteering})
	var buf bytes.Buffer
	if err := c.EnableTelemetry(&buf, "jsonl", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	goldenSchemas := loadGoldenSchemas(t, "testdata/telemetry_schema.golden")
	coresSeen := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		kind, _ := rec["record"].(string)
		core, ok := rec["core"].(float64)
		if !ok {
			t.Fatalf("%s record missing core label: %s", kind, line)
		}
		coresSeen[int(core)] = true
		want, ok := goldenSchemas[kind]
		if !ok {
			t.Fatalf("record kind %q not in the telemetry schema golden", kind)
		}
		if got := schemaOfRecord(rec); got != want {
			t.Fatalf("%s record schema drifted from golden:\ngot:\n%s\nwant:\n%s", kind, got, want)
		}
	}
	for k := 0; k < 2; k++ {
		if !coresSeen[k] {
			t.Errorf("no telemetry records labelled core %d", k)
		}
	}
}

// loadGoldenSchemas parses a schema golden file into kind -> "field:
// type" blocks.
func loadGoldenSchemas(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]string{}
	var kind string
	var sb strings.Builder
	flush := func() {
		if kind != "" {
			schemas[kind] = sb.String()
		}
		sb.Reset()
	}
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "#") || line == "":
		case strings.HasPrefix(line, "["):
			flush()
			kind = strings.Trim(line, "[]")
		default:
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	flush()
	return schemas
}

// schemaOfRecord mirrors golden_test.go's schemaOf: sorted "field:
// type" lines for one decoded JSON record.
func schemaOfRecord(rec map[string]any) string {
	fields := make([]string, 0, len(rec))
	for name := range rec {
		fields = append(fields, name)
	}
	sort.Strings(fields)
	var sb strings.Builder
	for _, name := range fields {
		ty := "any"
		switch vv := rec[name].(type) {
		case nil:
			ty = "null"
		case bool:
			ty = "bool"
		case string:
			ty = "string"
		case float64:
			ty = "number"
		case map[string]any:
			ty = "object"
		case []any:
			elem := "any"
			if len(vv) > 0 {
				if _, isNum := vv[0].(float64); isNum {
					elem = "number"
				}
			}
			ty = "array of " + elem
		}
		fmt.Fprintf(&sb, "%s: %s\n", name, ty)
	}
	return sb.String()
}

// TestClusterChromeTraceMulti checks the combined span export: a K=2
// cluster renders one Chrome Trace document with each core under its
// own process lane.
func TestClusterChromeTraceMulti(t *testing.T) {
	params := repro.DefaultParams()
	params.Cores = 2
	params.FaultTransientRate = 0.002
	params.FaultSeed = 9
	progs := []repro.Program{clusterPhased(31), clusterPhased(32)}
	c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: repro.PolicyPrefetch})
	c.EnableSpans(repro.SpanConfig{})
	if _, err := c.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			PID  int    `json:"pid"`
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	for _, want := range []int{1, 11} {
		if !pids[want] {
			t.Errorf("combined trace missing process lane pid=%d (got %v)", want, pids)
		}
	}
}

// TestRunFlushClosesPhaseSpans pins the end of a run, which
// repro.Machine.Flush owns at every core count: once a core has halted,
// its recorder closes the trailing workload phase, so each phase the
// predictor detected is one phase span; a run cut by its cycle budget
// leaves the last phase open for a resumed run.
func TestRunFlushClosesPhaseSpans(t *testing.T) {
	prog := repro.Synthesize(repro.AlternatingPhases(4000, 250), 7)
	phases := func(rec *span.Recorder) int {
		n := 0
		for _, e := range rec.Entries() {
			if e.Kind == span.KindPhase {
				n++
			}
		}
		return n
	}
	for _, k := range []int{1, 2} {
		params := repro.DefaultParams()
		params.Cores = k
		params.ClusterMode = "split"
		c := cluster.New(prog, repro.Options{Params: params, Policy: repro.PolicyPrefetch})
		recs := c.EnableSpans(repro.SpanConfig{})
		if _, err := c.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			want := c.Core(i).Report().Prefetch.PhaseChanges
			if got := phases(rec); want == 0 || got != want {
				t.Errorf("K=%d core %d: %d phase spans, want one per detected phase (%d)", k, i, got, want)
			}
		}
	}
	m := repro.NewMachine(prog, repro.Options{Policy: repro.PolicyPrefetch})
	rec := m.EnableSpans(repro.SpanConfig{})
	if _, err := m.Run(2000); !errors.Is(err, repro.ErrCycleLimit) {
		t.Fatalf("cut run: err = %v, want the cycle limit", err)
	}
	want := m.Report().Prefetch.PhaseChanges - 1
	if got := phases(rec); want < 1 || got != want {
		t.Errorf("cut run: %d phase spans, want all but the open one (%d)", got, want)
	}
}

// TestZeroAllocClusterCycle pins the cluster stepping fast path: with
// K=4 cores in each mode (faults armed, so cross-core repair
// arbitration runs too), a steady-state Cycle must not allocate.
func TestZeroAllocClusterCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"merged", "split"} {
		t.Run(mode, func(t *testing.T) {
			params := repro.DefaultParams()
			params.Cores = 4
			params.ClusterMode = mode
			params.ClusterArbiter = "demand-weighted"
			params.FaultTransientRate = 0.001
			params.FaultSeed = 9
			c := cluster.New(repro.Program(prog), repro.Options{Params: params, Policy: repro.PolicySteering})
			for i := 0; i < 50_000 && !c.Halted(); i++ {
				c.Cycle()
			}
			if c.Halted() {
				t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
			}
			requireZeroAllocs(t, "steady-state cluster Cycle ("+mode+", K=4)", 2000, c.Cycle)
		})
	}
}

// BenchmarkCluster2Core measures the 2-core cluster's stepping
// throughput in each fabric-sharing mode, reporting aggregate IPC and
// simulated Mcycles/s. CI's benchdiff gate requires both variants.
func BenchmarkCluster2Core(b *testing.B) {
	progs := []repro.Program{clusterPhased(41), clusterPhased(42)}
	for _, mode := range []string{"merged", "split"} {
		b.Run(mode, func(b *testing.B) {
			params := repro.DefaultParams()
			params.Cores = 2
			params.ClusterMode = mode
			var last cluster.Stats
			totalCycles := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: repro.PolicySteering})
				st, err := c.Run(20_000_000)
				if err != nil {
					b.Fatal(err)
				}
				last = st
				totalCycles += st.Cycles * 2
			}
			b.ReportMetric(last.AggregateIPC(), "IPC")
			b.ReportMetric(float64(totalCycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
		})
	}
}
