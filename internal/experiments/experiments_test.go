package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/cpu"
	"repro/internal/workload"
)

func TestTable1ContainsAllConfigurations(t *testing.T) {
	out := Table1()
	for _, want := range []string{"FFUs", "Config 0 (current)", "Config 1 (integer)",
		"Config 2 (memory)", "Config 3 (floating)", "continuation", "IntMDU"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestFig1ListsModules(t *testing.T) {
	out := Fig1()
	for _, want := range []string{"trace cache", "register update unit", "8 slots", "Config 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestFig2TracesAllStages(t *testing.T) {
	out := Fig2()
	for _, want := range []string{"stage 1", "stage 2", "stage 3", "stage 4", "floating", "current"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3ReportsNoMismatches(t *testing.T) {
	out := Fig3()
	if !strings.Contains(out, "0/64 per-type mismatches") {
		t.Errorf("Fig3 circuit equivalence failed:\n%s", out)
	}
	if !strings.Contains(out, "divisor") {
		t.Error("Fig3 missing shifter-control table")
	}
}

func TestFig5SchedulesEveryInstruction(t *testing.T) {
	out := Fig5()
	for _, label := range []string{"Shift", "Sub", "Add", "Mul", "Load", "FPMul", "FPAdd"} {
		if !strings.Contains(out, label) {
			t.Errorf("Fig5 missing instruction %q", label)
		}
	}
	if !strings.Contains(out, "grant") {
		t.Error("Fig5 missing grant schedule")
	}
	// The paper's explicit fact: the Multiply depends on the Subtract.
	if !strings.Contains(out, "Mul    (entry 4, IntMDU): depends on Sub") {
		t.Errorf("Fig5 dependency line wrong:\n%s", out)
	}
}

func TestFig7ReportsNoMismatches(t *testing.T) {
	out := Fig7()
	if !strings.Contains(out, "0/80 mismatches") {
		t.Errorf("Fig7 circuit equivalence failed:\n%s", out)
	}
}

// TestX1ShapeHolds checks the headline comparative claims rather than
// absolute numbers: steering beats the FFU-only machine on every
// synthetic workload and is never worse than the worst static
// configuration on the phased workload.
func TestX1ShapeHolds(t *testing.T) {
	params := cpu.DefaultParams()
	prog := PhasedWorkload(7)
	steering := ipcOf(prog, params, cpu.PolicySteering)
	ffuOnly := ipcOf(prog, params, cpu.PolicyNone)
	if steering <= ffuOnly {
		t.Errorf("steering %.3f <= ffu-only %.3f on phased workload", steering, ffuOnly)
	}
	worstStatic := steering
	for _, pol := range []cpu.Policy{cpu.PolicyStaticInteger, cpu.PolicyStaticMemory, cpu.PolicyStaticFloating} {
		if v := ipcOf(prog, params, pol); v < worstStatic {
			worstStatic = v
		}
	}
	if steering < worstStatic {
		t.Errorf("steering %.3f below worst static %.3f", steering, worstStatic)
	}
	oracle := ipcOf(prog, params, cpu.PolicyOracle)
	if oracle < steering*0.8 {
		t.Errorf("oracle %.3f unexpectedly far below steering %.3f", oracle, steering)
	}
}

// TestX2LatencyMonotoneShape: steering IPC must not improve as
// reconfiguration gets more expensive, and at extreme latency it should
// approach a static machine's behaviour (within noise).
func TestX2LatencyShape(t *testing.T) {
	prog := PhasedWorkload(7)
	var prev float64 = -1
	for _, lat := range []int{1, 8, 64, 256} {
		params := cpu.DefaultParams()
		params.ReconfigLatency = lat
		ipc := ipcOf(prog, params, cpu.PolicySteering)
		if ipc < 0 {
			t.Fatalf("latency %d DNF", lat)
		}
		if prev >= 0 && ipc > prev*1.05 { // allow 5% noise
			t.Errorf("IPC rose from %.3f to %.3f as latency grew to %d", prev, ipc, lat)
		}
		prev = ipc
	}
}

func TestX3AgreementHigh(t *testing.T) {
	out := X3()
	if !strings.Contains(out, "selection agreement") {
		t.Fatalf("X3 output malformed:\n%s", out)
	}
	// The approximation should agree with the exact divider on a large
	// majority of demand vectors (spot value pinned loosely).
	if strings.Contains(out, "(0.0%)") {
		t.Error("approximate CEM never agreed with exact divider")
	}
}

func TestX4StarvationReported(t *testing.T) {
	out := X4()
	if !strings.Contains(out, "starved") {
		t.Errorf("X4 did not show starvation without FFUs:\n%s", out)
	}
	if !strings.Contains(out, "completed") {
		t.Errorf("X4 shows no completing machine:\n%s", out)
	}
}

func TestX5WindowSweepRuns(t *testing.T) {
	out := X5()
	if strings.Contains(out, "DNF") {
		t.Errorf("X5 had DNF rows:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines < 9 {
		t.Errorf("X5 too short:\n%s", out)
	}
}

func TestX6BasisStudyRuns(t *testing.T) {
	out := X6()
	for _, want := range []string{"default", "all-integer", "balanced", "fp-rich"} {
		if !strings.Contains(out, want) {
			t.Errorf("X6 missing basis %q", want)
		}
	}
	if strings.Contains(out, "DNF") {
		t.Errorf("X6 had DNF rows:\n%s", out)
	}
}

// TestArtifactsDeterministic: every fast artefact renders identically on
// repeated runs — the property EXPERIMENTS.md's "your numbers will match"
// statement relies on.
func TestArtifactsDeterministic(t *testing.T) {
	for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig5", "fig7", "cost"} {
		f := Artifacts()[name]
		if f == nil {
			t.Fatalf("artifact %q missing", name)
		}
		if f() != f() {
			t.Errorf("artifact %q is not deterministic", name)
		}
	}
}

func TestCostTableListsEveryCircuit(t *testing.T) {
	out := CostTable()
	for _, want := range []string{"CEM generator", "selection unit", "wake-up row",
		"availability circuit", "depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost table missing %q", want)
		}
	}
}

// TestCostTableGolden pins the hardware-cost table byte for byte: every
// circuit's inputs, gate counts by kind, two-input equivalent and depth.
// The table is derived from the same circuit descriptions the
// equivalence tests evaluate, so a change to any of them shows here.
// Regenerate testdata/cost_table.golden (-update) only for a deliberate
// change to a circuit.
func TestCostTableGolden(t *testing.T) {
	got := CostTable()
	path := filepath.Join("testdata", "cost_table.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("cost table differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestArtifactsRegistryComplete(t *testing.T) {
	arts := Artifacts()
	for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "cost", "x1", "x1seeds", "x2", "x3", "x4", "x5", "x6",
		"x7", "x8", "x9", "x10", "x11", "x12", "x13", "x14", "x15", "x16", "x17",
		"x18", "x19", "x20", "x21", "x22", "x23", "all"} {
		if arts[name] == nil {
			t.Errorf("artifact %q missing", name)
		}
	}
}

// TestX18TelemetryComparison: the telemetry-backed policy comparison
// must produce a row per policy, log steering decisions for the
// selection-family policies, and none for the static ones.
func TestX18TelemetryComparison(t *testing.T) {
	out := X18()
	for _, policy := range []string{"steering", "demand", "full-reconfig", "oracle", "random", "static-int", "ffu-only"} {
		if !strings.Contains(out, policy) {
			t.Errorf("X18 output missing policy row %q", policy)
		}
	}
	if !strings.Contains(out, "stall slot-cycles") {
		t.Error("X18 output missing the decision-log stall column")
	}
}

// TestX19FaultSweep: every (policy, rate) point must complete — faults
// degrade throughput, never deadlock the machine — and the zero-rate
// rows must report a clean fault pipeline.
func TestX19FaultSweep(t *testing.T) {
	out := X19()
	if strings.Contains(out, "DNF") {
		t.Errorf("a fault-sweep point did not finish:\n%s", out)
	}
	for _, policy := range []string{"steering", "demand", "full-reconfig", "static-int"} {
		if !strings.Contains(out, policy) {
			t.Errorf("X19 output missing policy rows for %q", policy)
		}
	}
	for _, col := range []string{"injected", "repaired", "dead slots", "masked slot-cycles %"} {
		if !strings.Contains(out, col) {
			t.Errorf("X19 output missing column %q", col)
		}
	}
}

// TestX8TimelineTracksPhases: during the fp phase of the phased workload
// the fabric must at some point hold the floating configuration, and
// during the mem phase the memory configuration — adaptation in action.
func TestX8TimelineTracksPhases(t *testing.T) {
	out := X8()
	if !strings.Contains(out, "floating") {
		t.Error("timeline never reached the floating configuration during fp phases")
	}
	if !strings.Contains(out, "memory") {
		t.Error("timeline never reached the memory configuration during the mem phase")
	}
	if !strings.Contains(out, "hybrid") {
		t.Error("timeline shows no hybrid states despite partial reconfiguration")
	}
}

// TestX9SelectFreeShape: select-free scheduling must never beat the
// idealised select stage, and pileups must appear on the wide machine.
func TestX9SelectFreeShape(t *testing.T) {
	out := X9()
	if !strings.Contains(out, "pileups") {
		t.Fatalf("X9 malformed:\n%s", out)
	}
	if strings.Contains(out, "-") && strings.Contains(out, "slowdown  -") {
		t.Errorf("X9 has malformed slowdown cells:\n%s", out)
	}
	if !strings.Contains(out, "issue width 4") || !strings.Contains(out, "issue width 1") {
		t.Errorf("X9 missing a width table:\n%s", out)
	}
}

// TestX1FullGridClean runs the entire X1 grid — every workload and
// kernel under every policy — and requires zero DNF (cycle-budget
// exhaustion) and zero WRONG (kernel validation failure) cells. This is
// the broadest single regression gate in the repo.
func TestX1FullGridClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is ~180 simulations")
	}
	out := X1()
	if strings.Contains(out, "DNF") {
		t.Errorf("X1 grid contains DNF cells:\n%s", out)
	}
	if strings.Contains(out, "WRONG") {
		t.Errorf("X1 grid contains WRONG cells:\n%s", out)
	}
	for _, k := range workload.Kernels() {
		if !strings.Contains(out, k.Name) {
			t.Errorf("X1 kernel table missing %q", k.Name)
		}
	}
}

// TestStudyOutputsWellFormed smoke-runs every remaining study end to end
// and checks the rendered tables have their expected rows and no DNFs.
func TestStudyOutputsWellFormed(t *testing.T) {
	cases := []struct {
		name string
		f    func() string
		want []string
	}{
		{"x2", X2, []string{"256", "latency"}},
		{"x12", X12, []string{"width", "32"}},
		{"x13", X13, []string{"trace cache", "1024"}},
		{"x15", X15, []string{"oldest-first", "youngest-first"}},
		{"x16", X16, []string{"bimodal", "gshare-8"}},
		{"x17", X17, []string{"unlimited", "bus width"}},
		{"x1seeds", X1Seeds, []string{"geomean", "10/10"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			out := c.f()
			if strings.Contains(out, "DNF") {
				t.Errorf("%s contains DNF rows:\n%s", c.name, out)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("%s missing %q", c.name, w)
				}
			}
		})
	}
}

// TestX14SteeringRemovesUnitBoundCycles pins the mechanism measurement:
// steering must leave a far smaller unit-bound fraction than the
// FFU-only machine, and every cycle must land in exactly one bucket.
func TestX14SteeringRemovesUnitBoundCycles(t *testing.T) {
	prog := PhasedWorkload(7)
	run := func(pol cpu.Policy) cpu.Stats {
		st, err := buildMachine(prog, cpu.DefaultParams(), pol).Run(MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		total := st.CyclesIssued + st.CyclesFrontend + st.CyclesUnits + st.CyclesDeps
		if total != st.Cycles {
			t.Fatalf("%s: bucket sum %d != cycles %d", pol, total, st.Cycles)
		}
		return st
	}
	steer := run(cpu.PolicySteering)
	ffu := run(cpu.PolicyNone)
	steerUnitFrac := float64(steer.CyclesUnits) / float64(steer.Cycles)
	ffuUnitFrac := float64(ffu.CyclesUnits) / float64(ffu.Cycles)
	if steerUnitFrac > ffuUnitFrac/2 {
		t.Errorf("steering unit-bound fraction %.3f not well below ffu-only %.3f",
			steerUnitFrac, ffuUnitFrac)
	}
}

// TestX12WidthMonotone: IPC must not fall as the machine widens at a
// fixed window, nor as the window deepens at a fixed width.
func TestX12WidthMonotone(t *testing.T) {
	prog := PhasedWorkload(7)
	ipcAt := func(width, window int) float64 {
		params := cpu.DefaultParams()
		params.DispatchWidth = width
		params.IssueWidth = width
		params.RetireWidth = width
		params.FetchWidthMem = width
		params.FetchWidthTC = width * 2
		params.WindowSize = window
		return ipcOf(prog, params, cpu.PolicySteering)
	}
	if a, b := ipcAt(1, 16), ipcAt(4, 16); b < a*0.98 {
		t.Errorf("widening 1->4 lowered IPC: %.3f -> %.3f", a, b)
	}
	if a, b := ipcAt(4, 7), ipcAt(4, 32); b < a*0.98 {
		t.Errorf("deepening 7->32 lowered IPC: %.3f -> %.3f", a, b)
	}
}

// TestX13TraceCacheHelpsTightLoops: the trace cache's fetch widening must
// clearly help the fib kernel (a tiny loop fully resident in a line).
func TestX13TraceCacheHelpsTightLoops(t *testing.T) {
	k := workload.KernelByName("fib")
	run := func(tcWidth int) float64 {
		params := cpu.DefaultParams()
		params.FetchWidthTC = tcWidth
		st, err := buildMachine(k.Program(), params, cpu.PolicySteering).Run(MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		return st.IPC()
	}
	if with, without := run(4), run(2); with < without*1.1 {
		t.Errorf("trace cache widening did not help fib: %.3f vs %.3f", with, without)
	}
}

// TestX10LookaheadFixesSaxpy pins the headline X10 result: the fetch-fed
// demand view must substantially improve the churn-prone saxpy kernel.
func TestX10LookaheadFixesSaxpy(t *testing.T) {
	k := workload.KernelByName("saxpy")
	run := func(lookahead bool) float64 {
		params := cpu.DefaultParams()
		params.ManagerLookahead = lookahead
		m := buildMachine(k.Program(), params, cpu.PolicySteering)
		k.Setup(m.Processor().Memory(), m.SetReg)
		st, err := m.Run(MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Validate(m.Reg, m.Processor().Memory()); err != nil {
			t.Fatal(err)
		}
		return st.IPC()
	}
	queueView, lookahead := run(false), run(true)
	if lookahead < queueView*1.2 {
		t.Errorf("lookahead %.3f did not clearly beat queue view %.3f on saxpy", lookahead, queueView)
	}
}

// TestX11ResidencyFixesSaxpy pins the X11 result: a small residency timer
// recovers the churn loss without hurting correctness.
func TestX11ResidencyFixesSaxpy(t *testing.T) {
	k := workload.KernelByName("saxpy")
	run := func(res int) (float64, int) {
		m := repro.NewMachine(k.Program(), repro.Options{Params: cpu.DefaultParams(), MinResidency: res})
		k.Setup(m.Processor().Memory(), m.SetReg)
		st, err := m.Run(MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Validate(m.Reg, m.Processor().Memory()); err != nil {
			t.Fatal(err)
		}
		return st.IPC(), m.Reconfigurations()
	}
	base, baseReconfigs := run(0)
	damped, dampedReconfigs := run(4)
	if damped < base*1.2 {
		t.Errorf("residency timer IPC %.3f did not clearly beat baseline %.3f", damped, base)
	}
	if dampedReconfigs >= baseReconfigs/5 {
		t.Errorf("residency timer reconfigs %d not well below baseline %d", dampedReconfigs, baseReconfigs)
	}
}

// TestX7DemandDrivenShape: demand-driven synthesis must clearly beat the
// FFU-only machine (it is a working manager) while generating more
// reconfiguration traffic than basis steering (no basis to settle into).
func TestX7DemandDrivenShape(t *testing.T) {
	prog := PhasedWorkload(7)
	params := cpu.DefaultParams()
	demand := ipcOf(prog, params, cpu.PolicyDemand)
	ffuOnly := ipcOf(prog, params, cpu.PolicyNone)
	if demand <= ffuOnly {
		t.Errorf("demand-driven %.3f not above ffu-only %.3f", demand, ffuOnly)
	}
	steering := ipcOf(prog, params, cpu.PolicySteering)
	if demand < steering*0.8 {
		t.Errorf("demand-driven %.3f unexpectedly far below steering %.3f", demand, steering)
	}
}

func TestX21ModelErrorWithinBound(t *testing.T) {
	// The documented accuracy envelope of the analytic queueing model:
	// every X21 scenario within ±25% of the simulator under both
	// adaptive policies, mean absolute error under 12%. This runs the
	// simulator live, so a calibration or profiler regression fails
	// here rather than silently drifting the published table.
	var sum float64
	var n int
	for _, sc := range x21Scenarios() {
		for _, pol := range []cpu.Policy{cpu.PolicySteering, cpu.PolicyPrefetch} {
			sim := x21Sim(sc, pol)
			model := x21Model(sc, pol)
			if sim <= 0 {
				t.Fatalf("%s/%v: simulator IPC %v", sc.name, pol, sim)
			}
			err := math.Abs(model-sim) / sim
			sum += err
			n++
			if err > 0.25 {
				t.Errorf("%s/%v: model IPC %.3f vs sim %.3f — |error| %.1f%% exceeds 25%%",
					sc.name, pol, model, sim, err*100)
			}
		}
	}
	if mean := sum / float64(n); mean > 0.12 {
		t.Errorf("mean |error| %.1f%% over %d points exceeds 12%%", mean*100, n)
	}
}

// TestX22ClusterScalingShape: every cluster point must finish, both
// arbiters and all three bus widths must appear, and the K=1 rows must
// be identical across arbiters — a single core leaves the arbiter
// nothing to decide, so any divergence is a cluster-layer bug.
func TestX22ClusterScalingShape(t *testing.T) {
	out := X22()
	if strings.Contains(out, "DNF") {
		t.Errorf("an X22 cluster point did not finish:\n%s", out)
	}
	for _, want := range []string{"round-robin", "demand-weighted", "unlimited", "bus width"} {
		if !strings.Contains(out, want) {
			t.Errorf("X22 output missing %q", want)
		}
	}
	k1rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		// A data row is "<cores> <bus> <ipc> (<fair>) <ipc> (<fair>)".
		if len(f) != 6 || f[0] != "1" {
			continue
		}
		k1rows++
		if f[2] != f[4] || f[3] != f[5] {
			t.Errorf("K=1 row differs across arbiters: %q", line)
		}
	}
	if k1rows != 3 {
		t.Errorf("expected 3 K=1 rows (one per bus width), found %d:\n%s", k1rows, out)
	}
}

// TestX23ModeFaultSweepShape: both modes must finish every fault rate,
// the zero-rate rows must report a clean fault pipeline, and the
// faulted rows must show injections.
func TestX23ModeFaultSweepShape(t *testing.T) {
	out := X23()
	if strings.Contains(out, "DNF") {
		t.Errorf("an X23 point did not finish:\n%s", out)
	}
	for _, want := range []string{"merged", "split", "injected", "repaired", "dead slots", "off"} {
		if !strings.Contains(out, want) {
			t.Errorf("X23 output missing %q", want)
		}
	}
}
