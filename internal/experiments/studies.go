package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/cem"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/queue"
	"repro/internal/rfu"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MaxCycles bounds every study run; exceeding it is reported as DNF.
const MaxCycles = 20_000_000

// Policies enumerated by the comparison studies.
var studyPolicies = []cpu.Policy{
	cpu.PolicySteering, cpu.PolicyDemand, cpu.PolicyStaticInteger,
	cpu.PolicyStaticMemory, cpu.PolicyStaticFloating, cpu.PolicyNone,
	cpu.PolicyFullReconfig, cpu.PolicyOracle, cpu.PolicyRandom,
}

// policyColumns renders policies as table column headers.
func policyColumns(ps []cpu.Policy) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// buildMachine constructs a processor under the typed policy through
// the facade, with the studies' two fixed settings: the oracle runs at
// ReconfigLatency 1 and the random policy draws from seed 1.
func buildMachine(prog isa.Program, params cpu.Params, policy cpu.Policy) *cpu.Processor {
	if policy == cpu.PolicyOracle {
		params.ReconfigLatency = 1
	}
	return repro.NewMachine(prog, repro.Options{Policy: policy, Params: params, Seed: 1}).Processor()
}

// ipcOf runs prog under the policy and returns its IPC, or -1 on DNF.
func ipcOf(prog isa.Program, params cpu.Params, policy cpu.Policy) float64 {
	p := buildMachine(prog, params, policy)
	st, err := p.Run(MaxCycles)
	if err != nil {
		return -1
	}
	return st.IPC()
}

// fmtIPC renders an IPC cell, marking runs that did not finish.
func fmtIPC(v float64) string {
	if v < 0 {
		return "DNF"
	}
	return fmt.Sprintf("%.3f", v)
}

// PhasedWorkload is the standard synthetic program of the studies:
// alternating integer, floating-point, memory and multiply/divide phases.
func PhasedWorkload(seed int64) isa.Program {
	return workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 800},
		{Mix: workload.MixFPHeavy, Instructions: 800},
		{Mix: workload.MixMemHeavy, Instructions: 800},
		{Mix: workload.MixMDUHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 800},
	}, workload.SynthParams{Seed: seed})
}

// X1 compares steering against every baseline across the phased synthetic
// workload, single-mix workloads and the kernel library.
func X1() string {
	var b strings.Builder
	b.WriteString("X1 — IPC: steering vs baselines\n\n")
	params := cpu.DefaultParams()

	// Synthetic workloads.
	synth := stats.NewTable("Synthetic workloads (IPC; higher is better)",
		append([]string{"workload"}, policyColumns(studyPolicies)...)...)
	workloads := []struct {
		name string
		prog isa.Program
	}{
		{"phased (int/fp/mem/mdu/fp)", PhasedWorkload(7)},
		{"int-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixIntHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 8})},
		{"fp-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixFPHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 9})},
		{"mem-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixMemHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 10})},
		{"uniform", workload.Synthesize([]workload.Phase{{Mix: workload.MixUniform, Instructions: 2500}}, workload.SynthParams{Seed: 11})},
	}
	// The grid's cells are independent simulations; sweep them in
	// parallel, rows and columns staying in deterministic order.
	synthGrid := sweep.Grid(len(workloads), len(studyPolicies), 0, func(row, col int) string {
		return fmtIPC(ipcOf(workloads[row].prog, params, studyPolicies[col]))
	})
	for i, w := range workloads {
		cells := []interface{}{w.name}
		for _, cell := range synthGrid[i] {
			cells = append(cells, cell)
		}
		synth.AddRow(cells...)
	}
	b.WriteString(synth.String() + "\n")

	// Kernels.
	kt := stats.NewTable("Kernel library (IPC)", append([]string{"kernel"}, policyColumns(studyPolicies)...)...)
	kernels := workload.Kernels()
	kernelGrid := sweep.Grid(len(kernels), len(studyPolicies), 0, func(row, col int) string {
		k := kernels[row]
		p := buildMachine(k.Program(), params, studyPolicies[col])
		if k.Setup != nil {
			k.Setup(p.Memory(), p.SetReg)
		}
		st, err := p.Run(MaxCycles)
		if err != nil {
			return "DNF"
		}
		if k.Validate != nil {
			if err := k.Validate(p.Reg, p.Memory()); err != nil {
				return "WRONG"
			}
		}
		return fmtIPC(st.IPC())
	})
	for i, k := range kernels {
		cells := []interface{}{k.Name}
		for _, cell := range kernelGrid[i] {
			cells = append(cells, cell)
		}
		kt.AddRow(cells...)
	}
	b.WriteString(kt.String())
	return b.String()
}

// X1Seeds re-runs the phased-workload comparison across many generator
// seeds, reporting the distribution — the robustness check that the X1
// headline is not a single-seed artefact.
func X1Seeds() string {
	var b strings.Builder
	b.WriteString("X1-seeds — steering vs best static across 10 phased-workload seeds\n\n")
	params := cpu.DefaultParams()
	const n = 10

	type row struct {
		steering, bestStatic, ffuOnly float64
	}
	rows := sweep.Run(n, 0, func(i int) row {
		prog := PhasedWorkload(int64(100 + i))
		best := 0.0
		for _, pol := range []cpu.Policy{cpu.PolicyStaticInteger, cpu.PolicyStaticMemory, cpu.PolicyStaticFloating} {
			if v := ipcOf(prog, params, pol); v > best {
				best = v
			}
		}
		return row{
			steering:   ipcOf(prog, params, cpu.PolicySteering),
			bestStatic: best,
			ffuOnly:    ipcOf(prog, params, cpu.PolicyNone),
		}
	})

	t := stats.NewTable("per-seed IPC", "seed", cpu.PolicySteering.String(), "best static", cpu.PolicyNone.String(), "steering/best-static")
	var speedups stats.Series
	wins := 0
	for i, r := range rows {
		t.AddRow(100+i, r.steering, r.bestStatic, r.ffuOnly, stats.Ratio(r.steering, r.bestStatic))
		speedups.Add(r.steering / r.bestStatic)
		if r.steering > r.bestStatic {
			wins++
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nsteering beats the best static configuration on %d/%d seeds;\n", wins, n)
	fmt.Fprintf(&b, "speedup over best static: geomean %.3fx, min %.3fx, max %.3fx\n",
		speedups.GeoMean(), speedups.Min(), speedups.Max())
	return b.String()
}

// X2 sweeps the per-span reconfiguration latency, contrasting partial
// (steering) with whole-fabric (full-reconfig) loading.
func X2() string {
	prog := PhasedWorkload(7)
	t := stats.NewTable("X2 — IPC vs reconfiguration latency (phased workload)",
		"latency (cycles/span)", cpu.PolicySteering.String(), cpu.PolicyFullReconfig.String(), "static-int (ref)")
	staticRef := ipcOf(prog, cpu.DefaultParams(), cpu.PolicyStaticInteger)
	for _, lat := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		params := cpu.DefaultParams()
		params.ReconfigLatency = lat
		t.AddRow(lat,
			fmtIPC(ipcOf(prog, params, cpu.PolicySteering)),
			fmtIPC(ipcOf(prog, params, cpu.PolicyFullReconfig)),
			fmtIPC(staticRef))
	}
	return t.String()
}

// X3 measures how often the shifter-approximate CEM selects differently
// from the exact divider, and what that costs in IPC.
func X3() string {
	var b strings.Builder
	b.WriteString("X3 — approximate (barrel shifter) vs exact divider CEM\n\n")

	// Selection agreement over all demand vectors with <= 7 total.
	agree, total := 0, 0
	basis := config.DefaultBasis()
	ffu := config.FFUCounts()
	var walk func(t int, left int, req arch.Counts)
	var disagreeExamples []string
	walk = func(ti, left int, req arch.Counts) {
		if ti == arch.NumUnitTypes {
			total++
			var errA, errX [arch.NumConfigs]int
			var dist [arch.NumConfigs]int
			// Distances on a fresh fabric are the full layouts.
			fresh := config.NewAllocationVector()
			errA[0] = cem.Error(req, ffu)
			errX[0] = cem.ErrorExact(req, ffu)
			for i, cfg := range basis {
				av := cfg.Counts().Add(ffu)
				errA[i+1] = cem.Error(req, av)
				errX[i+1] = cem.ErrorExact(req, av)
				dist[i+1] = fresh.Distance(cfg)
			}
			a := core.MinimalErrorSelect(errA, dist)
			x := core.MinimalErrorSelect(errX, dist)
			if a == x {
				agree++
			} else if len(disagreeExamples) < 5 {
				disagreeExamples = append(disagreeExamples,
					fmt.Sprintf("  req=%v approx->%d exact->%d", req, a, x))
			}
			return
		}
		for n := 0; n <= left; n++ {
			req[ti] = n
			walk(ti+1, left-n, req)
		}
	}
	walk(0, arch.QueueSize, arch.Counts{})
	fmt.Fprintf(&b, "selection agreement over all %d legal demand vectors: %d (%.1f%%)\n",
		total, agree, 100*float64(agree)/float64(total))
	if len(disagreeExamples) > 0 {
		b.WriteString("example disagreements:\n" + strings.Join(disagreeExamples, "\n") + "\n")
	}

	// End-to-end IPC cost.
	prog := PhasedWorkload(7)
	params := cpu.DefaultParams()
	run := func(exact bool) float64 {
		p := cpu.New(prog, params, nil)
		m := core.NewManager(p.Fabric(), config.DefaultBasis())
		m.ExactCEM = exact
		p.SetManager(&baseline.Steering{M: m})
		st, err := p.Run(MaxCycles)
		if err != nil {
			return -1
		}
		return st.IPC()
	}
	a, x := run(false), run(true)
	fmt.Fprintf(&b, "\nphased workload IPC: approximate %.3f, exact %.3f (delta %.1f%%)\n",
		a, x, 100*(x-a)/a)
	return b.String()
}

// X4 studies the forward-progress role of the FFUs: machines with and
// without fixed units under steering and under no management.
func X4() string {
	prog := PhasedWorkload(7)
	t := stats.NewTable("X4 — FFU ablation (phased workload)",
		"machine", "IPC", "outcome")
	cases := []struct {
		name    string
		disable bool
		policy  cpu.Policy
	}{
		{"FFUs + steering", false, cpu.PolicySteering},
		{"FFUs only (no policy)", false, cpu.PolicyNone},
		{"no FFUs + steering", true, cpu.PolicySteering},
		{"no FFUs, no policy", true, cpu.PolicyNone},
	}
	for _, c := range cases {
		params := cpu.DefaultParams()
		params.DisableFFUs = c.disable
		p := buildMachine(prog, params, c.policy)
		st, err := p.Run(2_000_000)
		if err != nil {
			t.AddRow(c.name, "-", fmt.Sprintf("starved after %d retired", st.Retired))
			continue
		}
		t.AddRow(c.name, st.IPC(), "completed")
	}
	return t.String() + "\nThe paper's guarantee: with FFUs every instruction eventually executes;\nwithout them an unmanaged fabric starves immediately, and even a steered\nfabric depends on the basis covering every unit type in use.\n"
}

// X5 sweeps the wake-up array / window size.
func X5() string {
	prog := PhasedWorkload(7)
	t := stats.NewTable("X5 — IPC vs scheduling window size (steering)",
		"window", "IPC", "reconfigs")
	for _, w := range []int{2, 4, 7, 12, 16, 24, 32} {
		params := cpu.DefaultParams()
		params.WindowSize = w
		p := buildMachine(prog, params, cpu.PolicySteering)
		st, err := p.Run(MaxCycles)
		ipc := -1.0
		if err == nil {
			ipc = st.IPC()
		}
		t.AddRow(w, fmtIPC(ipc), p.Fabric().Reconfigurations())
	}
	return t.String()
}

// X6 compares steering bases — the paper's §5 future-work question of
// choosing an orthogonal basis.
func X6() string {
	prog := PhasedWorkload(7)
	params := cpu.DefaultParams()

	bases := []struct {
		name  string
		basis [3]config.Configuration
	}{
		{"default (int/mem/fp)", config.DefaultBasis()},
		{"all-integer (degenerate)", [3]config.Configuration{
			config.MustNew("int-a", arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU),
			config.MustNew("int-b", arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntMDU, arch.IntMDU),
			config.MustNew("int-c", arch.IntALU, arch.IntALU, arch.LSU, arch.LSU, arch.LSU, arch.LSU, arch.LSU, arch.LSU),
		}},
		{"balanced trio", [3]config.Configuration{
			config.MustNew("bal-a", arch.IntALU, arch.IntALU, arch.LSU, arch.LSU, arch.IntMDU, arch.IntALU, arch.IntALU),
			config.MustNew("bal-b", arch.LSU, arch.LSU, arch.FPALU, arch.IntALU, arch.IntALU),
			config.MustNew("bal-c", arch.FPALU, arch.FPMDU, arch.IntALU, arch.LSU),
		}},
		{"fp-rich", [3]config.Configuration{
			config.MustNew("fp-a", arch.FPALU, arch.FPMDU, arch.IntALU, arch.LSU),
			config.MustNew("fp-b", arch.FPMDU, arch.FPMDU, arch.IntALU, arch.LSU),
			config.MustNew("fp-c", arch.FPALU, arch.FPALU, arch.IntALU, arch.LSU),
		}},
	}
	t := stats.NewTable("X6 — steering basis study (phased workload)",
		"basis", "IPC", "reconfigs", "hybrid cycles")
	for _, bc := range bases {
		p := cpu.New(prog, params, nil)
		m := core.NewManager(p.Fabric(), bc.basis)
		p.SetManager(&baseline.Steering{M: m})
		st, err := p.Run(MaxCycles)
		ipc := -1.0
		if err == nil {
			ipc = st.IPC()
		}
		t.AddRow(bc.name, fmtIPC(ipc), p.Fabric().Reconfigurations(), m.Stats().HybridCycles)
	}
	return t.String()
}

// X7 evaluates the paper's §5 future-work direction implemented in
// core.DemandManager: synthesising configurations directly from demand,
// with no predefined basis, across workloads and hysteresis settings.
func X7() string {
	var b strings.Builder
	b.WriteString("X7 — demand-driven configuration synthesis (no predefined basis, §5 future work)\n\n")
	params := cpu.DefaultParams()

	workloads := []struct {
		name string
		prog isa.Program
	}{
		{"phased", PhasedWorkload(7)},
		{"fp-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixFPHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 9})},
		{"uniform", workload.Synthesize([]workload.Phase{{Mix: workload.MixUniform, Instructions: 2500}}, workload.SynthParams{Seed: 11})},
	}
	t := stats.NewTable("IPC: basis steering vs demand-driven synthesis",
		"workload", cpu.PolicySteering.String(), "demand h=0", "demand h=1", "demand h=2", cpu.PolicyOracle.String())
	for _, w := range workloads {
		row := []interface{}{w.name, fmtIPC(ipcOf(w.prog, params, cpu.PolicySteering))}
		for _, h := range []int{0, 1, 2} {
			p := cpu.New(w.prog, params, nil)
			m := core.NewDemandManager(p.Fabric())
			m.Hysteresis = h
			p.SetManager(m)
			st, err := p.Run(MaxCycles)
			if err != nil {
				row = append(row, "DNF")
				continue
			}
			row = append(row, fmtIPC(st.IPC()))
		}
		row = append(row, fmtIPC(ipcOf(w.prog, params, cpu.PolicyOracle)))
		t.AddRow(row...)
	}
	b.WriteString(t.String())

	// Reconfiguration traffic comparison on the phased workload.
	prog := PhasedWorkload(7)
	ps := cpu.New(prog, params, nil)
	ps.SetManager(baseline.NewSteering(ps.Fabric()))
	ps.Run(MaxCycles)
	pd := cpu.New(prog, params, nil)
	pd.SetManager(core.NewDemandManager(pd.Fabric()))
	pd.Run(MaxCycles)
	fmt.Fprintf(&b, "\nreconfiguration spans on phased workload: steering %d, demand-driven %d\n",
		ps.Fabric().Reconfigurations(), pd.Fabric().Reconfigurations())
	return b.String()
}

// classifySlots names a sampled slot layout: a basis configuration's
// name, "(empty)", or "hybrid".
func classifySlots(slots [arch.NumRFUSlots]arch.Encoding, basis [3]config.Configuration) string {
	for _, cfg := range basis {
		if slots == cfg.Layout {
			return cfg.Name
		}
	}
	for _, e := range slots {
		if e != arch.EncEmpty {
			return "hybrid"
		}
	}
	return "(empty)"
}

// collectTelemetry attaches a telemetry probe sampling p every interval
// cycles into an in-memory collector; decisions name the default basis.
func collectTelemetry(p *cpu.Processor, interval int) *telemetry.Collector {
	probe := telemetry.NewProbe(interval)
	col := &telemetry.Collector{}
	probe.SetExporter(col)
	probe.SetState(p.CoreState)
	b := config.DefaultBasis()
	probe.SetBasis([3]string{b[0].Name, b[1].Name, b[2].Name})
	obs := &trace.Observer{}
	obs.Add(probe)
	p.SetObserver(obs)
	return col
}

// X8 renders the adaptation timeline: windowed IPC, fabric state and
// reconfiguration activity as the steering machine crosses the phase
// boundaries of the phased workload — the paper's steering story made
// visible over time. The windows are the telemetry sampler's: the run is
// instrumented with a 250-cycle probe and the table is rendered from the
// collected sample series.
func X8() string {
	var b strings.Builder
	b.WriteString("X8 — steering adaptation timeline (phased workload: int -> fp -> mem -> mdu -> fp)\n\n")

	prog := PhasedWorkload(7)
	params := cpu.DefaultParams()
	p := cpu.New(prog, params, nil)
	steer := baseline.NewSteering(p.Fabric())
	p.SetManager(steer)

	const window = 250
	col := collectTelemetry(p, window)

	for !p.Halted() && p.Stats().Cycles < MaxCycles {
		p.Cycle()
	}

	basis := config.DefaultBasis()
	ffu := config.FFUCounts()
	t := stats.NewTable("per-window machine state",
		"cycles", "retired", "window IPC", "fabric state", "reconfigs", "fp units", "lsu units")
	for _, s := range col.Samples {
		t.AddRow(
			fmt.Sprintf("%d-%d", s.Cycle-window, s.Cycle),
			s.Retired,
			s.IntervalIPC,
			classifySlots(s.Slots, basis),
			s.IntervalReconfigs,
			s.RFUUnits[arch.FPALU]+s.RFUUnits[arch.FPMDU]+ffu[arch.FPALU]+ffu[arch.FPMDU],
			s.RFUUnits[arch.LSU]+ffu[arch.LSU],
		)
	}
	b.WriteString(t.String())
	mst := steer.M.Stats()
	fmt.Fprintf(&b, "\nselection totals: current=%d integer=%d memory=%d floating=%d, hybrid cycles=%d\n",
		mst.Selections[0], mst.Selections[1], mst.Selections[2], mst.Selections[3], mst.HybridCycles)
	if n := len(col.Decisions); n > 0 {
		first, last := col.Decisions[0], col.Decisions[n-1]
		fmt.Fprintf(&b, "steering decisions logged: %d (first %s -> %s at cycle %d, last %s -> %s at cycle %d)\n",
			n, first.From, first.To, first.Cycle, last.From, last.To, last.Cycle)
	}
	return b.String()
}

// X9 contrasts the idealised select stage with the literal select-free
// scheduling of the paper's reference [9], where colliding requesters
// pile up, waste their issue slot and replay.
func X9() string {
	var b strings.Builder
	b.WriteString("X9 — select-free scheduling pileups (reference [9]) vs idealised select\n\n")
	workloads := []struct {
		name string
		prog isa.Program
	}{
		{"phased", PhasedWorkload(7)},
		{"int-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixIntHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 8})},
		{"mem-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixMemHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 10})},
	}
	for _, width := range []int{4, 1} {
		t := stats.NewTable(
			fmt.Sprintf("steering machine, issue width %d: IPC and pileup replays", width),
			"workload", "ideal select IPC", "select-free IPC", "slowdown", "pileups", "pileups/1k retired")
		for _, w := range workloads {
			run := func(selectFree bool) cpu.Stats {
				params := cpu.DefaultParams()
				params.IssueWidth = width
				params.SelectFree = selectFree
				p := buildMachine(w.prog, params, cpu.PolicySteering)
				st, err := p.Run(MaxCycles)
				if err != nil {
					return cpu.Stats{}
				}
				return st
			}
			ideal := run(false)
			free := run(true)
			t.AddRow(w.name,
				fmtIPC(ideal.IPC()), fmtIPC(free.IPC()),
				fmt.Sprintf("%.1f%%", 100*(ideal.IPC()-free.IPC())/ideal.IPC()),
				free.Pileups,
				fmt.Sprintf("%.1f", 1000*float64(free.Pileups)/float64(free.Retired)))
		}
		b.WriteString(t.String() + "\n")
	}
	b.WriteString("\nThe paper adopts [9]'s wake-up arrays; this study quantifies the pileup\ncost the select-free design trades for its shorter scheduling critical path.\n")
	return b.String()
}

// X10 compares the two readings of where the configuration manager gets
// its demand vector: §3.1's instruction-queue view (default) vs §2's
// fetch-fed pre-decoder view, which sees fetched-but-undispatched
// instructions too (Params.ManagerLookahead).
func X10() string {
	var b strings.Builder
	b.WriteString("X10 — manager demand source: instruction queue (§3.1) vs fetch pre-decode lookahead (§2)\n\n")
	t := stats.NewTable("steering IPC",
		"workload", "queue view", "lookahead view", "delta")
	row := func(name string, prog isa.Program, setup func(p *cpu.Processor)) {
		run := func(lookahead bool) float64 {
			params := cpu.DefaultParams()
			params.ManagerLookahead = lookahead
			p := buildMachine(prog, params, cpu.PolicySteering)
			if setup != nil {
				setup(p)
			}
			st, err := p.Run(MaxCycles)
			if err != nil {
				return -1
			}
			return st.IPC()
		}
		q, l := run(false), run(true)
		t.AddRow(name, fmtIPC(q), fmtIPC(l), fmt.Sprintf("%+.1f%%", 100*(l-q)/q))
	}
	row("phased", PhasedWorkload(7), nil)
	row("fp-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixFPHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 9}), nil)
	for _, name := range []string{"saxpy", "matmul", "dot"} {
		k := workload.KernelByName(name)
		row(name, k.Program(), func(p *cpu.Processor) {
			if k.Setup != nil {
				k.Setup(p.Memory(), p.SetReg)
			}
		})
	}
	b.WriteString(t.String())
	b.WriteString("\nLookahead widens the demand sample the CEM generators see, smoothing the\nper-cycle oscillation of narrow windows.\n")
	return b.String()
}

// X11 sweeps the residency timer that damps selection thrash — motivated
// by the X1 observation that per-cycle reloading hurts short loops whose
// demand oscillates within one loop body (saxpy).
func X11() string {
	var b strings.Builder
	b.WriteString("X11 — configuration residency timer (thrash damping)\n\n")
	workloads := []struct {
		name  string
		prog  isa.Program
		setup func(p *cpu.Processor)
	}{
		{"saxpy", workload.KernelByName("saxpy").Program(), func(p *cpu.Processor) {
			k := workload.KernelByName("saxpy")
			k.Setup(p.Memory(), p.SetReg)
		}},
		{"phased", PhasedWorkload(7), nil},
	}
	for _, w := range workloads {
		t := stats.NewTable(fmt.Sprintf("%s: IPC vs minimum residency", w.name),
			"min residency (cycles)", "IPC", "reconfigs", "suppressed loads")
		for _, res := range []int{0, 4, 8, 16, 32, 64, 128} {
			p := cpu.New(w.prog, cpu.DefaultParams(), nil)
			m := core.NewManager(p.Fabric(), config.DefaultBasis())
			m.MinResidency = res
			p.SetManager(&baseline.Steering{M: m})
			if w.setup != nil {
				w.setup(p)
			}
			st, err := p.Run(MaxCycles)
			ipc := -1.0
			if err == nil {
				ipc = st.IPC()
			}
			t.AddRow(res, fmtIPC(ipc), p.Fabric().Reconfigurations(), m.Stats().SuppressedLoads)
		}
		b.WriteString(t.String() + "\n")
	}
	return b.String()
}

// X12 sweeps the machine's superscalar widths (fetch/dispatch/issue/
// retire together) at several window sizes, locating where steering's
// benefit saturates.
func X12() string {
	var b strings.Builder
	b.WriteString("X12 — superscalar width and window scaling (phased workload, steering)\n\n")
	prog := PhasedWorkload(7)
	widths := []int{1, 2, 4, 8}
	windows := []int{7, 16, 32}
	t := stats.NewTable("IPC by width x window",
		append([]string{"width \\ window"}, func() []string {
			var h []string
			for _, w := range windows {
				h = append(h, fmt.Sprint(w))
			}
			return h
		}()...)...)
	grid := sweep.Grid(len(widths), len(windows), 0, func(r, c int) string {
		params := cpu.DefaultParams()
		params.DispatchWidth = widths[r]
		params.IssueWidth = widths[r]
		params.RetireWidth = widths[r]
		params.FetchWidthMem = widths[r]
		params.FetchWidthTC = widths[r] * 2
		params.WindowSize = windows[c]
		return fmtIPC(ipcOf(prog, params, cpu.PolicySteering))
	})
	for i, w := range widths {
		cells := []interface{}{fmt.Sprint(w)}
		for _, cell := range grid[i] {
			cells = append(cells, cell)
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	b.WriteString("\nWider machines need deeper windows to feed them; the paper's 7-entry\nqueue pairs naturally with a ~4-wide machine.\n")
	return b.String()
}

// X13 studies the front end: branch predictor size and the trace cache's
// fetch-widening effect, on the branchy kernel set.
func X13() string {
	var b strings.Builder
	b.WriteString("X13 — front-end study: predictor size and trace cache\n\n")

	kernelNames := []string{"sort", "gcdbatch", "mandel", "strsearch"}
	pt := stats.NewTable("IPC vs bimodal predictor entries",
		append([]string{"kernel"}, "16", "64", "256", "1024")...)
	sizes := []int{16, 64, 256, 1024}
	grid := sweep.Grid(len(kernelNames), len(sizes), 0, func(r, c int) string {
		k := workload.KernelByName(kernelNames[r])
		params := cpu.DefaultParams()
		params.PredictorEntries = sizes[c]
		p := buildMachine(k.Program(), params, cpu.PolicySteering)
		if k.Setup != nil {
			k.Setup(p.Memory(), p.SetReg)
		}
		st, err := p.Run(MaxCycles)
		if err != nil {
			return "DNF"
		}
		return fmtIPC(st.IPC())
	})
	for i, name := range kernelNames {
		cells := []interface{}{name}
		for _, cell := range grid[i] {
			cells = append(cells, cell)
		}
		pt.AddRow(cells...)
	}
	b.WriteString(pt.String() + "\n")

	// Trace cache ablation: normal widths vs trace-cache width clamped
	// to the memory width (no fetch widening).
	tt := stats.NewTable("trace cache fetch widening (IPC)",
		"kernel", "with trace cache (2->4)", "without (2->2)", "delta")
	for _, name := range []string{"sort", "matmul", "memcpy", "fib"} {
		k := workload.KernelByName(name)
		run := func(tcWidth int) float64 {
			params := cpu.DefaultParams()
			params.FetchWidthTC = tcWidth
			p := buildMachine(k.Program(), params, cpu.PolicySteering)
			if k.Setup != nil {
				k.Setup(p.Memory(), p.SetReg)
			}
			st, err := p.Run(MaxCycles)
			if err != nil {
				return -1
			}
			return st.IPC()
		}
		with, without := run(4), run(2)
		tt.AddRow(name, fmtIPC(with), fmtIPC(without), fmt.Sprintf("%+.1f%%", 100*(with-without)/without))
	}
	b.WriteString(tt.String())
	return b.String()
}

// X14 breaks every cycle down by bottleneck — issuing, front-end-starved,
// unit-bound, dependency-bound — showing *where* steering's win comes
// from: it converts unit-bound cycles into issuing ones.
func X14() string {
	var b strings.Builder
	b.WriteString("X14 — cycle bottleneck breakdown (phased workload)\n\n")
	prog := PhasedWorkload(7)
	t := stats.NewTable("fraction of cycles by bottleneck",
		"policy", "issuing", "unit-bound", "dep-bound", "frontend", "IPC")
	for _, pol := range []cpu.Policy{cpu.PolicySteering, cpu.PolicyStaticInteger, cpu.PolicyStaticFloating, cpu.PolicyNone, cpu.PolicyOracle} {
		p := buildMachine(prog, cpu.DefaultParams(), pol)
		st, err := p.Run(MaxCycles)
		if err != nil {
			t.AddRow(pol, "DNF", "", "", "", "")
			continue
		}
		frac := func(n int) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(st.Cycles)) }
		t.AddRow(pol, frac(st.CyclesIssued), frac(st.CyclesUnits),
			frac(st.CyclesDeps), frac(st.CyclesFrontend), fmt.Sprintf("%.3f", st.IPC()))
	}
	b.WriteString(t.String())
	b.WriteString("\nSteering's gain over the FFU-only machine comes almost entirely out of\nthe unit-bound bucket — the configuration manager's whole purpose.\n")
	return b.String()
}

// X15 compares scheduler grant-priority policies: oldest-first (the
// default), youngest-first (pathological) and a rotating-priority
// arbiter.
func X15() string {
	var b strings.Builder
	b.WriteString("X15 — scheduler grant priority (steering machine)\n\n")
	orders := []struct {
		name  string
		order cpu.IssueOrder
	}{
		{"oldest-first", cpu.OrderOldest},
		{"rotating", cpu.OrderRotate},
		{"youngest-first", cpu.OrderYoungest},
	}
	workloads := []struct {
		name string
		prog isa.Program
	}{
		{"phased", PhasedWorkload(7)},
		{"mem-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixMemHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 10})},
	}
	t := stats.NewTable("IPC by grant priority",
		"workload", "oldest-first", "rotating", "youngest-first")
	for _, w := range workloads {
		cells := []interface{}{w.name}
		for _, o := range orders {
			params := cpu.DefaultParams()
			params.IssueOrder = o.order
			cells = append(cells, fmtIPC(ipcOf(w.prog, params, cpu.PolicySteering)))
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	b.WriteString("\nAge priority wins: starving the oldest instructions delays retirement,\nwhich stalls the in-order RUU head and shrinks the effective window.\n")
	return b.String()
}

// X16 compares branch predictors — bimodal vs gshare at several history
// lengths — on the control-flow-heavy kernels.
func X16() string {
	var b strings.Builder
	b.WriteString("X16 — branch prediction: bimodal vs gshare\n\n")
	kernelNames := []string{"branchy-synthetic", "sort", "mandel", "strsearch"}
	configs := []struct {
		name string
		bits uint
	}{
		{"bimodal", 0}, {"gshare-4", 4}, {"gshare-8", 8},
	}
	t := stats.NewTable("IPC (predictor accuracy in parentheses)",
		append([]string{"kernel"}, func() []string {
			var h []string
			for _, c := range configs {
				h = append(h, c.name)
			}
			return h
		}()...)...)
	for _, name := range kernelNames {
		cells := []interface{}{name}
		for _, cfg := range configs {
			params := cpu.DefaultParams()
			params.GshareHistoryBits = cfg.bits
			var p *cpu.Processor
			if name == "branchy-synthetic" {
				prog := workload.SynthesizeBranchy(200, workload.SynthParams{Seed: 5})
				p = buildMachine(prog, params, cpu.PolicySteering)
			} else {
				k := workload.KernelByName(name)
				p = buildMachine(k.Program(), params, cpu.PolicySteering)
				if k.Setup != nil {
					k.Setup(p.Memory(), p.SetReg)
				}
			}
			st, err := p.Run(MaxCycles)
			if err != nil {
				cells = append(cells, "DNF")
				continue
			}
			acc, _ := p.Predictor().Accuracy()
			cells = append(cells, fmt.Sprintf("%.3f (%.1f%%)", st.IPC(), 100*acc))
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// X17 models the configuration bus of Fig. 1: a width-w bus allows at
// most w spans to reconfigure concurrently, so width 1 serialises all
// configuration loading.
func X17() string {
	var b strings.Builder
	b.WriteString("X17 — configuration bus width (Fig. 1 bus model, phased workload)\n\n")
	prog := PhasedWorkload(7)
	t := stats.NewTable("steering IPC vs bus width",
		"bus width (spans)", "IPC", "reconfigs")
	for _, w := range []int{1, 2, 4, 0} {
		params := cpu.DefaultParams()
		params.ConfigBusWidth = w
		p := buildMachine(prog, params, cpu.PolicySteering)
		st, err := p.Run(MaxCycles)
		ipc := -1.0
		if err == nil {
			ipc = st.IPC()
		}
		label := fmt.Sprint(w)
		if w == 0 {
			label = "unlimited"
		}
		t.AddRow(label, fmtIPC(ipc), p.Fabric().Reconfigurations())
	}
	b.WriteString(t.String())
	b.WriteString("\nA single bus (the literal Fig. 1) costs little: steering rarely needs\nmore than one span in flight because deferrals already stagger loads.\n")
	return b.String()
}

// X18 compares policies through the telemetry sampler: every policy runs
// the phased workload with a 200-cycle probe, in parallel via the sweep
// harness, and the table summarises each time series — occupancy,
// in-flight reconfiguration pressure, loading stall cycles from the
// steering-decision log — rather than just end-of-run aggregates.
func X18() string {
	var b strings.Builder
	b.WriteString("X18 — telemetry time-series comparison across policies (phased workload)\n\n")

	prog := PhasedWorkload(7)
	policies := []cpu.Policy{cpu.PolicySteering, cpu.PolicyDemand, cpu.PolicyFullReconfig, cpu.PolicyOracle, cpu.PolicyRandom, cpu.PolicyStaticInteger, cpu.PolicyNone}
	const interval = 200

	type outcome struct {
		st  cpu.Stats
		err error
		col *telemetry.Collector
	}
	results := sweep.Run(len(policies), 0, func(i int) outcome {
		p := buildMachine(prog, cpu.DefaultParams(), policies[i])
		col := collectTelemetry(p, interval)
		st, err := p.Run(MaxCycles)
		return outcome{st, err, col}
	})

	t := stats.NewTable("per-policy time-series summary",
		"policy", "IPC", "samples", "mean occupancy", "mean reconfiguring slots",
		"decisions", "stall slot-cycles", "peak window reconfigs")
	for i, name := range policies {
		r, col := results[i], results[i].col
		if r.err != nil {
			t.AddRow(name, "DNF", len(col.Samples), "-", "-", len(col.Decisions), "-", "-")
			continue
		}
		var occ, rslots, peak, stall int
		for _, s := range col.Samples {
			occ += s.Occupancy
			rslots += s.ReconfigSlots
			if s.IntervalReconfigs > peak {
				peak = s.IntervalReconfigs
			}
		}
		for _, d := range col.Decisions {
			stall += d.StallSlotCycles
		}
		n := len(col.Samples)
		meanOcc, meanR := 0.0, 0.0
		if n > 0 {
			meanOcc = float64(occ) / float64(n)
			meanR = float64(rslots) / float64(n)
		}
		t.AddRow(name, fmtIPC(r.st.IPC()), n,
			fmt.Sprintf("%.2f", meanOcc), fmt.Sprintf("%.2f", meanR),
			len(col.Decisions), stall, peak)
	}
	b.WriteString(t.String())
	b.WriteString("\nDecisions come from the steering-decision log (selection-family\npolicies only); stall slot-cycles are the loading overhead those\nswitches started. Random and demand policies reconfigure without\nlogging decisions — their activity shows in the reconfiguring-slot\ncolumns instead.\n")
	return b.String()
}

// X19 sweeps the configuration-upset rate across steering and the
// baseline policies: every (policy, rate) point runs the phased
// workload under a seeded fault campaign, in parallel via the sweep
// harness. The table reports throughput alongside the fault pipeline's
// own accounting — upsets in, repairs out, slots permanently lost, and
// the fraction of slot-cycles the degraded fabric spent masked.
func X19() string {
	var b strings.Builder
	b.WriteString("X19 — policy comparison under a configuration-upset rate sweep (phased workload)\n\n")

	prog := PhasedWorkload(7)
	policies := []cpu.Policy{cpu.PolicySteering, cpu.PolicyDemand, cpu.PolicyFullReconfig, cpu.PolicyStaticInteger}
	rates := []float64{0, 1e-4, 5e-4, 2e-3}

	type point struct {
		policy cpu.Policy
		rate   float64
	}
	points := make([]point, 0, len(policies)*len(rates))
	for _, p := range policies {
		for _, r := range rates {
			points = append(points, point{p, r})
		}
	}

	type outcome struct {
		st  cpu.Stats
		err error
		fs  rfu.FaultStats
	}
	results := sweep.Run(len(points), 0, func(i int) outcome {
		pt := points[i]
		params := cpu.DefaultParams()
		params.FaultTransientRate = pt.rate
		params.FaultPermanentRate = pt.rate / 10
		params.FaultSeed = 55
		p := buildMachine(prog, params, pt.policy)
		st, err := p.Run(MaxCycles)
		return outcome{st, err, p.Fabric().FaultStats()}
	})

	t := stats.NewTable("IPC and fault pipeline vs upset rate",
		"policy", "transient rate", "IPC", "injected", "repaired", "healed by load", "dead slots", "masked slot-cycles %")
	for i, pt := range points {
		r := results[i]
		if r.err != nil {
			t.AddRow(pt.policy, fmt.Sprintf("%.0e", pt.rate), "DNF", "-", "-", "-", "-", "-")
			continue
		}
		masked := 0.0
		if r.st.Cycles > 0 {
			masked = 100 * float64(r.fs.MaskedSlotCycles) / float64(r.st.Cycles*arch.NumRFUSlots)
		}
		rateLabel := "off"
		if pt.rate > 0 {
			rateLabel = fmt.Sprintf("%.0e", pt.rate)
		}
		t.AddRow(pt.policy, rateLabel, fmtIPC(r.st.IPC()),
			r.fs.InjectedTransient+r.fs.InjectedPermanent,
			r.fs.Repaired, r.fs.HealedByLoad, r.fs.DeadSlots,
			fmt.Sprintf("%.2f", masked))
	}
	b.WriteString(t.String())
	b.WriteString("\nEach point pairs a transient rate with a 10x-lower permanent rate on\none fault seed. Steering degrades gracefully: demand clamping and the\nhealth-masked availability keep it scheduling around faulted units, and\nits own configuration loads heal undetected transients for free. Static\nfabrics lean entirely on the scrub-and-repair pipeline, and every slot\nthat dies is IPC lost until the end of the run.\n")
	return b.String()
}

// X20 evaluates the phase-aware prediction and prefetch subsystem
// (internal/predict): a reconfiguration-latency sweep contrasting
// reactive steering with prefetch-augmented steering on a long
// phase-alternating workload, plus the predictor's own accounting.
// Prefetch can only pay when the latency it hides is non-trivial, so
// the interesting rows are the high-latency ones; at low latency the
// predictor's anticipation gate keeps it out of the way and the two
// policies should tie.
func X20() string {
	var b strings.Builder
	b.WriteString("X20 — phase-aware configuration prefetch vs reactive steering\n\n")

	// A long two-mix alternation gives the Markov predictor an
	// unambiguous phase structure and enough boundaries to both learn
	// and exploit: ~12 int<->fp switches over 6000 instructions.
	prog := workload.Synthesize(workload.AlternatingPhases(6000, 500), workload.SynthParams{Seed: 7})
	lats := []int{16, 64, 128, 256}

	type outcome struct {
		steer, pre cpu.Stats
		steerErr   error
		preErr     error
		mgrStats   core.Stats
	}
	results := sweep.Run(len(lats), 0, func(i int) outcome {
		params := cpu.DefaultParams()
		params.ReconfigLatency = lats[i]
		var o outcome
		ps := buildMachine(prog, params, cpu.PolicySteering)
		o.steer, o.steerErr = ps.Run(MaxCycles)
		pm := repro.NewMachine(prog, repro.Options{Policy: repro.PolicyPrefetch, Params: params})
		o.pre, o.preErr = pm.Run(MaxCycles)
		o.mgrStats, _ = pm.ManagerStats()
		return o
	})

	t := stats.NewTable("IPC and predictor accounting vs reconfiguration latency (alternating int/fp workload)",
		"latency (cycles/span)", "steering IPC", "prefetch IPC", "delta",
		"spec spans", "confirmed", "mispredicted", "cancelled", "wasted spans", "held loads")
	for i, lat := range lats {
		r := results[i]
		if r.steerErr != nil || r.preErr != nil {
			t.AddRow(lat, "DNF", "DNF", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		ms := r.mgrStats
		t.AddRow(lat,
			fmtIPC(r.steer.IPC()), fmtIPC(r.pre.IPC()),
			fmt.Sprintf("%+.1f%%", 100*(r.pre.IPC()-r.steer.IPC())/r.steer.IPC()),
			ms.PrefetchIssued, ms.PrefetchConfirmed, ms.PrefetchMispredicted,
			ms.PrefetchCancelled, ms.PrefetchWastedSpans, ms.HeldLoads)
	}
	b.WriteString(t.String())
	b.WriteString("\nThe predictor anticipates each phase boundary from learned per-basis\nphase lengths and converts idle spans just in time, so its win grows\nwith the latency it hides; the anticipation gate keeps it inert when\nreconfiguration is cheap, and the hold-until-resolve commitment plus\nstreak-based mispredict detection bound the cost of a wrong guess.\n")
	return b.String()
}

// x21Scenario is one workload × machine ablation of the model-error
// table: compact stand-ins for the X1–X6 study family.
type x21Scenario struct {
	name   string
	prog   isa.Program
	params cpu.Params
	basis  *[3]config.Configuration
	exact  bool // X3: exact divider CEM inside the simulator's manager
}

func x21Scenarios() []x21Scenario {
	mk := func(phases []workload.Phase, seed int64) isa.Program {
		return workload.Synthesize(phases, workload.SynthParams{Seed: seed})
	}
	phased := mk([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
		{Mix: workload.MixMemHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
	}, 7)
	lat64 := cpu.DefaultParams()
	lat64.ReconfigLatency = 64
	noFFU := cpu.DefaultParams()
	noFFU.DisableFFUs = true
	w16 := cpu.DefaultParams()
	w16.WindowSize = 16
	fpBasis := [3]config.Configuration{
		config.MustNew("fp-a", arch.FPALU, arch.FPMDU, arch.IntALU, arch.LSU),
		config.MustNew("fp-b", arch.FPMDU, arch.FPMDU, arch.IntALU, arch.LSU),
		config.MustNew("fp-c", arch.FPALU, arch.FPALU, arch.IntALU, arch.LSU),
	}
	return []x21Scenario{
		{name: "X1 phased", prog: phased, params: cpu.DefaultParams()},
		{name: "X2 lat=64", prog: mk([]workload.Phase{
			{Mix: workload.MixIntHeavy, Instructions: 400},
			{Mix: workload.MixFPHeavy, Instructions: 400},
		}, 7), params: lat64},
		{name: "X3 exact CEM", prog: phased, params: cpu.DefaultParams(), exact: true},
		{name: "X4 no FFUs", prog: mk([]workload.Phase{
			{Mix: workload.MixFPHeavy, Instructions: 600},
		}, 5), params: noFFU},
		{name: "X5 window=16", prog: mk([]workload.Phase{
			{Mix: workload.MixUniform, Instructions: 800},
		}, 3), params: w16},
		{name: "X6 fp basis", prog: mk([]workload.Phase{
			{Mix: workload.MixFPHeavy, Instructions: 400},
			{Mix: workload.MixIntHeavy, Instructions: 400},
		}, 2), params: cpu.DefaultParams(), basis: &fpBasis},
	}
}

// x21Sim runs one scenario under an adaptive policy in the simulator.
func x21Sim(sc x21Scenario, pol cpu.Policy) float64 {
	p := cpu.New(sc.prog, sc.params, nil)
	basis := config.DefaultBasis()
	if sc.basis != nil {
		basis = *sc.basis
	}
	switch pol {
	case cpu.PolicySteering:
		m := core.NewManager(p.Fabric(), basis)
		m.ExactCEM = sc.exact
		p.SetManager(&baseline.Steering{M: m})
	case cpu.PolicyPrefetch:
		p.SetManager(predict.NewManagerBasis(p.Fabric(), basis, predict.Config{}))
	}
	st, err := p.Run(MaxCycles)
	if err != nil {
		return -1
	}
	return st.IPC()
}

// x21Model solves the analytic model for one scenario.
func x21Model(sc x21Scenario, pol cpu.Policy) float64 {
	m, err := queue.New(pol, sc.params, sc.basis)
	if err != nil {
		return -1
	}
	est, err := m.Estimate(sc.prog)
	if err != nil {
		return -1
	}
	return est.PredictedIPC
}

// X21 validates the analytic queueing model (internal/queue, the engine
// behind /v1/estimate and rssbench -prune-frontier): per-scenario model
// error against the simulator, the model-vs-simulation latency ratio,
// and whether model-guided pruning keeps the true frontier.
func X21() string {
	var b strings.Builder
	b.WriteString("X21 — analytic queueing model vs simulator\n\n")

	// Part 1: model error across the scenario family under the two
	// deterministic adaptive policies the fast path targets.
	scenarios := x21Scenarios()
	pols := []cpu.Policy{cpu.PolicySteering, cpu.PolicyPrefetch}
	t := stats.NewTable("Model IPC error (X1–X6 scenarios × adaptive policies)",
		"scenario", "policy", "sim IPC", "model IPC", "error")
	type cellResult struct{ sim, model float64 }
	grid := sweep.Grid(len(scenarios), len(pols), 0, func(row, col int) cellResult {
		return cellResult{sim: x21Sim(scenarios[row], pols[col]), model: x21Model(scenarios[row], pols[col])}
	})
	var sumAbs, worst float64
	n := 0
	for i, sc := range scenarios {
		for j, pol := range pols {
			r := grid[i][j]
			if r.sim <= 0 || r.model < 0 {
				t.AddRow(sc.name, pol.String(), fmtIPC(r.sim), fmtIPC(r.model), "-")
				continue
			}
			errPct := 100 * (r.model - r.sim) / r.sim
			t.AddRow(sc.name, pol.String(), fmtIPC(r.sim), fmtIPC(r.model),
				fmt.Sprintf("%+.1f%%", errPct))
			sumAbs += math.Abs(errPct)
			if math.Abs(errPct) > worst {
				worst = math.Abs(errPct)
			}
			n++
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nmean |error| %.1f%%, worst |error| %.1f%% (bound: every scenario within 25%%, mean under 10%%;\nthe worst case is the X4 FFU-less ablation, where the model under-predicts saturated stations)\n",
		sumAbs/float64(n), worst)

	// Part 2: latency, at two scales. On the compact X1 both paths are
	// linear in program length, so the ratio is modest; at production
	// scale the model's strided sampling makes its cost roughly constant
	// while simulation stays linear — that is where the /v1/estimate
	// speedup claim lives, so it is measured on a 1M-instruction X1.
	sc1 := scenarios[0]
	measure := func(name string, sc x21Scenario, solves int) {
		simStart := time.Now()
		simIPC := x21Sim(sc, cpu.PolicySteering)
		simElapsed := time.Since(simStart)
		modelStart := time.Now()
		var modelIPC float64
		for i := 0; i < solves; i++ {
			modelIPC = x21Model(sc, cpu.PolicySteering)
		}
		modelElapsed := time.Since(modelStart) / time.Duration(solves)
		fmt.Fprintf(&b, "latency (%s): simulated run %v (IPC %.3f), model solve %v (IPC %.3f) — %.0fx faster\n",
			name, simElapsed.Round(time.Microsecond), simIPC,
			modelElapsed.Round(time.Microsecond), modelIPC,
			float64(simElapsed)/float64(modelElapsed))
	}
	b.WriteString("\n")
	measure("X1, 2k instructions", sc1, 100)
	var bigPhases []workload.Phase
	for i := 0; i < 500; i++ {
		bigPhases = append(bigPhases,
			workload.Phase{Mix: workload.MixIntHeavy, Instructions: 500},
			workload.Phase{Mix: workload.MixFPHeavy, Instructions: 500},
			workload.Phase{Mix: workload.MixMemHeavy, Instructions: 500},
			workload.Phase{Mix: workload.MixFPHeavy, Instructions: 500},
		)
	}
	bigProg := workload.Synthesize(bigPhases, workload.SynthParams{Seed: 7})
	measure("X1 at production scale, 1M instructions", x21Scenario{prog: bigProg, params: cpu.DefaultParams()}, 20)

	// Part 3: model-guided pruning. Rank the rssbench-style grid
	// (policy × latency, seed 7) with the model, submit the top quarter,
	// and check the true top-3 survived — the -prune-frontier contract.
	gridPols := []cpu.Policy{
		cpu.PolicySteering, cpu.PolicyPrefetch, cpu.PolicyDemand,
		cpu.PolicyFullReconfig, cpu.PolicyNone,
	}
	lats := []int{4, 16, 64}
	type point struct {
		pol        cpu.Policy
		lat        int
		sim, model float64
	}
	pts := make([]point, 0, len(gridPols)*len(lats))
	for _, pol := range gridPols {
		for _, lat := range lats {
			pts = append(pts, point{pol: pol, lat: lat})
		}
	}
	ranked := sweep.Run(len(pts), 0, func(i int) point {
		p := pts[i]
		params := cpu.DefaultParams()
		params.ReconfigLatency = p.lat
		proc := buildMachine(sc1.prog, params, p.pol)
		if st, err := proc.Run(MaxCycles); err == nil {
			p.sim = st.IPC()
		} else {
			p.sim = -1
		}
		p.model = x21Model(x21Scenario{prog: sc1.prog, params: params}, p.pol)
		return p
	})
	bySim := append([]point(nil), ranked...)
	sort.SliceStable(bySim, func(i, j int) bool { return bySim[i].sim > bySim[j].sim })
	byModel := append([]point(nil), ranked...)
	sort.SliceStable(byModel, func(i, j int) bool { return byModel[i].model > byModel[j].model })
	const frontier = 0.25
	keep := int(math.Ceil(frontier * float64(len(ranked))))
	inFrontier := map[string]bool{}
	for _, p := range byModel[:keep] {
		inFrontier[fmt.Sprintf("%s/%d", p.pol, p.lat)] = true
	}
	retained := 0
	var top3 []string
	for _, p := range bySim[:3] {
		key := fmt.Sprintf("%s/%d", p.pol, p.lat)
		mark := "dropped"
		if inFrontier[key] {
			retained++
			mark = "retained"
		}
		top3 = append(top3, fmt.Sprintf("  %-22s sim %.3f  model %.3f  %s", key, p.sim, p.model, mark))
	}
	fmt.Fprintf(&b, "\npruning (grid %d points, frontier %.2f -> %d submitted): true top-3 retained %d/3\n%s\n",
		len(ranked), frontier, keep, retained, strings.Join(top3, "\n"))
	return b.String()
}

// x22Cluster builds and runs one cluster point: K cores on
// heterogeneous phased workloads (seed 7+i per core), returning the
// cluster stats or an error on DNF.
func x22Cluster(k int, params cpu.Params, policy cpu.Policy) (cluster.Stats, error) {
	progs := make([]repro.Program, k)
	for i := range progs {
		progs[i] = PhasedWorkload(int64(7 + i))
	}
	params.Cores = k
	c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: policy})
	return c.Run(MaxCycles)
}

// X22 measures cluster scaling: aggregate IPC and Jain fairness as K
// cores share one configuration bus in split mode, across core count ×
// bus width × arbitration policy. Each core runs a different phased
// workload (seed 7+core), so demand is heterogeneous and the arbiter's
// stepping/bus order matters. K=1 rows are the scalar machine and must
// be identical across arbiters — the degeneracy check.
func X22() string {
	var b strings.Builder
	b.WriteString("X22 — cluster scaling: aggregate IPC and fairness vs cores × bus width × arbiter (split mode, steering)\n\n")

	ks := []int{1, 2, 4}
	buses := []int{1, 2, 0}
	arbs := []string{"round-robin", "demand-weighted"}

	type point struct {
		k, bus int
		arb    string
	}
	var pts []point
	for _, k := range ks {
		for _, bus := range buses {
			for _, arb := range arbs {
				pts = append(pts, point{k, bus, arb})
			}
		}
	}
	type outcome struct {
		st  cluster.Stats
		err error
	}
	results := sweep.Run(len(pts), 0, func(i int) outcome {
		pt := pts[i]
		params := cpu.DefaultParams()
		params.ConfigBusWidth = pt.bus
		params.ClusterMode = "split"
		params.ClusterArbiter = pt.arb
		st, err := x22Cluster(pt.k, params, cpu.PolicySteering)
		return outcome{st, err}
	})

	t := stats.NewTable("aggregate IPC (Jain fairness) by cores × bus width × arbiter",
		append([]string{"cores", "bus width"}, arbs...)...)
	for _, k := range ks {
		for _, bus := range buses {
			busLabel := fmt.Sprint(bus)
			if bus == 0 {
				busLabel = "unlimited"
			}
			cells := []interface{}{k, busLabel}
			for _, arb := range arbs {
				var r outcome
				for i, pt := range pts {
					if pt.k == k && pt.bus == bus && pt.arb == arb {
						r = results[i]
						break
					}
				}
				if r.err != nil {
					cells = append(cells, "DNF")
					continue
				}
				cells = append(cells, fmt.Sprintf("%.3f (%.3f)", r.st.AggregateIPC(), r.st.Fairness()))
			}
			t.AddRow(cells...)
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nSplit mode partitions the 8 RFU slots contiguously across cores, so\naggregate IPC grows sub-linearly with K while every core keeps its FFU\nfloor. The shared configuration bus is the coupling: at width 1 all\ncores' span loads serialise, costing the K=4 cluster ~1% aggregate\nIPC vs an unlimited bus. The two arbiters nearly tie on this workload\n— deferrals already stagger most loads — with demand-weighted edging\nahead at K=4 by letting the hungriest core's spans go first.\n")
	return b.String()
}

// X23 contrasts the two fabric-sharing modes under configuration
// upsets: a K=4 cluster on heterogeneous phased workloads, merged vs
// split, across a transient-upset-rate sweep (permanent rate 10x
// lower, one fault campaign seed per core). Fault accounting is summed
// over the fabrics that actually take faults — all four in split mode,
// the master's in merged mode, where the mirrors replay its layout.
func X23() string {
	var b strings.Builder
	b.WriteString("X23 — merged vs split fabric sharing under configuration upsets (K=4, steering)\n\n")

	rates := []float64{0, 1e-4, 5e-4, 2e-3}
	modes := []string{"merged", "split"}

	type point struct {
		mode string
		rate float64
	}
	var pts []point
	for _, m := range modes {
		for _, r := range rates {
			pts = append(pts, point{m, r})
		}
	}
	type outcome struct {
		st       cluster.Stats
		err      error
		injected int
		repaired int
		dead     int
	}
	results := sweep.Run(len(pts), 0, func(i int) outcome {
		pt := pts[i]
		progs := make([]repro.Program, 4)
		for j := range progs {
			progs[j] = PhasedWorkload(int64(7 + j))
		}
		params := cpu.DefaultParams()
		params.Cores = 4
		params.ClusterMode = pt.mode
		params.ClusterArbiter = "demand-weighted"
		params.FaultTransientRate = pt.rate
		params.FaultPermanentRate = pt.rate / 10
		params.FaultSeed = 55
		c := cluster.NewMulti(progs, repro.Options{Params: params, Policy: repro.PolicySteering})
		st, err := c.Run(MaxCycles)
		var o outcome
		o.st, o.err = st, err
		for j := 0; j < c.Cores(); j++ {
			fs := c.Core(j).Processor().Fabric().FaultStats()
			o.injected += fs.InjectedTransient + fs.InjectedPermanent
			o.repaired += fs.Repaired
			o.dead += fs.DeadSlots
		}
		return o
	})

	t := stats.NewTable("aggregate IPC and fault pipeline vs upset rate, by mode",
		"mode", "transient rate", "aggregate IPC", "fairness", "injected", "repaired", "dead slots")
	for i, pt := range pts {
		r := results[i]
		rateLabel := "off"
		if pt.rate > 0 {
			rateLabel = fmt.Sprintf("%.0e", pt.rate)
		}
		if r.err != nil {
			t.AddRow(pt.mode, rateLabel, "DNF", "-", r.injected, r.repaired, r.dead)
			continue
		}
		t.AddRow(pt.mode, rateLabel,
			fmtIPC(r.st.AggregateIPC()), fmt.Sprintf("%.3f", r.st.Fairness()),
			r.injected, r.repaired, r.dead)
	}
	b.WriteString(t.String())
	b.WriteString("\nMerged mode gives every core the full 8-slot fabric, so it leads when\nupsets are rare; each repair it schedules stalls all K cores' shared\nlayout. Split mode pays a standing partition tax but contains each\nupset to the 2-slot share of one core — the degraded-mode masks stay\nlocal, and fairness holds up better as the rate climbs.\n")
	return b.String()
}

// All runs every artefact and study in order.
func All() string {
	sections := []struct {
		name string
		f    func() string
	}{
		{"table1", Table1}, {"fig1", Fig1}, {"fig2", Fig2}, {"fig3", Fig3},
		{"fig5", Fig5}, {"fig7", Fig7}, {"cost", CostTable},
		{"x1", X1}, {"x1seeds", X1Seeds}, {"x2", X2}, {"x3", X3}, {"x4", X4}, {"x5", X5}, {"x6", X6}, {"x7", X7}, {"x8", X8}, {"x9", X9}, {"x10", X10}, {"x11", X11}, {"x12", X12}, {"x13", X13}, {"x14", X14}, {"x15", X15}, {"x16", X16}, {"x17", X17}, {"x18", X18}, {"x19", X19}, {"x20", X20}, {"x21", X21}, {"x22", X22}, {"x23", X23},
	}
	var b strings.Builder
	for i, s := range sections {
		if i > 0 {
			b.WriteString("\n" + strings.Repeat("=", 78) + "\n\n")
		}
		b.WriteString(s.f())
	}
	return b.String()
}

// Artifacts maps CLI artefact names to their generators.
func Artifacts() map[string]func() string {
	return map[string]func() string{
		"table1":  Table1,
		"fig1":    Fig1,
		"fig2":    Fig2,
		"fig3":    Fig3,
		"fig4":    Fig5, // figures 4-6 are one worked example
		"fig5":    Fig5,
		"fig6":    Fig5,
		"fig7":    Fig7,
		"cost":    CostTable,
		"x1":      X1,
		"x1seeds": X1Seeds,
		"x2":      X2,
		"x3":      X3,
		"x4":      X4,
		"x5":      X5,
		"x6":      X6,
		"x7":      X7,
		"x8":      X8,
		"x9":      X9,
		"x10":     X10,
		"x11":     X11,
		"x12":     X12,
		"x13":     X13,
		"x14":     X14,
		"x15":     X15,
		"x16":     X16,
		"x17":     X17,
		"x18":     X18,
		"x19":     X19,
		"x20":     X20,
		"x21":     X21,
		"x22":     X22,
		"x23":     X23,
		"all":     All,
	}
}
