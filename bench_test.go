// Benchmarks, one per paper artefact and extension study (see DESIGN.md
// §5): the circuit-level mechanisms behind Table 1 and Figures 2-7, and
// full-machine runs for X1-X6. Simulator benchmarks report IPC and
// simulated Mcycles/s as custom metrics.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/avail"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hwcost"
	"repro/internal/isa"
	"repro/internal/rfu"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wakeup"
	"repro/internal/workload"
)

// --- Table 1: configuration construction and counting -----------------

func BenchmarkTable1ConfigurationCounts(b *testing.B) {
	basis := config.DefaultBasis()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range basis {
			_ = cfg.Counts()
		}
	}
}

// --- Figure 2: the four-stage selection unit ---------------------------

func BenchmarkFig2SelectionUnit(b *testing.B) {
	fabric := rfu.New(8)
	m := core.NewManager(fabric, config.DefaultBasis())
	demands := make([]arch.Counts, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range demands {
		left := arch.QueueSize
		for t := range demands[i] {
			v := rng.Intn(left + 1)
			demands[i][t] = v
			left -= v
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Select(demands[i%len(demands)])
	}
}

func BenchmarkFig2SelectionCircuit(b *testing.B) {
	errs := [arch.NumConfigs]int{3, 1, 4, 1}
	dists := [arch.NumConfigs]int{0, 5, 2, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.CircuitMinimalErrorSelect(errs, dists)
	}
}

// --- Figure 3: configuration error metric ------------------------------

func BenchmarkFig3CEMBehavioural(b *testing.B) {
	req := arch.Counts{3, 1, 2, 0, 1}
	av := arch.Counts{5, 2, 3, 1, 1}
	for i := 0; i < b.N; i++ {
		_ = cem.Error(req, av)
	}
}

func BenchmarkFig3CEMExactDivider(b *testing.B) {
	req := arch.Counts{3, 1, 2, 0, 1}
	av := arch.Counts{5, 2, 3, 1, 1}
	for i := 0; i < b.N; i++ {
		_ = cem.ErrorExact(req, av)
	}
}

func BenchmarkFig3CEMGateLevel(b *testing.B) {
	req := arch.Counts{3, 1, 2, 0, 1}
	av := arch.Counts{5, 2, 3, 1, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cem.CircuitError(req, av)
	}
}

// --- Figures 4-6: wake-up array -----------------------------------------

func BenchmarkFig5WakeupArrayCycle(b *testing.B) {
	unitAvail := [arch.NumUnitTypes]bool{}
	for i := range unitAvail {
		unitAvail[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := wakeup.PaperExample()
		b.StartTimer()
		for done := 0; done < 7; {
			for _, r := range a.Requests(unitAvail) {
				a.Grant(r)
				done++
			}
			a.Tick()
		}
	}
}

func BenchmarkFig6RowCircuit(b *testing.B) {
	needUnit := [arch.NumUnitTypes]bool{2: true}
	availUnit := [arch.NumUnitTypes]bool{0: true, 2: true, 4: true}
	depNeed := []bool{true, false, true, false, false, false, true}
	depOK := []bool{true, true, true, false, false, true, true}
	for i := 0; i < b.N; i++ {
		_ = wakeup.CircuitRequest(needUnit, availUnit, depNeed, depOK, false)
	}
}

// --- Figure 7 / Eq. 1: availability ------------------------------------

func BenchmarkFig7AvailabilityBehavioural(b *testing.B) {
	v := config.NewAllocationVector()
	v.Slots = config.DefaultBasis()[0].Layout
	alloc := v.Entries()
	sigs := make([]bool, len(alloc))
	for i := range sigs {
		sigs[i] = i%2 == 0
	}
	for i := 0; i < b.N; i++ {
		_ = avail.AllAvailable(alloc, sigs)
	}
}

func BenchmarkFig7AvailabilityGateLevel(b *testing.B) {
	v := config.NewAllocationVector()
	v.Slots = config.DefaultBasis()[0].Layout
	alloc := v.Entries()
	sigs := make([]bool, len(alloc))
	for i := range sigs {
		sigs[i] = i%2 == 0
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = avail.CircuitAvailable(arch.LSU, alloc, sigs)
	}
}

// --- Full-machine studies ------------------------------------------------

// benchRun runs prog under the policy once per iteration, reporting IPC
// and simulated Mcycles/s.
func benchRun(b *testing.B, prog isa.Program, params cpu.Params, policy cpu.Policy) {
	b.Helper()
	if policy == cpu.PolicyOracle {
		params.ReconfigLatency = 1
	}
	var lastStats cpu.Stats
	totalCycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := repro.NewMachine(prog, repro.Options{Policy: policy, Params: params}).Run(50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		lastStats = st
		totalCycles += st.Cycles
	}
	b.StopTimer()
	b.ReportMetric(lastStats.IPC(), "IPC")
	b.ReportMetric(float64(totalCycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
}

// Analytic fast path: EstimateIPC on the X1 phased program (exact
// profile) and on a production-scale 1M-instruction program (strided
// sampling). The sampled variant is the /v1/estimate hot path — its
// cost must stay roughly constant in program length.
func BenchmarkEstimate(b *testing.B) {
	pattern := []workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
		{Mix: workload.MixMemHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
	}
	var long []workload.Phase
	for i := 0; i < 500; i++ {
		long = append(long, pattern...)
	}
	for _, tc := range []struct {
		name string
		prog isa.Program
	}{
		{"X1Exact2k", workload.Synthesize(pattern, workload.SynthParams{Seed: 7})},
		{"Sampled1M", workload.Synthesize(long, workload.SynthParams{Seed: 7})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var est repro.Estimate
			for i := 0; i < b.N; i++ {
				var err error
				est, err = repro.EstimateIPC(tc.prog, repro.Options{Policy: cpu.PolicySteering})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(est.PredictedIPC, "predictedIPC")
		})
	}
}

// X1: steering vs baselines on the phased workload.
func BenchmarkX1Phased(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
		{Mix: workload.MixMemHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
	}, workload.SynthParams{Seed: 7})
	for _, policy := range []cpu.Policy{cpu.PolicySteering, cpu.PolicyStaticInteger, cpu.PolicyNone, cpu.PolicyFullReconfig, cpu.PolicyOracle} {
		b.Run(policy.String(), func(b *testing.B) {
			benchRun(b, prog, cpu.DefaultParams(), policy)
		})
	}
}

// X1 (kernels): every library kernel under steering.
func BenchmarkX1Kernels(b *testing.B) {
	for _, k := range workload.Kernels() {
		b.Run(k.Name, func(b *testing.B) {
			prog := k.Program()
			var last cpu.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := cpu.New(prog, cpu.DefaultParams())
				p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
				if k.Setup != nil {
					k.Setup(p.Memory(), p.SetReg)
				}
				err := cpu.Run(context.Background(), p, 50_000_000)
				st := p.Stats()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.IPC(), "IPC")
		})
	}
}

// X2: reconfiguration latency sweep.
func BenchmarkX2ReconfigLatency(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 7})
	for _, lat := range []int{1, 8, 64, 256} {
		b.Run(itoa(lat), func(b *testing.B) {
			params := cpu.DefaultParams()
			params.ReconfigLatency = lat
			benchRun(b, prog, params, cpu.PolicySteering)
		})
	}
}

// X3: approximate vs exact CEM inside a live manager.
func BenchmarkX3CEMAblation(b *testing.B) {
	for _, exact := range []bool{false, true} {
		name := "approx"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			fabric := rfu.New(8)
			m := core.NewManager(fabric, config.DefaultBasis())
			m.ExactCEM = exact
			req := arch.Counts{2, 1, 2, 1, 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Select(req)
			}
		})
	}
}

// X4: the FFU-ablated machine under steering.
func BenchmarkX4NoFFUSteering(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixFPHeavy, Instructions: 600},
	}, workload.SynthParams{Seed: 5})
	params := cpu.DefaultParams()
	params.DisableFFUs = true
	benchRun(b, prog, params, cpu.PolicySteering)
}

// X5: window-size sweep.
func BenchmarkX5Window(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixUniform, Instructions: 800},
	}, workload.SynthParams{Seed: 3})
	for _, w := range []int{4, 7, 16, 32} {
		b.Run(itoa(w), func(b *testing.B) {
			params := cpu.DefaultParams()
			params.WindowSize = w
			benchRun(b, prog, params, cpu.PolicySteering)
		})
	}
}

// X6: alternate steering bases.
func BenchmarkX6Basis(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixFPHeavy, Instructions: 400},
		{Mix: workload.MixIntHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 2})
	bases := map[string][3]config.Configuration{
		"default": config.DefaultBasis(),
		"fp-rich": {
			config.MustNew("fp-a", arch.FPALU, arch.FPMDU, arch.IntALU, arch.LSU),
			config.MustNew("fp-b", arch.FPMDU, arch.FPMDU, arch.IntALU, arch.LSU),
			config.MustNew("fp-c", arch.FPALU, arch.FPALU, arch.IntALU, arch.LSU),
		},
	}
	for name, basis := range bases {
		b.Run(name, func(b *testing.B) {
			var last cpu.Stats
			for i := 0; i < b.N; i++ {
				p := cpu.New(prog, cpu.DefaultParams())
				m := core.NewManager(p.Fabric(), basis)
				p.SetManager(m)
				err := cpu.Run(context.Background(), p, 50_000_000)
				st := p.Stats()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.IPC(), "IPC")
		})
	}
}

// X7: demand-driven synthesis manager.
func BenchmarkX7DemandManager(b *testing.B) {
	fabric := rfu.New(8)
	m := core.NewDemandManager(fabric)
	demands := []arch.Counts{
		{4, 1, 2, 0, 0}, {1, 0, 1, 3, 2}, {2, 0, 4, 1, 0}, {2, 2, 1, 1, 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(demands[i%len(demands)])
		fabric.Tick()
	}
}

// X8: full steering run with per-window sampling (the timeline workload).
func BenchmarkX8TimelineRun(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 7})
	benchRun(b, prog, cpu.DefaultParams(), cpu.PolicySteering)
}

// X9: select-free vs ideal select.
func BenchmarkX9SelectFree(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixMemHeavy, Instructions: 800},
	}, workload.SynthParams{Seed: 10})
	for _, mode := range []string{"ideal", "select-free"} {
		b.Run(mode, func(b *testing.B) {
			params := cpu.DefaultParams()
			params.SelectFree = mode == "select-free"
			benchRun(b, prog, params, cpu.PolicySteering)
		})
	}
}

// HW: netlist construction cost for the full selection unit.
func BenchmarkHWCostSelectionUnit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = hwcost.SelectionUnit()
	}
}

// observe attaches the given sinks to p through one observer.
func observe(p *cpu.Processor, sinks ...trace.Sink) {
	obs := &trace.Observer{}
	for _, s := range sinks {
		obs.Add(s)
	}
	p.SetObserver(obs)
}

// Trace overhead: the same run with and without event recording.
func BenchmarkTraceOverhead(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixUniform, Instructions: 500},
	}, workload.SynthParams{Seed: 4})
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := cpu.New(prog, cpu.DefaultParams())
				p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
				if traced {
					observe(p, trace.NewBuffer(1<<16))
				}
				if err := cpu.Run(context.Background(), p, 50_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Telemetry overhead: the X8 timeline workload with no observer (the
// path every production run without -metrics takes — one nil check per
// event site), and with a live probe sampling every 100 cycles into an
// in-memory collector. The "off" case must stay within 2% of
// the pre-telemetry seed (see EXPERIMENTS.md).
func BenchmarkTelemetryOverhead(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 7})
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := repro.NewMachine(prog, repro.Options{})
				if mode == "on" {
					m.EnableTelemetryExporter(&telemetry.Collector{}, 100)
				}
				if _, err := m.Run(50_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Span-recorder overhead: the same workload with no observer (every
// event site reduces to a nil check) and with the recorder attached (recording into
// preallocated storage plus the per-window trigger evaluation). Both
// cases must stay within 2% of each other — the recorder is designed
// to be cheap enough to leave on. The workload is deliberately long:
// building a default-size recorder zeroes ~4 MB of preallocated trace
// once per run, which would dominate a millisecond-scale benchmark but
// amortizes to nothing over a realistic campaign.
func BenchmarkSpanOverhead(b *testing.B) {
	prog := workload.Synthesize(workload.AlternatingPhases(60_000, 500),
		workload.SynthParams{Seed: 7})
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := cpu.New(prog, cpu.DefaultParams())
				p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
				if mode == "on" {
					observe(p, span.NewRecorder(span.Config{}, arch.NumRFUSlots))
				}
				if err := cpu.Run(context.Background(), p, 50_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fault-path overhead: the same workload with the injector absent (the
// production default — the fabric tick sees one nil check) and with a
// live transient-fault campaign including scrubbing and repair. The
// "off" case must stay within 2% of the pre-fault seed.
func BenchmarkFaultPathOverhead(b *testing.B) {
	prog := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 7})
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			params := cpu.DefaultParams()
			if mode == "on" {
				params.FaultTransientRate = 0.001
				params.FaultPermanentRate = 0.0001
				params.FaultSeed = 9
			}
			for i := 0; i < b.N; i++ {
				p := cpu.New(prog, params)
				p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
				if err := cpu.Run(context.Background(), p, 50_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkAssembler(b *testing.B) {
	k := workload.KernelByName("matmul")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := isa.Assemble(k.Source); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeProgram(b *testing.B) {
	prog := workload.KernelByName("matmul").Program()
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.DecodeProgram(words); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalInterpreter(b *testing.B) {
	k := workload.KernelByName("dot")
	prog := k.Program()
	for i := 0; i < b.N; i++ {
		m := repro.NewMachine(prog, repro.Options{Policy: repro.PolicyNone})
		_ = m // machine construction cost included; run below dominates
		s := &isa.State{Mem: m.Processor().Memory()}
		if k.Setup != nil {
			k.Setup(m.Processor().Memory(), s.WriteReg)
		}
		if _, err := isa.Run(prog, s, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep throughput ------------------------------------------------

// sweepProg is the homogeneous 64-point sweep workload: one program,
// seeds 0..63.
func sweepProg() repro.Program {
	return repro.Synthesize(repro.AlternatingPhases(3000, 250), 7)
}

func sweepOptions(seed int64) repro.Options {
	return repro.Options{
		Params: repro.DefaultParams(),
		Policy: repro.PolicySteering,
		Seed:   seed,
	}
}

// BenchmarkScalarSweep64 simulates 64 points one after another on a
// single goroutine, the way a naive sweep loop runs a grid; Mcycles/s is
// the per-core simulation throughput a sweep scales from.
func BenchmarkScalarSweep64(b *testing.B) {
	prog := sweepProg()
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 64; s++ {
			m := repro.NewMachine(prog, sweepOptions(int64(s)))
			st, err := m.Run(2_000_000)
			if err != nil {
				b.Fatal(err)
			}
			total += st.Cycles
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
