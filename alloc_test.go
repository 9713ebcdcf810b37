// Zero-allocation regression tests for the per-cycle fast path (see
// ARCHITECTURE.md §10). Each test pins a hot function at 0 allocations
// over a window of calls, so an accidental escape or slice regrowth
// fails CI instead of silently eroding simulator throughput. The race
// detector instruments allocations, so these skip under -race; CI runs
// them in a dedicated non-race step.
package repro_test

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/avail"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/rfu"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wakeup"
)

// fig2Demands mirrors BenchmarkFig2SelectionUnit's demand stream: 64
// pseudo-random requirement vectors summing to at most the queue size.
func fig2Demands() []arch.Counts {
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
	return demands
}

// requireZeroAllocs pins fn at zero allocations over a window of n
// calls. testing.AllocsPerRun divides the malloc count by its runs in
// integer arithmetic, so an allocation made less than once per call
// would read as zero; one run over a closure making all n calls counts
// every malloc of the window.
func requireZeroAllocs(t *testing.T, what string, n int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	window := func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}
	if allocs := testing.AllocsPerRun(1, window); allocs != 0 {
		t.Errorf("%s: %.0f allocs in %d calls, want 0", what, allocs, n)
	}
}

// TestZeroAllocTraceRing pins the ring behind the bounded logs (the
// pipeline buffer, the span flight ring, the service recorder): a push
// writes into storage allocated once, wrapped or not.
func TestZeroAllocTraceRing(t *testing.T) {
	r := trace.NewRing[span.Entry](64)
	e := span.Entry{Kind: span.KindFault, Name: "inject", Aux: "transient"}
	requireZeroAllocs(t, "trace.Ring.Push", 1000, func() {
		e.Start++
		r.Push(e)
	})
	if r.Len() != 64 {
		t.Errorf("len %d after wrapping, want 64", r.Len())
	}
}

// TestZeroAllocTelemetryRows pins the telemetry exporters' per-row
// writes: once a row buffer has grown, each JSONL record and each CSV
// sample row is appended into it and written without allocating.
func TestZeroAllocTelemetryRows(t *testing.T) {
	s := telemetry.Sample{Cycle: 100, Retired: 75, IntervalIPC: 0.75, Occupancy: 12,
		Demand: arch.Counts{3, 1, 2, 0, 1}, CEMValid: true, CEMErrors: [arch.NumConfigs]int{4, 3, 2, 1}}
	d := telemetry.Decision{Cycle: 101, From: "(empty)", To: "floating", Choice: 3, Spans: 2}
	f := telemetry.FaultEvent{Cycle: 102, Slot: 3, Event: telemetry.FaultInjectedTransient}
	p := telemetry.PrefetchEvent{Cycle: 103, Event: telemetry.PrefetchIssue, Config: "floating", Spans: 1, ConfidencePct: 80}
	jsonl := telemetry.NewJSONL(io.Discard)
	csv := telemetry.NewCSV(io.Discard)
	for _, tc := range []struct {
		what  string
		write func() error
	}{
		{"JSONL.Sample", func() error { return jsonl.Sample(&s) }},
		{"JSONL.Decision", func() error { return jsonl.Decision(&d) }},
		{"JSONL.Fault", func() error { return jsonl.Fault(&f) }},
		{"JSONL.Prefetch", func() error { return jsonl.Prefetch(&p) }},
		{"CSV.Sample", func() error { return csv.Sample(&s) }},
	} {
		if err := tc.write(); err != nil { // warm-up: header, buffer growth
			t.Fatal(err)
		}
		requireZeroAllocs(t, "telemetry."+tc.what, 200, func() {
			if err := tc.write(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestZeroAllocManagerSelect(t *testing.T) {
	m := core.NewManager(rfu.New(8), config.DefaultBasis())
	demands := fig2Demands()
	// Warm the steering cache and any lazily sized scratch.
	for _, d := range demands {
		_ = m.Select(d)
	}
	i := 0
	requireZeroAllocs(t, "core.Manager.Select (cached)", 200, func() {
		_ = m.Select(demands[i%len(demands)])
		i++
	})

	// The miss path (CEM generators + gate-level selection) must be
	// allocation-free too: disabling the cache forces it every call.
	m.DisableCache = true
	requireZeroAllocs(t, "core.Manager.Select (uncached)", 200, func() {
		_ = m.Select(demands[i%len(demands)])
		i++
	})
}

// TestZeroAllocManagerStep pins the managers' steady Step paths: with
// the demand and the (unticked) fabric unchanged, each Step repeats the
// previous cycle — for the steering manager both a kept configuration
// and a load whose spans are all still reconfiguring (deferrals), both
// served by the steering cache, for the demand manager a synthesis read
// from its tables that started nothing.
func TestZeroAllocManagerStep(t *testing.T) {
	kept := core.NewManager(rfu.New(0), config.DefaultBasis())
	fp := arch.Counts{0, 0, 1, 3, 3}
	kept.Step(fp) // installs the floating layout at once
	requireZeroAllocs(t, "core.Manager.Step (cache hit, current)", 200, func() {
		kept.Step(fp)
	})

	deferring := core.NewManager(rfu.New(8), config.DefaultBasis())
	deferring.Step(fp) // starts the rewrites; without ticks they stay in flight
	deferring.Step(arch.Counts{3, 1, 2, 0, 0})
	before := deferring.Stats().DeferredSlots
	requireZeroAllocs(t, "core.Manager.Step (cache hit, deferred load)", 200, func() {
		deferring.Step(arch.Counts{3, 1, 2, 0, 0})
	})
	if deferring.Stats().DeferredSlots == before {
		t.Error("no slots deferred; the deferred-load path was not exercised")
	}

	demand := core.NewDemandManager(rfu.New(8))
	demand.Step(fp)
	demand.Step(arch.Counts{3, 1, 2, 0, 0})
	requireZeroAllocs(t, "core.DemandManager.Step (table hit)", 200, func() {
		demand.Step(arch.Counts{3, 1, 2, 0, 0})
	})
}

func TestZeroAllocCEM(t *testing.T) {
	req := arch.Counts{3, 1, 2, 0, 1}
	av := arch.Counts{5, 2, 3, 1, 1}
	requireZeroAllocs(t, "cem.Error", 200, func() {
		_ = cem.Error(req, av)
	})
	requireZeroAllocs(t, "cem.CircuitError", 200, func() {
		_ = cem.CircuitError(req, av)
	})
}

func TestZeroAllocCircuitMinimalErrorSelect(t *testing.T) {
	errs := [arch.NumConfigs]int{3, 1, 4, 1}
	dists := [arch.NumConfigs]int{0, 5, 2, 8}
	requireZeroAllocs(t, "core.CircuitMinimalErrorSelect", 200, func() {
		_ = core.CircuitMinimalErrorSelect(errs, dists)
	})
}

func TestZeroAllocAvailabilityCircuit(t *testing.T) {
	v := config.NewAllocationVector()
	v.Slots = config.DefaultBasis()[0].Layout
	alloc := v.Entries()
	sigs := make([]bool, len(alloc))
	for i := range sigs {
		sigs[i] = i%2 == 0
	}
	requireZeroAllocs(t, "avail.CircuitAvailable", 200, func() {
		_ = avail.CircuitAvailable(arch.LSU, alloc, sigs)
	})
}

func TestZeroAllocWakeupRowCircuit(t *testing.T) {
	needUnit := [arch.NumUnitTypes]bool{2: true}
	availUnit := [arch.NumUnitTypes]bool{0: true, 2: true, 4: true}
	depNeed := []bool{true, false, true, false, false, false, true}
	depOK := []bool{true, true, true, false, false, true, true}
	requireZeroAllocs(t, "wakeup.CircuitRequest", 200, func() {
		_ = wakeup.CircuitRequest(needUnit, availUnit, depNeed, depOK, false)
	})
}

// steadyLoop is an endless-for-test-purposes loop mixing integer,
// multiply, load/store and FP work so the steady-state cycle exercises
// fetch, dispatch, wake-up, execution (including the memory shim),
// branch resolution and steering — every subsystem the fast path spans.
const steadyLoop = `
	li r10, 0x1000
	li r1, 0
	li r2, 100000000
	li r4, 3
	fcvt.s.w f1, r4
loop:
	addi r1, r1, 1
	mul r3, r1, r2
	sw r3, 0(r10)
	lw r5, 0(r10)
	add r6, r5, r3
	fmul f2, f1, f1
	fadd f3, f2, f1
	bne r1, r2, loop
	halt
`

func TestZeroAllocMachineCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.New(prog, cpu.DefaultParams())
	p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
	// Warm up: fill the trace cache, grow the fetch buffer and scratch
	// slices to their steady-state capacities, and converge the steering
	// cache. The loop body is far longer than the measured window, so
	// the program cannot halt mid-measurement.
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	requireZeroAllocs(t, "steady-state Machine cycle", 2000, p.Cycle)
}

// divLoop is a loop whose divides each wait on the one before: once
// the window fills, every cycle of a divide's latency but the last is
// quiet, so cpu.Run jumps the clock over most of them (the cpu
// package's TestSkipJumpsQuietStretches counts the jumps on the same
// loop shape).
const divLoop = `
	li r1, 0
	li r2, 100000000
	li r3, 3
	li r4, 1000000
loop:
	div r4, r4, r3
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`

// TestZeroAllocRunSkipping pins the run loop with its clock jump: a
// warmed-up steering machine driven through cpu.Run across skipped
// stretches makes no mallocs. Each call stops on a context poll
// (pollLimit), which returns a preallocated error, so the window holds
// only the run itself.
func TestZeroAllocRunSkipping(t *testing.T) {
	prog, err := isa.Assemble(divLoop)
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.New(prog, cpu.DefaultParams())
	p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
	ctx := &pollLimit{Context: context.Background()}
	ctx.n = 40
	if err := cpu.Run(ctx, p, math.MaxInt); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm-up: err = %v, want the poll limit's cancellation", err)
	}
	requireZeroAllocs(t, "cpu.Run over quiet stretches", 5, func() {
		ctx.n = 4
		if err := cpu.Run(ctx, p, math.MaxInt); err != context.Canceled {
			t.Fatal(err)
		}
	})
	if p.Halted() {
		t.Fatal("workload halted; the window did not run")
	}
}

// TestZeroAllocMachineCycleWithFaults pins the fault-injection path:
// the per-cycle draw loop, scrub countdown, repair scheduler and health
// mask recomputation all run over fixed-size arrays and must not
// allocate either. (The disabled path — injector nil — is pinned by
// TestZeroAllocMachineCycle above.)
func TestZeroAllocMachineCycleWithFaults(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams()
	params.FaultTransientRate = 0.001
	params.FaultSeed = 9
	p := cpu.New(prog, params)
	p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	requireZeroAllocs(t, "steady-state cycle with faults enabled", 2000, p.Cycle)
}

// TestZeroAllocMachineCycleWithSpans pins the instrumented cycle path:
// with the machine's observer carrying a span recorder and a telemetry
// probe reading the facade's state source (and faults injecting so the
// fault and repair events actually fire), event fan-out passes values,
// recording goes into preallocated storage and sampling reads counters
// by value, so the steady-state cycle must still not allocate. The
// probe has no exporter here: the JSONL exporter's json.Marshal
// allocates per record and is not pinned (ROADMAP item 9), but the
// probe hands every exporter pointers into records it owns, so
// attaching one adds only the exporter's own allocations. (The
// unobserved path is pinned by TestZeroAllocMachineCycle above: each
// site reduces to one predictable branch.)
func TestZeroAllocMachineCycleWithSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams()
	params.FaultTransientRate = 0.001
	params.FaultSeed = 9
	m := repro.NewMachine(prog, repro.Options{Policy: repro.PolicyPrefetch, Params: params})
	rec := m.EnableSpans(repro.SpanConfig{})
	probe := m.EnableTelemetryExporter(nil, 100)
	p := m.Processor()
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	requireZeroAllocs(t, "steady-state cycle with span recorder", 2000, p.Cycle)
	if len(rec.Entries()) == 0 {
		t.Error("span recorder captured nothing; the instrumented path was not exercised")
	}
	if v, _ := probe.Registry().CounterValue("rsssim_cycles_total"); v == 0 {
		t.Error("telemetry probe counted nothing; the instrumented path was not exercised")
	}
}

// TestZeroAllocMachineCycleWithPrefetch pins the prediction path: the
// demand-history ring, phase detector, Markov update and speculation
// gates run every cycle under the prefetch policy and must not
// allocate once the manager's scratch buffers have grown.
func TestZeroAllocMachineCycleWithPrefetch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.New(prog, cpu.DefaultParams())
	p.SetManager(predict.NewManager(p.Fabric(), config.DefaultBasis(), predict.Config{}))
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	requireZeroAllocs(t, "steady-state cycle with prefetch policy", 2000, p.Cycle)
}
