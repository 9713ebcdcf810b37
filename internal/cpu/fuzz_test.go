package cpu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/workload"
)

// TestDifferentialFuzzBranchy generates random control-flow-heavy
// programs and checks that the pipelined simulator's architectural
// outcome — registers, memory, dynamic instruction count — is
// bit-identical to the functional interpreter under several policies and
// machine shapes. This is the main speculation/squash/store-buffer fuzz.
func TestDifferentialFuzzBranchy(t *testing.T) {
	const memBytes = 1 << 16
	policies := []string{"steering", "none", "full-reconfig", "static-int"}
	shapes := []Params{
		{},
		{WindowSize: 4, IssueWidth: 2, DispatchWidth: 2, RetireWidth: 2},
		{WindowSize: 16, IssueWidth: 8, DispatchWidth: 8, RetireWidth: 8, SelectFree: true},
		{CacheSets: 2, CacheLineBytes: 8, CacheMissPenalty: 25},
		{ManagerLookahead: true, ConfigBusWidth: 1},
		{IssueOrder: OrderRotate, GshareHistoryBits: 6},
		{IssueOrder: OrderYoungest, ReconfigLatency: 32},
	}
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		prog := workload.SynthesizeBranchy(20, workload.SynthParams{Seed: int64(seed)})
		ref := &isa.State{Mem: mem.NewMemory(memBytes)}
		steps, err := isa.Run(prog, ref, 10_000_000)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}

		policy := policies[seed%len(policies)]
		shape := shapes[seed%len(shapes)]
		shape.MemBytes = memBytes
		p := buildProcessor(prog, shape, policy)
		stats, err := p.Run(10_000_000)
		if err != nil {
			t.Fatalf("seed %d policy %s: %v", seed, policy, err)
		}
		checkArchState(t, fmt.Sprintf("seed %d policy %s", seed, policy), p, stats, steps, ref, memBytes)
	}
}

// TestDifferentialFuzzStraightline runs the straight-line synthesizer
// across many seeds as a lighter-weight complement.
func TestDifferentialFuzzStraightline(t *testing.T) {
	const memBytes = 1 << 16
	seeds := 15
	if testing.Short() {
		seeds = 3
	}
	for seed := 100; seed < 100+seeds; seed++ {
		prog := workload.Synthesize([]workload.Phase{
			{Mix: workload.MixUniform, Instructions: 400},
		}, workload.SynthParams{Seed: int64(seed), DepDensity: 0.7})
		ref := &isa.State{Mem: mem.NewMemory(memBytes)}
		steps, err := isa.Run(prog, ref, 10_000_000)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		p := buildProcessor(prog, Params{MemBytes: memBytes}, "steering")
		stats, err := p.Run(10_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.Retired != steps {
			t.Errorf("seed %d: retired %d, reference %d", seed, stats.Retired, steps)
		}
		for r := uint8(0); r < isa.NumRegs; r++ {
			if p.Reg(r) != ref.ReadReg(r) {
				t.Errorf("seed %d: register %s differs", seed, isa.RegName(r))
			}
		}
	}
}

// FuzzCycleModel is the cycle model's coverage-guided oracle. The input
// drives SynthesizeBranchy's seed and size plus one machine draw
// (drawMachine) that passes Params.Validate: policy, window, widths,
// latencies, prefetch, predictor and caches. Three properties must
// hold. The architectural state at HALT — registers, memory, retired
// count — equals isa.Run's. Run, which jumps the clock over quiet
// cycles, gives bit-identical processor stats, manager stats (cache
// counters included), busy cycles, reconfigurations and final fabric
// layout to the Cycle-only reference loop; a fixed point Run reports
// (ErrNoProgress) must retire nothing in 100k more reference cycles.
// And under the policies built on the steering manager, a run with
// DisableCache gives bit-identical processor stats, manager stats (bar
// the cache counters) and final fabric layout.
func FuzzCycleModel(f *testing.F) {
	f.Add(int64(0), uint8(20), []byte{})
	f.Add(int64(1), uint8(12), []byte{1, 7, 4, 4, 4, 3, 1})
	f.Add(int64(2), uint8(31), []byte{2, 16, 2, 8, 2, 6, 0, 1, 3, 5, 2, 9, 4, 6, 3, 12, 20, 5, 8, 5, 8, 3, 2, 1, 1, 1, 30, 3})
	f.Add(int64(3), uint8(5), []byte{6, 64, 8, 1, 8, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 0, 10, 0, 6, 0, 0, 0, 0, 1, 0, 1, 64, 5})
	f.Add(int64(4), uint8(24), []byte{5, 0, 0, 0, 0, 7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1})
	f.Add(int64(5), uint8(18), []byte{7, 16, 4, 4, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2})
	f.Add(int64(6), uint8(27), []byte{7, 64, 8, 8, 8, 4, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1})
	// Steering with a residency timer at latency 4: loads suppressed
	// through quiet stretches.
	f.Add(int64(1), uint8(19), []byte{4, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, draw []byte) {
		const memBytes = 1 << 16
		// The generated programs retire at most a few hundred
		// instructions, so this budget allows a CPI of about 200.
		const maxCycles = 100_000
		prog := workload.SynthesizeBranchy(1+int(size)%32, workload.SynthParams{Seed: seed})
		ref := &isa.State{Mem: mem.NewMemory(memBytes)}
		steps, err := isa.Run(prog, ref, maxCycles)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}

		m := drawMachine(draw)
		m.params.MemBytes = memBytes
		if err := m.params.Validate(); err != nil {
			t.Fatalf("draw %+v: %v", m, err)
		}
		p, mgr := m.build(prog, false)
		stats, err := p.Run(maxCycles)
		loop, loopMgr := m.build(prog, false)
		loopStats, _ := loop.runCycles(stats.Cycles)
		label := fmt.Sprintf("%s %+v", m.policy, m.params)
		if loopStats != stats {
			t.Fatalf("%s: stats diverge from the reference loop:\n  run:       %+v\n  reference: %+v", label, stats, loopStats)
		}
		if mgr != nil && mgr.Stats() != loopMgr.Stats() {
			t.Fatalf("%s: manager stats diverge from the reference loop:\n  run:       %+v\n  reference: %+v", label, mgr.Stats(), loopMgr.Stats())
		}
		f, rf := p.Fabric(), loop.Fabric()
		if f.BusyCycles() != rf.BusyCycles() || f.Reconfigurations() != rf.Reconfigurations() ||
			f.Allocation().Slots != rf.Allocation().Slots {
			t.Fatalf("%s: fabric diverges from the reference loop: busy %d/%d, reconfigurations %d/%d, layout %v/%v", label,
				f.BusyCycles(), rf.BusyCycles(), f.Reconfigurations(), rf.Reconfigurations(), f.Allocation().Slots, rf.Allocation().Slots)
		}
		switch {
		case errors.Is(err, ErrNoProgress) && m.params.DisableFFUs:
			// A fixed point: the reference must not retire again.
			if more, _ := loop.runCycles(stats.Cycles + 100_000); more.Retired != stats.Retired {
				t.Fatalf("%s: %v, yet the reference loop retired %d more by cycle %d", label, err, more.Retired-stats.Retired, more.Cycles)
			}
		case errors.Is(err, ErrCycleLimit) && m.params.DisableFFUs && m.policy == "prefetch":
			// Without the FFUs a unit type the manager never configures
			// starves the queue: Run's documented X4 outcome, with no
			// HALT state to compare. Prefetch never skips, so its
			// starvation runs to the budget rather than stopping at a
			// fixed point. Cached and uncached must still starve alike.
		case err != nil:
			t.Fatalf("%s %+v: %v", m.policy, m.params, err)
		default:
			checkArchState(t, fmt.Sprintf("%s %+v", m.policy, m.params), p, stats, steps, ref, memBytes)
		}
		if mgr == nil {
			return
		}

		plainP, plainMgr := m.build(prog, true)
		plainStats, plainErr := plainP.Run(maxCycles)
		if (err == nil) != (plainErr == nil) {
			t.Fatalf("%s %+v: cached run err %v, uncached %v", m.policy, m.params, err, plainErr)
		}
		if plainStats != stats {
			t.Fatalf("%s %+v: processor stats diverge:\n  cached:   %+v\n  uncached: %+v", m.policy, m.params, stats, plainStats)
		}
		cached, plain := mgr.Stats(), plainMgr.Stats()
		cached.CacheHits, cached.CacheMisses = 0, 0
		plain.CacheHits, plain.CacheMisses = 0, 0
		if cached != plain {
			t.Fatalf("%s %+v: manager stats diverge:\n  cached:   %+v\n  uncached: %+v", m.policy, m.params, cached, plain)
		}
		if a, b := p.Fabric().Allocation(), plainP.Fabric().Allocation(); a.Slots != b.Slots {
			t.Fatalf("%s %+v: final fabric layouts diverge: %v vs %v", m.policy, m.params, a.Slots, b.Slots)
		}
	})
}

// checkArchState compares a halted run's retired count, registers and
// first memBytes of memory with the functional reference's.
func checkArchState(t *testing.T, label string, p *Processor, stats Stats, steps int, ref *isa.State, memBytes uint32) {
	t.Helper()
	if stats.Retired != steps {
		t.Fatalf("%s: retired %d, reference %d", label, stats.Retired, steps)
	}
	for r := uint8(0); r < isa.NumRegs; r++ {
		if p.Reg(r) != ref.ReadReg(r) {
			t.Fatalf("%s: register %s = %#x, reference %#x", label, isa.RegName(r), p.Reg(r), ref.ReadReg(r))
		}
	}
	refMem := ref.Mem.(*mem.Memory)
	for addr := uint32(0); addr < memBytes; addr += 4 {
		if got, want := p.Memory().LoadWord(addr), refMem.LoadWord(addr); got != want {
			t.Fatalf("%s: memory[%#x] = %#x, reference %#x", label, addr, got, want)
		}
	}
}

// fuzzMachine is one machine draw of FuzzCycleModel.
type fuzzMachine struct {
	policy string
	params Params
	// hysteresis is the demand manager's eviction margin.
	hysteresis int
	// residency is the steering manager's MinResidency.
	residency int
}

// fuzzPolicies are the configuration-management policies a draw picks
// from. "exact" is the steering manager with the exact CEM, the oracle
// without its zero-latency fabric.
var fuzzPolicies = []string{"none", "static-int", "random", "full-reconfig", "steering", "exact", "prefetch", "demand"}

// drawMachine decodes a machine from fuzz bytes, one field a byte; a
// short input leaves the remaining fields at zero, their defaults. Every
// value drawn is one Params.Validate accepts.
func drawMachine(draw []byte) fuzzMachine {
	next := func(n int) int {
		if len(draw) == 0 {
			return 0
		}
		v := int(draw[0]) % n
		draw = draw[1:]
		return v
	}
	pow2 := func(maxLog int) int { // 0 (default) or 1<<0 .. 1<<maxLog
		if k := next(maxLog + 2); k > 0 {
			return 1 << (k - 1)
		}
		return 0
	}
	m := fuzzMachine{policy: fuzzPolicies[next(len(fuzzPolicies))]}
	p := &m.params
	p.WindowSize = next(65)
	p.DispatchWidth = next(9)
	p.IssueWidth = next(9)
	p.RetireWidth = next(9)
	p.ReconfigLatency = []int{0, 1, 2, 4, 8, 16, 32, 128}[next(8)]
	p.ConfigBusWidth = next(4)
	if next(2) == 1 {
		p.Latencies = isa.Latencies{
			IntALU: 1 + next(4), IntMul: 1 + next(8), IntDiv: 1 + next(24),
			Load: 1 + next(6), Store: 1 + next(4), FPALU: 1 + next(6),
			FPMul: 1 + next(8), FPDiv: 1 + next(24), FPSqrt: 1 + next(32),
		}
	}
	p.CacheSets = pow2(6)
	p.CacheLineBytes = pow2(7)
	p.CacheMissPenalty = next(40)
	p.PredictorEntries = pow2(10)
	p.GshareHistoryBits = uint(next(12))
	p.TraceCacheLines = pow2(6)
	_ = next(17) // drew the trace-cache line length, no longer a parameter; kept so the seeds still reach what they were added for
	p.FetchWidthMem = next(5)
	p.FetchWidthTC = next(9)
	p.IssueOrder = IssueOrder(next(3))
	p.ManagerLookahead = next(2) == 1
	p.SelectFree = next(2) == 1
	p.PrefetchHistoryDepth = next(65)
	p.PrefetchConfidence = []float64{0, 0.25, 0.55, 0.8, 1}[next(5)]
	switch m.policy {
	case "steering", "exact", "prefetch", "demand":
		// Only a manager that reconfigures can run without the FFUs.
		p.DisableFFUs = next(2) == 1
	}
	if m.policy == "demand" {
		m.hysteresis = next(3)
	}
	switch m.policy {
	case "steering", "exact", "prefetch":
		m.residency = next(33)
	}
	return m
}

// build makes the draw's processor. For the policies built on the
// steering manager (full-reconfig's selection manager included) it
// also returns that manager, its steering cache switched off by
// disableCache; nil otherwise.
func (m fuzzMachine) build(prog isa.Program, disableCache bool) (*Processor, *core.Manager) {
	p := New(prog, m.params)
	var mgr *core.Manager
	switch m.policy {
	case "none":
	case "static-int":
		p.Fabric().Install(config.DefaultBasis()[0])
	case "random":
		p.SetManager(baseline.NewRandom(p.Fabric(), 1))
	case "full-reconfig":
		fr := baseline.NewFullReconfig(p.Fabric(), config.DefaultBasis())
		mgr = fr.Manager()
		p.SetManager(fr)
	case "steering", "exact":
		mgr = core.NewManager(p.Fabric(), config.DefaultBasis())
		mgr.ExactCEM = m.policy == "exact"
		p.SetManager(mgr)
	case "prefetch":
		pm := predict.NewManager(p.Fabric(), config.DefaultBasis(), predict.Config{
			HistoryDepth: m.params.PrefetchHistoryDepth,
			Confidence:   m.params.PrefetchConfidence,
		})
		mgr = pm.Core()
		p.SetManager(pm)
	case "demand":
		dm := core.NewDemandManager(p.Fabric())
		dm.Hysteresis = m.hysteresis
		p.SetManager(dm)
	}
	if mgr != nil {
		mgr.DisableCache = disableCache
		mgr.MinResidency = m.residency
	}
	return p, mgr
}
