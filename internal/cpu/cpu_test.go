package cpu

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// kernels used across the differential tests: each exercises a different
// mix of units, dependencies and control flow.
var kernels = map[string]string{
	"straightline": `
		li r1, 3
		li r2, 4
		add r3, r1, r2
		mul r4, r3, r3
		sub r5, r4, r1
		xor r6, r5, r2
		halt
	`,
	"sumloop": `
		li r1, 200
		li r2, 0
		li r3, 0
	loop:
		addi r2, r2, 1
		add r3, r3, r2
		bne r2, r1, loop
		halt
	`,
	"memory": `
		li r1, 0
		li r2, 32
		li r4, 2048
	store:
		mul r3, r1, r1
		slli r5, r1, 2
		add r5, r5, r4
		sw r3, 0(r5)
		addi r1, r1, 1
		bne r1, r2, store
		li r1, 0
		li r6, 0
	load:
		slli r5, r1, 2
		add r5, r5, r4
		lw r3, 0(r5)
		add r6, r6, r3
		addi r1, r1, 1
		bne r1, r2, load
		halt
	`,
	"forwarding": `
		li r1, 1024
		li r2, 77
		sw r2, 0(r1)
		lw r3, 0(r1)        ; must forward from the in-flight store
		addi r2, r2, 1
		sw r2, 0(r1)
		lw r4, 0(r1)        ; forward the newer value
		sb r2, 1(r1)        ; partial overlap
		lw r5, 0(r1)
		halt
	`,
	"float": `
		li r1, 25
		fcvt.s.w f1, r1
		fsqrt f2, f1
		li r2, 3
		fcvt.s.w f3, r2
		fmul f4, f2, f3
		fadd f5, f4, f2
		fdiv f6, f5, f3
		fcvt.w.s r5, f6
		fle r6, f3, f4
		halt
	`,
	"gcd": `
		li r1, 1071
		li r2, 462
	loop:
		beq r2, r0, done
		rem r3, r1, r2
		mv r1, r2
		mv r2, r3
		j loop
	done:
		halt
	`,
	"branchy": `
		li r1, 0       ; i
		li r2, 100
		li r3, 0       ; even sum
		li r4, 0       ; odd sum
	loop:
		andi r5, r1, 1
		beq r5, r0, even
		add r4, r4, r1
		j next
	even:
		add r3, r3, r1
	next:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`,
	"phases": `
		; integer phase
		li r1, 60
		li r2, 0
		li r3, 1
	iphase:
		addi r2, r2, 3
		xor r3, r3, r2
		addi r1, r1, -1
		bne r1, r0, iphase
		; fp phase
		li r1, 40
		fcvt.s.w f1, r3
		fcvt.s.w f2, r1
	fphase:
		fmul f3, f1, f2
		fadd f1, f3, f2
		fsub f2, f1, f3
		addi r1, r1, -1
		bne r1, r0, fphase
		fcvt.w.s r7, f1
		; memory phase
		li r1, 20
		li r4, 4096
	mphase:
		sw r7, 0(r4)
		lw r8, 0(r4)
		addi r4, r4, 4
		addi r1, r1, -1
		bne r1, r0, mphase
		halt
	`,
}

// scenarioNames enumerates the machine scenarios the differential tests
// cover — policy names plus ablation variants like "no-ffu-steering".
var scenarioNames = []string{"none", "steering", "full-reconfig", "oracle", "random", "static-int", "no-ffu-steering"}

// buildProcessor constructs a processor with the named policy installed.
func buildProcessor(prog isa.Program, params Params, policy string) *Processor {
	if policy == "oracle" {
		params.ReconfigLatency = 1 // effectively instant (0 means default)
	}
	if policy == "no-ffu-steering" {
		params.DisableFFUs = true
	}
	p := New(prog, params)
	switch policy {
	case "none":
	case "steering", "no-ffu-steering", "oracle":
		m := core.NewManager(p.Fabric(), config.DefaultBasis())
		m.ExactCEM = policy == "oracle"
		p.SetManager(m)
	case "full-reconfig":
		p.SetManager(baseline.NewFullReconfig(p.Fabric(), config.DefaultBasis()))
	case "random":
		p.SetManager(baseline.NewRandom(p.Fabric(), 1))
	case "static-int":
		p.Fabric().Install(config.DefaultBasis()[0])
	default:
		panic("unknown policy " + policy)
	}
	return p
}

// reference runs the program on the functional interpreter and returns
// its final state and instruction count.
func reference(t *testing.T, prog isa.Program, memBytes int) (*isa.State, int) {
	t.Helper()
	s := &isa.State{Mem: mem.NewMemory(memBytes)}
	steps, err := isa.Run(prog, s, 10_000_000)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return s, steps
}

// TestDifferentialAgainstFunctionalReference is the master correctness
// test: every kernel under every policy must produce architectural state
// bit-identical to the functional interpreter — all 64 registers, the
// data memory, and the retired instruction count.
func TestDifferentialAgainstFunctionalReference(t *testing.T) {
	const memBytes = 1 << 16
	for name, src := range kernels {
		prog := isa.MustAssemble(src)
		ref, steps := reference(t, prog, memBytes)
		refMem := ref.Mem.(*mem.Memory)
		for _, policy := range scenarioNames {
			if policy == "no-ffu-steering" {
				// Without FFUs only the kernels the floating basis
				// config covers can run; skip kernels needing IntMDU.
				if strings.Contains(src, "mul r") || strings.Contains(src, "rem ") {
					continue
				}
			}
			t.Run(name+"/"+policy, func(t *testing.T) {
				params := DefaultParams()
				params.MemBytes = memBytes
				p := buildProcessor(prog, params, policy)
				stats, err := p.Run(5_000_000)
				if err != nil {
					t.Fatalf("pipelined run: %v", err)
				}
				for r := uint8(0); r < isa.NumRegs; r++ {
					if p.Reg(r) != ref.ReadReg(r) {
						t.Errorf("register %s = %#x, reference %#x",
							isa.RegName(r), p.Reg(r), ref.ReadReg(r))
					}
				}
				for addr := uint32(0); addr < memBytes; addr += 4 {
					if got, want := p.Memory().LoadWord(addr), refMem.LoadWord(addr); got != want {
						t.Fatalf("memory[%#x] = %#x, reference %#x", addr, got, want)
					}
				}
				if stats.Retired != steps {
					t.Errorf("retired %d instructions, reference executed %d", stats.Retired, steps)
				}
				if stats.IPC() <= 0 {
					t.Errorf("IPC = %v", stats.IPC())
				}
			})
		}
	}
}

// TestDifferentialAcrossMachineShapes re-runs one branchy kernel across
// window sizes, widths and latencies — timing parameters must never
// change architectural results.
func TestDifferentialAcrossMachineShapes(t *testing.T) {
	prog := isa.MustAssemble(kernels["phases"])
	const memBytes = 1 << 16
	ref, steps := reference(t, prog, memBytes)

	shapes := []Params{
		{WindowSize: 4, IssueWidth: 1, DispatchWidth: 1, RetireWidth: 1},
		{WindowSize: 7},
		{WindowSize: 16, IssueWidth: 8, DispatchWidth: 8, RetireWidth: 8},
		{WindowSize: 7, ReconfigLatency: 64},
		{WindowSize: 7, CacheSets: 1, CacheLineBytes: 4, CacheMissPenalty: 50},
		{WindowSize: 7, FetchWidthMem: 1, FetchWidthTC: 1},
	}
	for i, shape := range shapes {
		shape.MemBytes = memBytes
		p := buildProcessor(prog, shape, "steering")
		stats, err := p.Run(5_000_000)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if stats.Retired != steps {
			t.Errorf("shape %d: retired %d, want %d", i, stats.Retired, steps)
		}
		for r := uint8(0); r < isa.NumRegs; r++ {
			if p.Reg(r) != ref.ReadReg(r) {
				t.Errorf("shape %d: register %s = %#x, want %#x",
					i, isa.RegName(r), p.Reg(r), ref.ReadReg(r))
			}
		}
	}
}

// TestPCEscapeStallsAndTimesOut: a jump beyond the program parks fetch
// forever. The machine reaches a fixed point, and a Run that may skip
// reports ErrNoProgress long before the budget. With an observer
// attached Run clocks every cycle to the budget, and the parked front
// end looks nothing up in the trace cache while it does.
func TestPCEscapeStallsAndTimesOut(t *testing.T) {
	prog := isa.MustAssemble("jal r0, 100\nhalt")
	p := New(prog, Params{MemBytes: 1 << 12})
	_, err := p.Run(5_000_000)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("PC escape: err = %v, want ErrNoProgress", err)
	}
	if c := p.Stats().Cycles; c >= 1000 {
		t.Errorf("PC escape stopped at cycle %d, want a stop well before 1000", c)
	}
	if p.Stats().CyclesFrontend == 0 {
		t.Error("escaped PC produced no frontend-starved cycles")
	}

	t.Run("observed", func(t *testing.T) {
		p := New(prog, Params{MemBytes: 1 << 12})
		traced(p, 16)
		if _, err := p.Run(50); !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("first 50 cycles: err = %v, want ErrCycleLimit", err)
		}
		_, before := p.TraceCache().HitRate()
		_, err := p.Run(5000)
		if !errors.Is(err, ErrCycleLimit) || errors.Is(err, ErrNoProgress) {
			t.Fatalf("observed PC escape: err = %v, want ErrCycleLimit without ErrNoProgress", err)
		}
		if c := p.Stats().Cycles; c != 5000 {
			t.Errorf("observed run stopped at cycle %d, want the budget (5000)", c)
		}
		if _, after := p.TraceCache().HitRate(); after != before {
			t.Errorf("trace-cache lookups grew from %d to %d while fetch was parked outside the program", before, after)
		}
	})
}

func TestRunReportsCycleBudgetExhaustion(t *testing.T) {
	prog := isa.MustAssemble("loop:\n j loop\n")
	p := New(prog, Params{MemBytes: 1 << 12})
	if _, err := p.Run(1000); err == nil {
		t.Error("infinite loop did not exhaust the budget")
	}
}

func TestHaltStopsTheClock(t *testing.T) {
	p := New(isa.MustAssemble("halt"), Params{MemBytes: 1 << 12})
	stats, err := p.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Halted() || !stats.Halted {
		t.Error("machine not halted")
	}
	cycles := stats.Cycles
	p.Cycle() // must be a no-op
	if p.Stats().Cycles != cycles {
		t.Error("clock advanced after HALT retired")
	}
	if stats.Retired != 1 {
		t.Errorf("retired = %d, want 1", stats.Retired)
	}
}

// TestFFUOnlyMachineStarvesWithoutPolicy pins the forward-progress story:
// with FFUs disabled and no configuration policy, nothing can execute.
func TestFFUOnlyMachineStarvesWithoutPolicy(t *testing.T) {
	prog := isa.MustAssemble("li r1, 1\nhalt")
	params := Params{MemBytes: 1 << 12, DisableFFUs: true}
	p := New(prog, params)
	_, err := p.Run(2000)
	if !errors.Is(err, ErrNoProgress) || !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrNoProgress wrapping ErrCycleLimit", err)
	}
	if !strings.Contains(err.Error(), "needs an IntALU unit") {
		t.Errorf("error %q does not name the waiting instruction's unit type", err)
	}
	if p.Stats().Retired != 0 {
		t.Errorf("retired %d instructions with no units", p.Stats().Retired)
	}
	if c := p.Stats().Cycles; c >= 100 {
		t.Errorf("the fixed point was reported at cycle %d, want within a few cycles", c)
	}
}

// divChain is a loop whose divides each wait on the one before: once
// the window fills, every cycle of a divide's latency but the last is
// quiet.
const divChain = `
	li r1, 0
	li r2, 300
	li r3, 3
	li r4, 1000000
loop:
	div r4, r4, r3
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`

// TestSkipJumpsQuietStretches drives Run's loop by hand over divChain
// and checks that the clock jumps (most cycles are never simulated)
// while the outcome stays the reference loop's, bit for bit, with no
// manager and under steering with a residency timer.
func TestSkipJumpsQuietStretches(t *testing.T) {
	prog := isa.MustAssemble(divChain)
	for _, residency := range []int{-1, 0, 5} {
		build := func() (*Processor, *core.Manager) {
			p := New(prog, Params{MemBytes: 1 << 12})
			if residency < 0 {
				return p, nil
			}
			m := core.NewManager(p.Fabric(), config.DefaultBasis())
			m.MinResidency = residency
			p.SetManager(m)
			return p, m
		}
		p, mgr := build()
		if !p.skips() {
			t.Fatal("the machine does not skip")
		}
		calls := 0
		for !p.Halted() {
			p.Cycle()
			calls++
			if p.quiet {
				if _, err := p.skip(math.MaxInt); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref, refMgr := build()
		want, err := ref.runCycles(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Stats(); got != want {
			t.Fatalf("residency %d: stats diverge:\n  skipping:  %+v\n  reference: %+v", residency, got, want)
		}
		if mgr != nil && mgr.Stats() != refMgr.Stats() {
			t.Fatalf("residency %d: manager stats diverge:\n  skipping:  %+v\n  reference: %+v", residency, mgr.Stats(), refMgr.Stats())
		}
		if p.Fabric().BusyCycles() != ref.Fabric().BusyCycles() {
			t.Fatalf("residency %d: busy cycles %d, reference %d", residency, p.Fabric().BusyCycles(), ref.Fabric().BusyCycles())
		}
		t.Logf("residency %d: %d Cycle calls for %d cycles", residency, calls, want.Cycles)
		if 2*calls > want.Cycles {
			t.Errorf("residency %d: %d Cycle calls for %d cycles, want most cycles skipped", residency, calls, want.Cycles)
		}
	}
}

// TestSteeringRescuesFFUlessMachine: with steering the manager configures
// RFUs to match demand, so the same machine completes.
func TestSteeringRescuesFFUlessMachine(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 5
		li r2, 7
		add r3, r1, r2
		halt
	`)
	params := Params{MemBytes: 1 << 12, DisableFFUs: true, ReconfigLatency: 2}
	p := New(prog, params)
	p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
	if _, err := p.Run(10000); err != nil {
		t.Fatalf("steering did not rescue the FFU-less machine: %v", err)
	}
	if p.Reg(3) != 12 {
		t.Errorf("r3 = %d, want 12", p.Reg(3))
	}
}

// TestMispredictionAccounting: an input-dependent alternating branch on a
// bimodal predictor must mispredict and still compute correctly.
func TestMispredictionAccounting(t *testing.T) {
	prog := isa.MustAssemble(kernels["branchy"])
	p := buildProcessor(prog, Params{MemBytes: 1 << 12}, "steering")
	stats, err := p.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mispredicts == 0 {
		t.Error("alternating branch never mispredicted on a bimodal predictor")
	}
	if stats.Flushed == 0 {
		t.Error("mispredictions flushed nothing")
	}
	if stats.BranchesResolved == 0 {
		t.Error("no branches resolved")
	}
	// 0+2+..+98 = 2450, 1+3+..+99 = 2500.
	if p.Reg(3) != 2450 || p.Reg(4) != 2500 {
		t.Errorf("sums = %d,%d want 2450,2500", p.Reg(3), p.Reg(4))
	}
}

// TestSteeringBeatsMismatchedStatic: on the FP-heavy phase kernel, the
// steering machine should outperform a machine statically configured for
// integer work. This is the paper's central motivation (X1).
func TestSteeringBeatsMismatchedStatic(t *testing.T) {
	src := `
		li r1, 300
		fcvt.s.w f1, r1
		fcvt.s.w f2, r1
	loop:
		fmul f3, f1, f2
		fadd f4, f3, f1
		fsub f5, f4, f2
		fmul f6, f5, f3
		fadd f1, f6, f4
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`
	prog := isa.MustAssemble(src)
	params := Params{MemBytes: 1 << 12}

	steer := buildProcessor(prog, params, "steering")
	ss, err := steer.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	static := buildProcessor(prog, params, "static-int")
	st, err := static.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ss.IPC() <= st.IPC() {
		t.Errorf("steering IPC %.3f not above integer-static IPC %.3f on FP workload",
			ss.IPC(), st.IPC())
	}
	if steer.Fabric().Reconfigurations() == 0 {
		t.Error("steering never reconfigured on an FP workload")
	}
}

// TestStatsAreInternallyConsistent: issued instructions per type sum to
// at least the retired count (flushed instructions may also have issued),
// and cycles bound retirement.
func TestStatsAreInternallyConsistent(t *testing.T) {
	prog := isa.MustAssemble(kernels["phases"])
	p := buildProcessor(prog, Params{MemBytes: 1 << 16}, "steering")
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	issued := 0
	for _, n := range stats.IssuedByType {
		issued += n
	}
	if issued < stats.Retired {
		t.Errorf("issued %d < retired %d", issued, stats.Retired)
	}
	if issued > stats.Retired+stats.Flushed {
		t.Errorf("issued %d > retired %d + flushed %d", issued, stats.Retired, stats.Flushed)
	}
	if stats.Retired > stats.Cycles*p.params.RetireWidth {
		t.Error("retired more than retire bandwidth allows")
	}
}

// TestIssueOrdersArchitecturallyEquivalent: grant priority is a timing
// policy only; every order must produce identical architectural results.
func TestIssueOrdersArchitecturallyEquivalent(t *testing.T) {
	prog := isa.MustAssemble(kernels["phases"])
	const memBytes = 1 << 16
	ref, steps := reference(t, prog, memBytes)
	for _, order := range []IssueOrder{OrderOldest, OrderYoungest, OrderRotate} {
		params := DefaultParams()
		params.MemBytes = memBytes
		params.IssueOrder = order
		p := buildProcessor(prog, params, "steering")
		stats, err := p.Run(5_000_000)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if stats.Retired != steps {
			t.Errorf("order %d: retired %d, want %d", order, stats.Retired, steps)
		}
		for r := uint8(0); r < isa.NumRegs; r++ {
			if p.Reg(r) != ref.ReadReg(r) {
				t.Errorf("order %d: register %s differs", order, isa.RegName(r))
			}
		}
	}
}

// TestGshareMachineCorrect: the gshare predictor changes only timing.
func TestGshareMachineCorrect(t *testing.T) {
	prog := isa.MustAssemble(kernels["branchy"])
	const memBytes = 1 << 12
	ref, steps := reference(t, prog, memBytes)
	params := DefaultParams()
	params.MemBytes = memBytes
	params.GshareHistoryBits = 8
	p := buildProcessor(prog, params, "steering")
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retired != steps {
		t.Errorf("retired %d, want %d", stats.Retired, steps)
	}
	if p.Reg(3) != ref.ReadReg(3) || p.Reg(4) != ref.ReadReg(4) {
		t.Error("gshare machine computed wrong sums")
	}
}

// TestSelectFreeModeCorrectAndPilesUp: the literal select-free scheduler
// of reference [9] must produce identical architectural results while
// recording pileup replays under same-type contention.
func TestSelectFreeModeCorrectAndPilesUp(t *testing.T) {
	prog := isa.MustAssemble(kernels["memory"])
	const memBytes = 1 << 16
	ref, steps := reference(t, prog, memBytes)

	params := DefaultParams()
	params.MemBytes = memBytes
	params.SelectFree = true
	p := buildProcessor(prog, params, "steering")
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retired != steps {
		t.Errorf("retired %d, want %d", stats.Retired, steps)
	}
	for r := uint8(0); r < isa.NumRegs; r++ {
		if p.Reg(r) != ref.ReadReg(r) {
			t.Errorf("register %s = %#x, want %#x", isa.RegName(r), p.Reg(r), ref.ReadReg(r))
		}
	}
	if stats.Pileups == 0 {
		t.Error("memory kernel produced no pileups under select-free scheduling")
	}
	// The idealised machine never piles up.
	params.SelectFree = false
	q := buildProcessor(prog, params, "steering")
	qs, err := q.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Pileups != 0 {
		t.Errorf("ideal select recorded %d pileups", qs.Pileups)
	}
}

// TestCacheMissesExtendLoadLatency: a pointer-chasing loop over a range
// larger than the cache must record misses; shrinking the penalty must
// not change results but must change cycles.
func TestCacheMissesExtendLoadLatency(t *testing.T) {
	src := `
		li r1, 0
		li r2, 256
		li r4, 0
	loop:
		slli r5, r1, 7   ; stride 128 bytes: a new line every access
		lw r3, 0(r5)
		add r4, r4, r3
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`
	prog := isa.MustAssemble(src)
	slow := buildProcessor(prog, Params{MemBytes: 1 << 16, CacheMissPenalty: 40}, "none")
	sstats, err := slow.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if slow.DCache().Misses() == 0 {
		t.Fatal("strided loads never missed")
	}
	fast := buildProcessor(prog, Params{MemBytes: 1 << 16, CacheMissPenalty: 1}, "none")
	fstats, err := fast.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Cycles <= fstats.Cycles {
		t.Errorf("40-cycle penalty (%d cycles) not slower than 1-cycle penalty (%d cycles)",
			sstats.Cycles, fstats.Cycles)
	}
	if fast.Reg(4) != slow.Reg(4) {
		t.Error("cache penalty changed architectural results")
	}
}

// TestSetRegAndMemoryPresets: inputs written before the run flow through.
func TestSetRegAndMemoryPresets(t *testing.T) {
	prog := isa.MustAssemble(`
		lw r2, 0(r1)
		addi r2, r2, 5
		halt
	`)
	p := New(prog, Params{MemBytes: 1 << 12})
	p.SetReg(1, 64)
	p.Memory().StoreWord(64, 37)
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if p.Reg(2) != 42 {
		t.Errorf("r2 = %d, want 42", p.Reg(2))
	}
}

func TestDefaultParamsFillZeroFields(t *testing.T) {
	p := Params{}.withDefaults()
	if p != DefaultParams() {
		t.Errorf("withDefaults() = %+v", p)
	}
	// Non-zero fields survive.
	p = Params{WindowSize: 16}.withDefaults()
	if p.WindowSize != 16 || p.IssueWidth != 4 {
		t.Errorf("override lost: %+v", p)
	}
}

// TestWindowNeverExceedsSize: instrument a run and check in-flight count.
func TestWindowNeverExceedsSize(t *testing.T) {
	prog := isa.MustAssemble(kernels["sumloop"])
	p := buildProcessor(prog, Params{MemBytes: 1 << 12, WindowSize: 5}, "steering")
	for !p.Halted() && p.Stats().Cycles < 100000 {
		p.Cycle()
		if p.count > 5 {
			t.Fatalf("window holds %d instructions, size 5", p.count)
		}
	}
	if !p.Halted() {
		t.Fatal("did not halt")
	}
}

// TestArchitecturalZeroRegister: x0 stays zero even when targeted.
func TestArchitecturalZeroRegister(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 9
		add r0, r1, r1
		add r2, r0, r1
		halt
	`)
	p := New(prog, Params{MemBytes: 1 << 12})
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if p.Reg(0) != 0 || p.Reg(2) != 9 {
		t.Errorf("r0=%d r2=%d", p.Reg(0), p.Reg(2))
	}
}
