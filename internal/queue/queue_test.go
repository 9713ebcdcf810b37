package queue

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workload"
)

func synth(t *testing.T, phases []workload.Phase, seed int64) isa.Program {
	t.Helper()
	return workload.Synthesize(phases, workload.SynthParams{Seed: seed})
}

func estimateIPC(t *testing.T, pol cpu.Policy, params cpu.Params, basis *[3]config.Configuration, prog isa.Program) Estimate {
	t.Helper()
	m, err := New(pol, params, basis)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	est, err := m.Estimate(prog)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	return est
}

func TestNewRejectsInvalidParams(t *testing.T) {
	if _, err := New(cpu.PolicySteering, cpu.Params{WindowSize: -1}, nil); err == nil {
		t.Fatal("negative WindowSize accepted")
	}
	if _, err := New(cpu.PolicySteering, cpu.Params{FaultTransientRate: 0.01}, nil); err == nil {
		t.Fatal("fault rate without scrub interval accepted")
	}
	if _, err := New(cpu.Policy(99), cpu.Params{}, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestEstimateBasics(t *testing.T) {
	prog := synth(t, []workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 300},
		{Mix: workload.MixFPHeavy, Instructions: 300},
	}, 7)
	est := estimateIPC(t, cpu.PolicySteering, cpu.DefaultParams(), nil, prog)
	if est.PredictedIPC <= 0 || est.PredictedIPC > 4 {
		t.Fatalf("PredictedIPC = %v, want in (0, 4]", est.PredictedIPC)
	}
	if est.Instructions != 607 { // 7 preamble + 600 body, HALT excluded
		t.Errorf("Instructions = %d, want 607", est.Instructions)
	}
	if est.Segments == 0 || est.Bottleneck == "" || est.ModelVersion != ModelVersion {
		t.Errorf("incomplete estimate: %+v", est)
	}
	if len(est.Classes) == 0 {
		t.Error("no per-class estimates")
	}
	for _, c := range est.Classes {
		if c.Utilization < 0 || c.Utilization > 1 {
			t.Errorf("%s utilization %v out of [0,1]", c.Unit, c.Utilization)
		}
		if c.QueueDelay < 0 {
			t.Errorf("%s negative queue delay %v", c.Unit, c.QueueDelay)
		}
	}
}

func TestEstimateEmptyProgram(t *testing.T) {
	est := estimateIPC(t, cpu.PolicySteering, cpu.Params{}, nil, isa.Program{isa.New(isa.HALT, 0, 0, 0, 0)})
	if est.PredictedIPC != 0 || est.Segments != 0 {
		t.Fatalf("empty program: %+v", est)
	}
}

// TestMonotoneSlots checks the property the simulator has by
// construction: adding units of a demanded class never lowers predicted
// IPC. Capacity is grown through a basis whose three entries are
// identical, so policy selection cannot mask the change.
func TestMonotoneSlots(t *testing.T) {
	progs := map[string]isa.Program{
		"int":   synth(t, []workload.Phase{{Mix: workload.MixIntHeavy, Instructions: 400}}, 3),
		"mixed": synth(t, []workload.Phase{{Mix: workload.MixUniform, Instructions: 400}}, 5),
	}
	for _, pol := range []cpu.Policy{cpu.PolicySteering, cpu.PolicyStaticInteger, cpu.PolicyPrefetch} {
		for name, prog := range progs {
			prev := -1.0
			for n := 1; n <= 6; n++ {
				units := make([]arch.UnitType, 0, n+1)
				for i := 0; i < n; i++ {
					units = append(units, arch.IntALU)
				}
				units = append(units, arch.LSU)
				cfg := config.MustNew("grow", units...)
				basis := [3]config.Configuration{cfg, cfg, cfg}
				est := estimateIPC(t, pol, cpu.Params{}, &basis, prog)
				if est.PredictedIPC+1e-9 < prev {
					t.Errorf("%v/%s: IPC dropped from %v to %v when IntALU slots grew to %d",
						pol, name, prev, est.PredictedIPC, n)
				}
				prev = est.PredictedIPC
			}
		}
	}
}

// TestMonotoneReconfigLatency checks that raising the reconfiguration
// latency never raises predicted IPC, for every policy that pays for
// reconfigurations.
func TestMonotoneReconfigLatency(t *testing.T) {
	prog := synth(t, []workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 300},
		{Mix: workload.MixFPHeavy, Instructions: 300},
		{Mix: workload.MixMemHeavy, Instructions: 300},
	}, 7)
	for _, pol := range []cpu.Policy{
		cpu.PolicySteering, cpu.PolicyPrefetch, cpu.PolicyFullReconfig,
		cpu.PolicyDemand, cpu.PolicyNone, cpu.PolicyStaticInteger,
	} {
		prev := math.Inf(1)
		for _, lat := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
			p := cpu.Params{ReconfigLatency: lat}
			est := estimateIPC(t, pol, p, nil, prog)
			if est.PredictedIPC > prev+1e-9 {
				t.Errorf("%v: IPC rose from %v to %v when latency grew to %d",
					pol, prev, est.PredictedIPC, lat)
			}
			prev = est.PredictedIPC
		}
	}
}

// TestStarvedCapacity pins the infeasible case: a demanded class with
// no servers anywhere must produce a zero-IPC estimate with a capacity
// bottleneck, not a divide-by-zero.
func TestStarvedCapacity(t *testing.T) {
	prog := synth(t, []workload.Phase{{Mix: workload.MixFPHeavy, Instructions: 200}}, 5)
	p := cpu.Params{DisableFFUs: true}
	basis := [3]config.Configuration{
		config.MustNew("int-only", arch.IntALU, arch.LSU),
		config.MustNew("int-only2", arch.IntALU, arch.LSU),
		config.MustNew("int-only3", arch.IntALU, arch.LSU),
	}
	est := estimateIPC(t, cpu.PolicySteering, p, &basis, prog)
	if est.PredictedIPC != 0 {
		t.Fatalf("PredictedIPC = %v, want 0 for starved FP work", est.PredictedIPC)
	}
	if est.Bottleneck != "capacity:FPALU" && est.Bottleneck != "capacity:FPMDU" {
		t.Fatalf("Bottleneck = %q, want capacity:FP*", est.Bottleneck)
	}
}

// TestBottlenecksVocabulary: every bottleneck the model names — on the
// X21 validation scenarios (internal/experiments) under every policy,
// on the FFU-less ones, on a starved basis and on an empty program — is
// one Bottlenecks lists. rssd registers its per-bottleneck estimate
// counters from that list, so a name missing there would go uncounted.
func TestBottlenecksVocabulary(t *testing.T) {
	known := map[string]bool{}
	for _, b := range Bottlenecks() {
		if known[b] {
			t.Errorf("Bottlenecks lists %q twice", b)
		}
		known[b] = true
	}
	phased := synth(t, []workload.Phase{
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
	intBasis := [3]config.Configuration{
		config.MustNew("int-a", arch.IntALU, arch.LSU),
		config.MustNew("int-b", arch.IntALU, arch.LSU),
		config.MustNew("int-c", arch.IntALU, arch.LSU),
	}
	fpOnly := synth(t, []workload.Phase{{Mix: workload.MixFPHeavy, Instructions: 600}}, 5)
	scenarios := []struct {
		name   string
		prog   isa.Program
		params cpu.Params
		basis  *[3]config.Configuration
	}{
		{"X1 phased", phased, cpu.DefaultParams(), nil},
		{"X2 lat=64", synth(t, []workload.Phase{
			{Mix: workload.MixIntHeavy, Instructions: 400},
			{Mix: workload.MixFPHeavy, Instructions: 400},
		}, 7), lat64, nil},
		{"X4 no FFUs", fpOnly, noFFU, nil},
		{"X5 window=16", synth(t, []workload.Phase{{Mix: workload.MixUniform, Instructions: 800}}, 3), w16, nil},
		{"X6 fp basis", synth(t, []workload.Phase{
			{Mix: workload.MixFPHeavy, Instructions: 400},
			{Mix: workload.MixIntHeavy, Instructions: 400},
		}, 2), cpu.DefaultParams(), &fpBasis},
		{"no FFUs, int-only basis", fpOnly, noFFU, &intBasis},
		{"empty program", nil, cpu.DefaultParams(), nil},
	}
	for _, sc := range scenarios {
		for pol := cpu.Policy(0); pol.Valid(); pol++ {
			if b := estimateIPC(t, pol, sc.params, sc.basis, sc.prog).Bottleneck; !known[b] {
				t.Errorf("%s, %s: bottleneck %q is not in Bottlenecks()", sc.name, pol, b)
			}
		}
	}
}

func TestErlangC(t *testing.T) {
	// M/M/1 waiting probability is exactly the utilisation.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := erlangCInt(1, rho); math.Abs(got-rho) > 1e-9 {
			t.Errorf("erlangCInt(1, %v) = %v, want %v", rho, got, rho)
		}
	}
	// Known table value: C(2, 1) = 1/3.
	if got := erlangCInt(2, 1); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("erlangCInt(2, 1) = %v, want 1/3", got)
	}
	// Saturated stations always wait; empty ones never do.
	if got := erlangCInt(2, 2.5); got != 1 {
		t.Errorf("erlangCInt(2, 2.5) = %v, want 1", got)
	}
	if got := erlangC(3, 0); got != 0 {
		t.Errorf("erlangC(3, 0) = %v, want 0", got)
	}
	// Fractional servers interpolate between the neighbours.
	lo, hi, mid := erlangC(2, 1), erlangC(3, 1), erlangC(2.5, 1)
	if !(hi <= mid && mid <= lo) {
		t.Errorf("erlangC interpolation out of order: C(2)=%v C(2.5)=%v C(3)=%v", lo, mid, hi)
	}
}

func TestProfileCriticalPathChain(t *testing.T) {
	// A pure dependence chain: critical path equals summed latencies,
	// ILP approaches 1.
	var prog isa.Program
	n := 100
	for i := 0; i < n; i++ {
		prog = append(prog, isa.New(isa.ADD, 1, 1, 1, 0))
	}
	prog = append(prog, isa.New(isa.HALT, 0, 0, 0, 0))
	segs := profileProgram(prog, profileOptions{lat: isa.DefaultLatencies(), segSize: 64, window: 7})
	total := 0.0
	for _, s := range segs {
		total += s.CritPath
	}
	if total != float64(n) {
		t.Fatalf("chain critical path = %v, want %d", total, n)
	}
	// Independent instructions: critical path is one op's latency.
	var flat isa.Program
	for i := 0; i < 64; i++ {
		flat = append(flat, isa.New(isa.ADD, uint8(1+i%15), 0, 0, 0))
	}
	segs = profileProgram(flat, profileOptions{lat: isa.DefaultLatencies(), segSize: 64, window: 7})
	if len(segs) != 1 || segs[0].CritPath != 1 {
		t.Fatalf("flat critical path = %+v, want 1", segs)
	}
}

func TestSampledEstimateMatchesExact(t *testing.T) {
	// A long stationary program is profiled by strided sampling; a short
	// program with the identical phase structure is profiled exactly.
	// The sampled estimate must land near the exact one — the property
	// that lets /v1/estimate stay cheap at production scale.
	pattern := []workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
		{Mix: workload.MixMemHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
	}
	var long []workload.Phase
	for i := 0; i < 120; i++ {
		long = append(long, pattern...)
	}
	short := synth(t, pattern, 7)
	big := synth(t, long, 7)
	if win, _ := sampleWindows(short, DefaultSegmentSize); win != nil {
		t.Fatalf("short program (%d instr) unexpectedly sampled", len(short))
	}
	if win, weights := sampleWindows(big, DefaultSegmentSize); win == nil {
		t.Fatalf("long program (%d instr) not sampled", len(big))
	} else {
		sum := 0
		for _, w := range weights {
			sum += w
		}
		wantSegs := (len(big) + DefaultSegmentSize - 1) / DefaultSegmentSize
		if sum != wantSegs {
			t.Fatalf("sample weights sum to %d windows, program has %d", sum, wantSegs)
		}
		if len(win) > 2*sampleTargetSegs*DefaultSegmentSize {
			t.Fatalf("sample kept %d instructions, want bounded near %d", len(win), sampleTargetSegs*DefaultSegmentSize)
		}
	}
	exact := estimateIPC(t, cpu.PolicySteering, cpu.DefaultParams(), nil, short)
	sampled := estimateIPC(t, cpu.PolicySteering, cpu.DefaultParams(), nil, big)
	// On the sampled path Instructions is itself a weighted estimate
	// (the true final window may be partial); it must still land within
	// one stride of the full program length.
	if diff := sampled.Instructions - len(big); diff < -2*DefaultSegmentSize || diff > 40*DefaultSegmentSize {
		t.Errorf("sampled Instructions = %d, want near full program length %d", sampled.Instructions, len(big))
	}
	rel := math.Abs(sampled.PredictedIPC-exact.PredictedIPC) / exact.PredictedIPC
	if rel > 0.10 {
		t.Errorf("sampled IPC %.3f vs exact IPC %.3f: %.1f%% apart, want within 10%%",
			sampled.PredictedIPC, exact.PredictedIPC, rel*100)
	}
}
