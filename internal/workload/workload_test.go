package workload

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestKernelsFunctionallyCorrect runs every kernel on the functional
// interpreter and checks its own validator.
func TestKernelsFunctionallyCorrect(t *testing.T) {
	for _, k := range Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			m := mem.NewMemory(1 << 16)
			s := &isa.State{Mem: m}
			if k.Setup != nil {
				k.Setup(m, s.WriteReg)
			}
			if _, err := isa.Run(k.Program(), s, 10_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := k.Validate(s.ReadReg, m); err != nil {
				t.Errorf("validate: %v", err)
			}
		})
	}
}

// TestKernelsOnPipelinedSteeringMachine runs every kernel on the full
// simulator with the steering policy and validates outputs.
func TestKernelsOnPipelinedSteeringMachine(t *testing.T) {
	for _, k := range Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			p := cpu.New(k.Program(), cpu.Params{MemBytes: 1 << 16})
			p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
			if k.Setup != nil {
				k.Setup(p.Memory(), p.SetReg)
			}
			err := cpu.Run(context.Background(), p, 10_000_000)
			stats := p.Stats()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := k.Validate(p.Reg, p.Memory()); err != nil {
				t.Errorf("validate: %v", err)
			}
			if stats.IPC() <= 0 {
				t.Errorf("IPC = %v", stats.IPC())
			}
		})
	}
}

func TestKernelByName(t *testing.T) {
	if KernelByName("saxpy") == nil {
		t.Error("saxpy not found")
	}
	if KernelByName("nope") != nil {
		t.Error("unknown kernel found")
	}
}

func TestKernelDescriptionsPresent(t *testing.T) {
	for _, k := range Kernels() {
		if k.Name == "" || k.Description == "" {
			t.Errorf("kernel %q missing metadata", k.Name)
		}
	}
}

// TestSynthesizeDeterministic: same seed, same program.
func TestSynthesizeDeterministic(t *testing.T) {
	phases := []Phase{{MixIntHeavy, 200}, {MixFPHeavy, 200}}
	a := Synthesize(phases, SynthParams{Seed: 42})
	b := Synthesize(phases, SynthParams{Seed: 42})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("programs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Synthesize(phases, SynthParams{Seed: 43})
	same := len(a) == len(c)
	if same {
		identical := true
		for i := range a {
			if a[i] != c[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical programs")
		}
	}
}

// TestSynthesizeMixShape: the generated stream's unit mix tracks the
// requested weights.
func TestSynthesizeMixShape(t *testing.T) {
	const n = 20000
	prog := Synthesize([]Phase{{MixFPHeavy, n}}, SynthParams{Seed: 7})
	var counts arch.Counts
	for _, in := range prog {
		if in.Op == isa.HALT {
			continue
		}
		counts[in.Unit()]++
	}
	total := counts.Total()
	frac := func(t arch.UnitType) float64 { return float64(counts[t]) / float64(total) }
	// FP-heavy: ~70% FP overall, ~20% LSU, ~10% IntALU (preamble noise
	// is a few instructions out of 20000).
	if fp := frac(arch.FPALU) + frac(arch.FPMDU); fp < 0.65 || fp > 0.75 {
		t.Errorf("FP fraction = %.3f, want ~0.70", fp)
	}
	if l := frac(arch.LSU); l < 0.15 || l > 0.25 {
		t.Errorf("LSU fraction = %.3f, want ~0.20", l)
	}
	if counts[arch.IntMDU] != 0 {
		t.Errorf("FP-heavy mix produced %d IntMDU instructions", counts[arch.IntMDU])
	}
}

// TestSynthesizeRunsToCompletion: synthetic programs execute on both the
// interpreter and the simulator, producing identical register state.
func TestSynthesizeRunsToCompletion(t *testing.T) {
	phases := []Phase{{MixIntHeavy, 300}, {MixMemHeavy, 300}, {MixFPHeavy, 300}, {MixMDUHeavy, 300}}
	prog := Synthesize(phases, SynthParams{Seed: 99, DepDensity: 0.6})

	ref := &isa.State{Mem: mem.NewMemory(1 << 16)}
	steps, err := isa.Run(prog, ref, 10_000_000)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if steps != len(prog) {
		t.Errorf("straight-line program executed %d steps, want %d", steps, len(prog))
	}

	p := cpu.New(prog, cpu.Params{MemBytes: 1 << 16})
	p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
	err = cpu.Run(context.Background(), p, 10_000_000)
	stats := p.Stats()
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	if stats.Retired != steps {
		t.Errorf("retired %d, want %d", stats.Retired, steps)
	}
	for r := uint8(0); r < isa.NumRegs; r++ {
		if p.Reg(r) != ref.ReadReg(r) {
			t.Errorf("register %s = %#x, reference %#x", isa.RegName(r), p.Reg(r), ref.ReadReg(r))
		}
	}
}

// TestSynthesizeEncodable: every generated instruction round-trips
// through the binary encoding (legacy-binary compatibility story).
func TestSynthesizeEncodable(t *testing.T) {
	prog := Synthesize([]Phase{{MixUniform, 2000}}, SynthParams{Seed: 5})
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := isa.DecodeProgram(words)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range prog {
		if prog[i] != back[i] {
			t.Fatalf("instruction %d: %v -> %v", i, prog[i], back[i])
		}
	}
}

func TestSampleRejectsBadMixes(t *testing.T) {
	for _, m := range []Mix{{}, {-1, 1, 0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mix %v accepted", m)
				}
			}()
			Synthesize([]Phase{{m, 1}}, SynthParams{Seed: 1})
		}()
	}
}
