// Package workload supplies the programs the experiments run: a library
// of real assembly kernels (with input setup and output validation) and a
// synthetic generator that produces phase-structured instruction streams
// with controlled unit-type mixes — the workload shape that motivates
// configuration steering.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Kernel is one benchmark program: assembly source, input setup and
// output validation so runs are checked end to end.
type Kernel struct {
	Name        string
	Description string
	Source      string
	// Setup presets registers and memory before the run.
	Setup func(m *mem.Memory, setReg func(r uint8, v uint32))
	// Validate checks the architectural outcome after the run.
	Validate func(reg func(r uint8) uint32, m *mem.Memory) error

	once sync.Once
	prog isa.Program
}

// Program returns the assembled kernel, assembling on first use. Kernels
// are shared, so concurrent callers (sweep workers) are safe.
func (k *Kernel) Program() isa.Program {
	k.once.Do(func() { k.prog = isa.MustAssemble(k.Source) })
	return k.prog
}

// Kernels returns the benchmark library. The slice is freshly allocated;
// kernels themselves are shared.
func Kernels() []*Kernel {
	base := []*Kernel{dotProduct, saxpy, matmul, memcopy, checksum, vecmax, histogram, newton}
	return append(base, extraKernels...)
}

// KernelByName returns the named kernel or nil.
func KernelByName(name string) *Kernel {
	for _, k := range Kernels() {
		if k.Name == name {
			return k
		}
	}
	return nil
}

const (
	arrayA   = 0x1000 // input array A base
	arrayB   = 0x2000 // input array B base
	arrayOut = 0x3000 // output base
	arrayN   = 64     // default element count
)

var dotProduct = &Kernel{
	Name:        "dot",
	Description: "integer dot product of two 64-element vectors (IntALU/IntMDU/LSU)",
	Source: `
		li r10, 0x1000
		li r11, 0x2000
		li r12, 64
		li r1, 0      ; i
		li r2, 0      ; acc
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		lw r3, 0(r6)
		add r7, r5, r11
		lw r4, 0(r7)
		mul r8, r3, r4
		add r2, r2, r8
		addi r1, r1, 1
		bne r1, r12, loop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < arrayN; i++ {
			m.StoreWord(arrayA+uint32(4*i), uint32(i+1))
			m.StoreWord(arrayB+uint32(4*i), uint32(2*i+1))
		}
	},
	Validate: func(reg func(uint8) uint32, _ *mem.Memory) error {
		want := uint32(0)
		for i := 0; i < arrayN; i++ {
			want += uint32(i+1) * uint32(2*i+1)
		}
		if got := reg(2); got != want {
			return fmt.Errorf("dot product = %d, want %d", got, want)
		}
		return nil
	},
}

var saxpy = &Kernel{
	Name:        "saxpy",
	Description: "single-precision a*x+y over 64 elements (FPALU/FPMDU/LSU)",
	Source: `
		li r10, 0x1000
		li r11, 0x2000
		li r12, 0x3000
		li r13, 64
		li r1, 0
		li r2, 3
		fcvt.s.w f1, r2   ; a = 3.0
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		flw f2, 0(r6)
		add r7, r5, r11
		flw f3, 0(r7)
		fmul f4, f1, f2
		fadd f5, f4, f3
		add r8, r5, r12
		fsw f5, 0(r8)
		addi r1, r1, 1
		bne r1, r13, loop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < arrayN; i++ {
			m.StoreWord(arrayA+uint32(4*i), math.Float32bits(float32(i)))
			m.StoreWord(arrayB+uint32(4*i), math.Float32bits(float32(i)/2))
		}
	},
	Validate: func(_ func(uint8) uint32, m *mem.Memory) error {
		for i := 0; i < arrayN; i++ {
			want := 3*float32(i) + float32(i)/2
			got := math.Float32frombits(m.LoadWord(arrayOut + uint32(4*i)))
			if got != want {
				return fmt.Errorf("saxpy[%d] = %v, want %v", i, got, want)
			}
		}
		return nil
	},
}

var matmul = &Kernel{
	Name:        "matmul",
	Description: "8x8 single-precision matrix multiply (FP-dominated with memory traffic)",
	Source: `
		li r10, 0x1000   ; A
		li r11, 0x2000   ; B
		li r12, 0x3000   ; C
		li r13, 8        ; n
		li r1, 0         ; i
	iloop:
		li r2, 0         ; j
	jloop:
		li r3, 0         ; k
		li r4, 0
		fcvt.s.w f1, r4  ; acc = 0
	kloop:
		; A[i][k]
		mul r5, r1, r13
		add r5, r5, r3
		slli r5, r5, 2
		add r5, r5, r10
		flw f2, 0(r5)
		; B[k][j]
		mul r6, r3, r13
		add r6, r6, r2
		slli r6, r6, 2
		add r6, r6, r11
		flw f3, 0(r6)
		fmul f4, f2, f3
		fadd f1, f1, f4
		addi r3, r3, 1
		bne r3, r13, kloop
		; C[i][j]
		mul r7, r1, r13
		add r7, r7, r2
		slli r7, r7, 2
		add r7, r7, r12
		fsw f1, 0(r7)
		addi r2, r2, 1
		bne r2, r13, jloop
		addi r1, r1, 1
		bne r1, r13, iloop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < 64; i++ {
			m.StoreWord(arrayA+uint32(4*i), math.Float32bits(float32(i%7)))
			m.StoreWord(arrayB+uint32(4*i), math.Float32bits(float32(i%5)))
		}
	},
	Validate: func(_ func(uint8) uint32, m *mem.Memory) error {
		const n = 8
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var want float32
				for k := 0; k < n; k++ {
					a := float32((i*n + k) % 7)
					b := float32((k*n + j) % 5)
					want += a * b
				}
				got := math.Float32frombits(m.LoadWord(arrayOut + uint32(4*(i*n+j))))
				if got != want {
					return fmt.Errorf("C[%d][%d] = %v, want %v", i, j, got, want)
				}
			}
		}
		return nil
	},
}

var memcopy = &Kernel{
	Name:        "memcpy",
	Description: "word copy of 256 words (LSU-dominated)",
	Source: `
		li r10, 0x1000
		li r11, 0x3000
		li r12, 256
		li r1, 0
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		lw r3, 0(r6)
		add r7, r5, r11
		sw r3, 0(r7)
		addi r1, r1, 1
		bne r1, r12, loop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < 256; i++ {
			m.StoreWord(arrayA+uint32(4*i), uint32(i*i+7))
		}
	},
	Validate: func(_ func(uint8) uint32, m *mem.Memory) error {
		for i := 0; i < 256; i++ {
			if got, want := m.LoadWord(arrayOut+uint32(4*i)), uint32(i*i+7); got != want {
				return fmt.Errorf("copy[%d] = %d, want %d", i, got, want)
			}
		}
		return nil
	},
}

var checksum = &Kernel{
	Name:        "checksum",
	Description: "multiplicative rolling checksum over 128 words (IntALU/IntMDU mix)",
	Source: `
		li r10, 0x1000
		li r11, 128
		li r1, 0
		li r2, 1      ; hash
		li r3, 31
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		lw r4, 0(r6)
		mul r2, r2, r3
		add r2, r2, r4
		addi r1, r1, 1
		bne r1, r11, loop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < 128; i++ {
			m.StoreWord(arrayA+uint32(4*i), uint32(i*2654435761))
		}
	},
	Validate: func(reg func(uint8) uint32, _ *mem.Memory) error {
		want := uint32(1)
		for i := 0; i < 128; i++ {
			want = want*31 + uint32(i*2654435761)
		}
		if got := reg(2); got != want {
			return fmt.Errorf("checksum = %#x, want %#x", got, want)
		}
		return nil
	},
}

var vecmax = &Kernel{
	Name:        "vecmax",
	Description: "maximum of a 64-element float vector (FPALU compares)",
	Source: `
		li r10, 0x1000
		li r11, 64
		li r1, 1
		flw f1, 0(r10)   ; max = v[0]
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		flw f2, 0(r6)
		fmax f1, f1, f2
		addi r1, r1, 1
		bne r1, r11, loop
		fcvt.w.s r2, f1
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < arrayN; i++ {
			v := float32((i * 37 % 101)) // max value 100 at i such that i*37%101 == 100
			m.StoreWord(arrayA+uint32(4*i), math.Float32bits(v))
		}
	},
	Validate: func(reg func(uint8) uint32, _ *mem.Memory) error {
		want := int32(0)
		for i := 0; i < arrayN; i++ {
			if v := int32(i * 37 % 101); v > want {
				want = v
			}
		}
		if got := int32(reg(2)); got != want {
			return fmt.Errorf("vecmax = %d, want %d", got, want)
		}
		return nil
	},
}

var histogram = &Kernel{
	Name:        "histogram",
	Description: "16-bucket histogram of 256 values (LSU read-modify-write)",
	Source: `
		li r10, 0x1000
		li r11, 0x3000
		li r12, 256
		li r1, 0
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		lw r3, 0(r6)
		andi r3, r3, 15
		slli r3, r3, 2
		add r7, r3, r11
		lw r4, 0(r7)
		addi r4, r4, 1
		sw r4, 0(r7)
		addi r1, r1, 1
		bne r1, r12, loop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < 256; i++ {
			m.StoreWord(arrayA+uint32(4*i), uint32(i*7+3))
		}
	},
	Validate: func(_ func(uint8) uint32, m *mem.Memory) error {
		var want [16]uint32
		for i := 0; i < 256; i++ {
			want[(i*7+3)%16]++
		}
		for b := 0; b < 16; b++ {
			if got := m.LoadWord(arrayOut + uint32(4*b)); got != want[b] {
				return fmt.Errorf("bucket %d = %d, want %d", b, got, want[b])
			}
		}
		return nil
	},
}

var newton = &Kernel{
	Name:        "newton",
	Description: "Newton iteration for sqrt of 64 values (FPMDU divides, serial chains)",
	Source: `
		li r10, 0x1000
		li r11, 0x3000
		li r12, 64
		li r1, 0
		li r2, 2
		fcvt.s.w f9, r2   ; 2.0
	loop:
		slli r5, r1, 2
		add r6, r5, r10
		flw f1, 0(r6)     ; x
		fadd f2, f1, f9   ; guess
		; three Newton steps: g = (g + x/g) / 2
		fdiv f3, f1, f2
		fadd f2, f2, f3
		fdiv f2, f2, f9
		fdiv f3, f1, f2
		fadd f2, f2, f3
		fdiv f2, f2, f9
		fdiv f3, f1, f2
		fadd f2, f2, f3
		fdiv f2, f2, f9
		add r7, r5, r11
		fsw f2, 0(r7)
		addi r1, r1, 1
		bne r1, r12, loop
		halt
	`,
	Setup: func(m *mem.Memory, _ func(uint8, uint32)) {
		for i := 0; i < arrayN; i++ {
			m.StoreWord(arrayA+uint32(4*i), math.Float32bits(float32(i+1)))
		}
	},
	Validate: func(_ func(uint8) uint32, m *mem.Memory) error {
		for i := 0; i < arrayN; i++ {
			x := float32(i + 1)
			g := x + 2
			for step := 0; step < 3; step++ {
				g = (g + x/g) / 2
			}
			got := math.Float32frombits(m.LoadWord(arrayOut + uint32(4*i)))
			if got != g {
				return fmt.Errorf("newton[%d] = %v, want %v", i, got, g)
			}
		}
		return nil
	},
}

// Mix is a unit-type demand profile: relative weights per unit type.
type Mix [arch.NumUnitTypes]float64

// Standard mixes used throughout the experiments.
var (
	MixIntHeavy = Mix{0.70, 0.10, 0.20, 0, 0}
	MixFPHeavy  = Mix{0.10, 0, 0.20, 0.35, 0.35}
	MixMemHeavy = Mix{0.25, 0, 0.70, 0.05, 0}
	MixMDUHeavy = Mix{0.30, 0.45, 0.15, 0.05, 0.05}
	MixUniform  = Mix{0.20, 0.20, 0.20, 0.20, 0.20}
)

// Phase is one segment of a synthetic workload.
type Phase struct {
	Mix          Mix
	Instructions int
}

// AlternatingPhases builds a phase list that switches between the
// integer-heavy and FP-heavy mixes every period instructions until
// total instructions are covered (the last phase is truncated to fit).
// Feeding the result to Synthesize yields the phase-shifting workloads
// the prefetch policy's predictor is designed to exploit (experiment
// X20). Both arguments must be positive.
func AlternatingPhases(total, period int) []Phase {
	if total <= 0 || period <= 0 {
		panic(fmt.Sprintf("workload: AlternatingPhases needs positive total and period, got %d, %d", total, period))
	}
	mixes := [2]Mix{MixIntHeavy, MixFPHeavy}
	out := make([]Phase, 0, (total+period-1)/period)
	for i := 0; total > 0; i++ {
		n := period
		if n > total {
			n = total
		}
		out = append(out, Phase{Mix: mixes[i%2], Instructions: n})
		total -= n
	}
	return out
}

// SynthParams shapes the synthetic generator.
type SynthParams struct {
	// DepDensity is the probability each source register is drawn from
	// recently produced values, creating dependency chains (0..1,
	// default 0.5).
	DepDensity float64
	// Seed makes generation deterministic.
	Seed int64
}

// dataBase is where synthetic loads and stores land.
const dataBase = 0x4000

// Synthesize generates a straight-line program that walks through the
// given phases, drawing each instruction's unit type from the phase mix
// and its registers so that DepDensity controls how often instructions
// chain on recent results. The program ends with HALT and never branches,
// so its steering behaviour is a pure function of the demand sequence.
func Synthesize(phases []Phase, p SynthParams) isa.Program {
	if p.DepDensity == 0 {
		p.DepDensity = 0.5
	}
	rng := rand.New(rand.NewSource(p.Seed))

	var prog isa.Program
	// Preamble: base register for memory traffic and nonzero seeds in
	// the working registers.
	prog = append(prog,
		isa.New(isa.LUI, 20, 0, 0, dataBase>>isa.LUIShift),
		isa.New(isa.ADDI, 1, 0, 0, 3),
		isa.New(isa.ADDI, 2, 0, 0, 5),
		isa.New(isa.ADDI, 3, 0, 0, 7),
		isa.New(isa.FCVTSW, 1, 1, 0, 0),
		isa.New(isa.FCVTSW, 2, 2, 0, 0),
		isa.New(isa.FCVTSW, 3, 3, 0, 0),
	)

	// recent destination registers per class, for dependency chaining.
	recentInt := []uint8{1, 2, 3}
	recentFP := []uint8{1, 2, 3}

	pickSrc := func(fp bool) uint8 {
		recent := recentInt
		if fp {
			recent = recentFP
		}
		if rng.Float64() < p.DepDensity {
			return recent[rng.Intn(len(recent))]
		}
		if fp {
			return uint8(1 + rng.Intn(15))
		}
		return uint8(1 + rng.Intn(15))
	}
	pickDst := func(fp bool) uint8 {
		d := uint8(1 + rng.Intn(15))
		if fp {
			recentFP = append(recentFP[1:], d)
		} else {
			recentInt = append(recentInt[1:], d)
		}
		return d
	}
	offset := func() int32 { return int32(4 * rng.Intn(512)) }

	for _, phase := range phases {
		for i := 0; i < phase.Instructions; i++ {
			t := sample(rng, phase.Mix)
			var in isa.Inst
			switch t {
			case arch.IntALU:
				ops := []isa.Opcode{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL}
				in = isa.New(ops[rng.Intn(len(ops))], pickDst(false), pickSrc(false), pickSrc(false), 0)
			case arch.IntMDU:
				ops := []isa.Opcode{isa.MUL, isa.MULH, isa.DIV, isa.REM}
				in = isa.New(ops[rng.Intn(len(ops))], pickDst(false), pickSrc(false), pickSrc(false), 0)
			case arch.LSU:
				if rng.Intn(2) == 0 {
					in = isa.New(isa.LW, pickDst(false), 20, 0, offset())
				} else {
					in = isa.New(isa.SW, 0, 20, pickSrc(false), offset())
				}
			case arch.FPALU:
				ops := []isa.Opcode{isa.FADD, isa.FSUB, isa.FMIN, isa.FMAX}
				in = isa.New(ops[rng.Intn(len(ops))], pickDst(true), pickSrc(true), pickSrc(true), 0)
			case arch.FPMDU:
				if rng.Intn(4) == 0 {
					in = isa.New(isa.FDIV, pickDst(true), pickSrc(true), pickSrc(true), 0)
				} else {
					in = isa.New(isa.FMUL, pickDst(true), pickSrc(true), pickSrc(true), 0)
				}
			}
			prog = append(prog, in)
		}
	}
	prog = append(prog, isa.New(isa.HALT, 0, 0, 0, 0))
	return prog
}

// sample draws a unit type from the mix's weights.
func sample(rng *rand.Rand, m Mix) arch.UnitType {
	total := 0.0
	for _, w := range m {
		if w < 0 {
			panic("workload: negative mix weight")
		}
		total += w
	}
	if total == 0 {
		panic("workload: empty mix")
	}
	x := rng.Float64() * total
	for t, w := range m {
		x -= w
		if x < 0 {
			return arch.UnitType(t)
		}
	}
	return arch.FPMDU
}
