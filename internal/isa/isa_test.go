package isa

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// testMem is a sparse byte-addressable memory for functional tests.
type testMem map[uint32]uint8

func (m testMem) LoadByte(a uint32) uint8      { return m[a] }
func (m testMem) StoreByte(a uint32, v uint8)  { m[a] = v }
func (m testMem) LoadHalf(a uint32) uint16     { return uint16(m[a]) | uint16(m[a+1])<<8 }
func (m testMem) StoreHalf(a uint32, v uint16) { m[a], m[a+1] = uint8(v), uint8(v>>8) }
func (m testMem) LoadWord(a uint32) uint32 {
	return uint32(m.LoadHalf(a)) | uint32(m.LoadHalf(a+2))<<16
}
func (m testMem) StoreWord(a uint32, v uint32) {
	m.StoreHalf(a, uint16(v))
	m.StoreHalf(a+2, uint16(v>>16))
}

func newState() *State { return &State{Mem: testMem{}} }

func TestEveryOpcodeHasTableEntry(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if !op.Unit().Valid() {
			t.Errorf("opcode %v has invalid unit type", op)
		}
	}
}

// TestSingleUnitAssumption pins the paper's assumption that each
// instruction is supported by exactly one functional-unit type, and spot
// checks the class assignment.
func TestSingleUnitAssumption(t *testing.T) {
	want := map[Opcode]arch.UnitType{
		ADD: arch.IntALU, BEQ: arch.IntALU, JAL: arch.IntALU, HALT: arch.IntALU,
		MUL: arch.IntMDU, DIV: arch.IntMDU, REM: arch.IntMDU,
		LW: arch.LSU, SW: arch.LSU, FLW: arch.LSU, FSW: arch.LSU,
		FADD: arch.FPALU, FEQ: arch.FPALU, FCVTWS: arch.FPALU,
		FMUL: arch.FPMDU, FDIV: arch.FPMDU, FSQRT: arch.FPMDU,
	}
	for op, u := range want {
		if got := op.Unit(); got != u {
			t.Errorf("%v.Unit() = %v, want %v", op, got, u)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	for _, op := range []Opcode{BEQ, BNE, BLT, BGE, BLTU, BGEU, JAL, JALR} {
		if !op.IsBranch() {
			t.Errorf("%v.IsBranch() = false", op)
		}
	}
	for _, op := range []Opcode{ADD, LW, SW, HALT} {
		if op.IsBranch() {
			t.Errorf("%v.IsBranch() = true", op)
		}
	}
	for _, op := range []Opcode{LW, LH, LB, LBU, FLW} {
		if !op.IsLoad() || op.IsStore() {
			t.Errorf("%v load/store predicates wrong", op)
		}
	}
	for _, op := range []Opcode{SW, SH, SB, FSW} {
		if !op.IsStore() || op.IsLoad() {
			t.Errorf("%v load/store predicates wrong", op)
		}
	}
}

func TestRegName(t *testing.T) {
	if RegName(0) != "r0" || RegName(31) != "r31" || RegName(32) != "f0" || RegName(63) != "f31" {
		t.Error("RegName mapping wrong")
	}
}

func TestNewUnifiesFPOperands(t *testing.T) {
	in := New(FADD, 1, 2, 3, 0)
	if in.Rd != FPBase+1 || in.Rs1 != FPBase+2 || in.Rs2 != FPBase+3 {
		t.Errorf("FADD operands not unified to FP space: %+v", in)
	}
	// FEQ writes an integer register but reads FP sources.
	in = New(FEQ, 4, 2, 3, 0)
	if in.Rd != 4 || in.Rs1 != FPBase+2 || in.Rs2 != FPBase+3 {
		t.Errorf("FEQ operand classes wrong: %+v", in)
	}
	// FSW: base register integer, stored value FP.
	in = New(FSW, 0, 5, 6, 8)
	if in.Rs1 != 5 || in.Rs2 != FPBase+6 {
		t.Errorf("FSW operand classes wrong: %+v", in)
	}
}

func TestDestAndSources(t *testing.T) {
	cases := []struct {
		in      Inst
		dest    uint8
		hasDest bool
		sources []uint8
	}{
		{New(ADD, 1, 2, 3, 0), 1, true, []uint8{2, 3}},
		{New(ADD, 0, 2, 3, 0), 0, false, []uint8{2, 3}}, // x0 destination discarded
		{New(ADDI, 4, 5, 0, 7), 4, true, []uint8{5}},
		{New(LW, 6, 7, 0, 4), 6, true, []uint8{7}},
		{New(SW, 0, 8, 9, 0), 0, false, []uint8{8, 9}},
		{New(BEQ, 0, 1, 2, -3), 0, false, []uint8{1, 2}},
		{New(JAL, 31, 0, 0, 5), 31, true, nil},
		{New(NOP, 0, 0, 0, 0), 0, false, nil},
		{New(HALT, 0, 0, 0, 0), 0, false, nil},
		{New(FSQRT, 1, 2, 0, 0), FPBase + 1, true, []uint8{FPBase + 2}},
	}
	for _, c := range cases {
		d, ok := c.in.Dest()
		if ok != c.hasDest || (ok && d != c.dest) {
			t.Errorf("%v.Dest() = %d,%v want %d,%v", c.in, d, ok, c.dest, c.hasDest)
		}
		regs, n := c.in.SourceRegs()
		src := regs[:n]
		if len(src) != len(c.sources) {
			t.Errorf("%v.SourceRegs() = %v want %v", c.in, src, c.sources)
			continue
		}
		for i := range src {
			if src[i] != c.sources[i] {
				t.Errorf("%v.SourceRegs() = %v want %v", c.in, src, c.sources)
			}
		}
	}
}

// randomInst builds a random but encodable instruction for round-trip
// property tests.
func randomInst(rng *rand.Rand) Inst {
	op := Opcode(rng.Intn(int(NumOpcodes)))
	rd := uint8(rng.Intn(32))
	rs1 := uint8(rng.Intn(32))
	rs2 := uint8(rng.Intn(32))
	var imm int32
	switch op.Format() {
	case FmtI, FmtMem, FmtStore, FmtB:
		imm = int32(rng.Intn(MaxImm14-MinImm14+1)) + MinImm14
	case FmtU:
		if op == LUI {
			imm = int32(rng.Intn(MaxLUI + 1))
		} else {
			imm = int32(rng.Intn(MaxImm19-MinImm19+1)) + MinImm19
		}
	}
	return New(op, rd, rs1, rs2, imm)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		in := randomInst(rng)
		// Normalise fields the format does not carry, as Decode will.
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", in, err)
		}
		want := normalise(in)
		if got != want {
			t.Fatalf("round trip %v -> %#08x -> %v", want, w, got)
		}
	}
}

// normalise zeroes the operand fields an instruction's format does not
// encode, matching Decode's output shape.
func normalise(in Inst) Inst {
	out := Inst{Op: in.Op}
	switch in.Op.Format() {
	case FmtR:
		out.Rd, out.Rs1, out.Rs2 = in.Rd, in.Rs1, in.Rs2
	case FmtR2:
		out.Rd, out.Rs1 = in.Rd, in.Rs1
	case FmtI, FmtMem:
		out.Rd, out.Rs1, out.Imm = in.Rd, in.Rs1, in.Imm
	case FmtStore, FmtB:
		out.Rs1, out.Rs2, out.Imm = in.Rs1, in.Rs2, in.Imm
	case FmtU:
		out.Rd, out.Imm = in.Rd, in.Imm
	}
	// Restore FP bases stripped by the zeroing above.
	return out
}

func TestEncodeRejectsOutOfRangeImmediates(t *testing.T) {
	cases := []Inst{
		New(ADDI, 1, 2, 0, MaxImm14+1),
		New(ADDI, 1, 2, 0, MinImm14-1),
		New(LUI, 1, 0, 0, -1),
		New(LUI, 1, 0, 0, MaxLUI+1),
		New(JAL, 1, 0, 0, MaxImm19+1),
		New(SW, 0, 1, 2, MinImm14-1),
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) accepted out-of-range immediate", in)
		}
	}
	if _, err := Encode(Inst{Op: NumOpcodes}); err == nil {
		t.Error("Encode accepted invalid opcode")
	}
	if _, err := Decode(uint32(NumOpcodes) << 24); err == nil {
		t.Error("Decode accepted invalid opcode byte")
	}
}

func TestEncodeDecodeProgram(t *testing.T) {
	p := MustAssemble(`
		li r1, 10
		li r2, 123456
		add r3, r1, r2
		halt
	`)
	words, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(p) {
		t.Fatalf("program length changed: %d -> %d", len(p), len(q))
	}
	for i := range p {
		if p[i] != q[i] {
			t.Errorf("inst %d: %v -> %v", i, p[i], q[i])
		}
	}
}

func TestExecIntegerOps(t *testing.T) {
	s := newState()
	s.WriteReg(1, 7)
	s.WriteReg(2, 3)
	cases := []struct {
		in   Inst
		want uint32
	}{
		{New(ADD, 3, 1, 2, 0), 10},
		{New(SUB, 3, 1, 2, 0), 4},
		{New(AND, 3, 1, 2, 0), 3},
		{New(OR, 3, 1, 2, 0), 7},
		{New(XOR, 3, 1, 2, 0), 4},
		{New(SLL, 3, 1, 2, 0), 56},
		{New(SRL, 3, 1, 2, 0), 0},
		{New(SLT, 3, 1, 2, 0), 0},
		{New(SLT, 3, 2, 1, 0), 1},
		{New(ADDI, 3, 1, 0, -2), 5},
		{New(SLLI, 3, 1, 0, 4), 112},
		{New(MUL, 3, 1, 2, 0), 21},
		{New(DIV, 3, 1, 2, 0), 2},
		{New(REM, 3, 1, 2, 0), 1},
	}
	for _, c := range cases {
		s.PC = 0
		if err := Exec(c.in, s); err != nil {
			t.Fatalf("Exec(%v): %v", c.in, err)
		}
		if got := s.ReadReg(3); got != c.want {
			t.Errorf("%v -> r3 = %d, want %d", c.in, got, c.want)
		}
		if s.PC != 1 {
			t.Errorf("%v advanced PC to %d, want 1", c.in, s.PC)
		}
	}
}

func TestExecSignedOps(t *testing.T) {
	s := newState()
	s.WriteReg(1, uint32(0xfffffff8)) // -8
	s.WriteReg(2, 3)
	Exec(New(SRA, 3, 1, 2, 0), s)
	if got := int32(s.ReadReg(3)); got != -1 {
		t.Errorf("SRA(-8,3) = %d, want -1", got)
	}
	Exec(New(DIV, 3, 1, 2, 0), s)
	if got := int32(s.ReadReg(3)); got != -2 {
		t.Errorf("DIV(-8,3) = %d, want -2", got)
	}
	Exec(New(REM, 3, 1, 2, 0), s)
	if got := int32(s.ReadReg(3)); got != -2 {
		t.Errorf("REM(-8,3) = %d, want -2", got)
	}
}

func TestExecDivideByZeroConventions(t *testing.T) {
	s := newState()
	s.WriteReg(1, 42)
	Exec(New(DIV, 3, 1, 0, 0), s)
	if s.ReadReg(3) != ^uint32(0) {
		t.Error("DIV by zero should produce all ones")
	}
	Exec(New(REM, 3, 1, 0, 0), s)
	if s.ReadReg(3) != 42 {
		t.Error("REM by zero should produce the dividend")
	}
	Exec(New(DIVU, 3, 1, 0, 0), s)
	if s.ReadReg(3) != ^uint32(0) {
		t.Error("DIVU by zero should produce all ones")
	}
	Exec(New(REMU, 3, 1, 0, 0), s)
	if s.ReadReg(3) != 42 {
		t.Error("REMU by zero should produce the dividend")
	}
	// Signed overflow case.
	s.WriteReg(1, 1<<31)
	s.WriteReg(2, ^uint32(0)) // -1
	Exec(New(DIV, 3, 1, 2, 0), s)
	if s.ReadReg(3) != 1<<31 {
		t.Error("DIV overflow should return the dividend")
	}
	Exec(New(REM, 3, 1, 2, 0), s)
	if s.ReadReg(3) != 0 {
		t.Error("REM overflow should return zero")
	}
}

func TestExecZeroRegisterIsImmutable(t *testing.T) {
	s := newState()
	s.WriteReg(1, 5)
	Exec(New(ADD, 0, 1, 1, 0), s)
	if s.ReadReg(0) != 0 {
		t.Error("write to x0 stuck")
	}
}

func TestExecMemoryOps(t *testing.T) {
	s := newState()
	s.WriteReg(1, 100) // base
	s.WriteReg(2, 0xdeadbeef)
	Exec(New(SW, 0, 1, 2, 8), s)
	Exec(New(LW, 3, 1, 0, 8), s)
	if s.ReadReg(3) != 0xdeadbeef {
		t.Errorf("LW after SW = %#x", s.ReadReg(3))
	}
	Exec(New(LBU, 3, 1, 0, 8), s)
	if s.ReadReg(3) != 0xef {
		t.Errorf("LBU = %#x, want 0xef", s.ReadReg(3))
	}
	Exec(New(LB, 3, 1, 0, 8), s)
	if int32(s.ReadReg(3)) != -17 { // 0xef sign-extended
		t.Errorf("LB = %d, want -17", int32(s.ReadReg(3)))
	}
	Exec(New(LH, 3, 1, 0, 8), s)
	half := uint16(0xbeef)
	if int32(s.ReadReg(3)) != int32(int16(half)) {
		t.Errorf("LH = %d", int32(s.ReadReg(3)))
	}
	s.WriteFloat(FPBase+1, 2.5)
	Exec(Inst{Op: FSW, Rs1: 1, Rs2: FPBase + 1, Imm: 16}, s)
	Exec(Inst{Op: FLW, Rd: FPBase + 2, Rs1: 1, Imm: 16}, s)
	if s.ReadFloat(FPBase+2) != 2.5 {
		t.Errorf("FLW after FSW = %v", s.ReadFloat(FPBase+2))
	}
}

func TestExecFloatOps(t *testing.T) {
	s := newState()
	f1, f2 := uint8(FPBase+1), uint8(FPBase+2)
	f3 := uint8(FPBase + 3)
	s.WriteFloat(f1, 6.0)
	s.WriteFloat(f2, 1.5)
	check := func(in Inst, want float32) {
		t.Helper()
		if err := Exec(in, s); err != nil {
			t.Fatalf("Exec(%v): %v", in, err)
		}
		if got := s.ReadFloat(f3); got != want {
			t.Errorf("%v -> %v, want %v", in, got, want)
		}
	}
	check(Inst{Op: FADD, Rd: f3, Rs1: f1, Rs2: f2}, 7.5)
	check(Inst{Op: FSUB, Rd: f3, Rs1: f1, Rs2: f2}, 4.5)
	check(Inst{Op: FMUL, Rd: f3, Rs1: f1, Rs2: f2}, 9.0)
	check(Inst{Op: FDIV, Rd: f3, Rs1: f1, Rs2: f2}, 4.0)
	check(Inst{Op: FMIN, Rd: f3, Rs1: f1, Rs2: f2}, 1.5)
	check(Inst{Op: FMAX, Rd: f3, Rs1: f1, Rs2: f2}, 6.0)
	check(Inst{Op: FNEG, Rd: f3, Rs1: f1}, -6.0)
	check(Inst{Op: FABS, Rd: f3, Rs1: f3}, 6.0)

	s.WriteFloat(f1, 9.0)
	check(Inst{Op: FSQRT, Rd: f3, Rs1: f1}, 3.0)

	Exec(Inst{Op: FLT, Rd: 5, Rs1: f2, Rs2: f1}, s)
	if s.ReadReg(5) != 1 {
		t.Error("FLT(1.5, 9.0) != 1")
	}
	Exec(Inst{Op: FCVTWS, Rd: 5, Rs1: f1}, s)
	if s.ReadReg(5) != 9 {
		t.Error("FCVTWS(9.0) != 9")
	}
	s.WriteReg(6, 4)
	Exec(Inst{Op: FCVTSW, Rd: f3, Rs1: 6}, s)
	if s.ReadFloat(f3) != 4.0 {
		t.Error("FCVTSW(4) != 4.0")
	}
	s.WriteReg(6, math.Float32bits(1.25))
	Exec(Inst{Op: FMVWX, Rd: f3, Rs1: 6}, s)
	if s.ReadFloat(f3) != 1.25 {
		t.Error("FMVWX bit move wrong")
	}
	Exec(Inst{Op: FMVXW, Rd: 7, Rs1: f3}, s)
	if s.ReadReg(7) != math.Float32bits(1.25) {
		t.Error("FMVXW bit move wrong")
	}
}

func TestExecBranches(t *testing.T) {
	s := newState()
	s.WriteReg(1, 5)
	s.WriteReg(2, 5)
	s.PC = 10
	Exec(New(BEQ, 0, 1, 2, 4), s)
	if s.PC != 14 {
		t.Errorf("taken BEQ: PC = %d, want 14", s.PC)
	}
	Exec(New(BNE, 0, 1, 2, 4), s)
	if s.PC != 15 {
		t.Errorf("not-taken BNE: PC = %d, want 15", s.PC)
	}
	Exec(New(JAL, 31, 0, 0, -5), s)
	if s.PC != 10 || s.ReadReg(31) != 16 {
		t.Errorf("JAL: PC = %d link = %d", s.PC, s.ReadReg(31))
	}
	s.WriteReg(4, 100)
	Exec(New(JALR, 31, 4, 0, 3), s)
	if s.PC != 103 || s.ReadReg(31) != 11 {
		t.Errorf("JALR: PC = %d link = %d", s.PC, s.ReadReg(31))
	}
}

func TestExecHalt(t *testing.T) {
	s := newState()
	s.PC = 3
	Exec(New(HALT, 0, 0, 0, 0), s)
	if !s.Halted || s.PC != 3 {
		t.Errorf("HALT: halted=%v PC=%d", s.Halted, s.PC)
	}
}

// TestRunSumLoop assembles and functionally runs a summation loop,
// validating assembler + semantics end to end.
func TestRunSumLoop(t *testing.T) {
	p := MustAssemble(`
		; sum 1..100 into r3
		li r1, 100
		li r2, 0       ; i
		li r3, 0       ; sum
	loop:
		addi r2, r2, 1
		add r3, r3, r2
		bne r2, r1, loop
		halt
	`)
	s := newState()
	if _, err := Run(p, s, 10000); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(3); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestRunMemoryKernel(t *testing.T) {
	// Store 10 squares, then load them back and sum.
	p := MustAssemble(`
		li r1, 0      ; i
		li r2, 10
		li r4, 1000   ; base
	store:
		mul r3, r1, r1
		slli r5, r1, 2
		add r5, r5, r4
		sw r3, 0(r5)
		addi r1, r1, 1
		bne r1, r2, store
		li r1, 0
		li r6, 0      ; sum
	load:
		slli r5, r1, 2
		add r5, r5, r4
		lw r3, 0(r5)
		add r6, r6, r3
		addi r1, r1, 1
		bne r1, r2, load
		halt
	`)
	s := newState()
	if _, err := Run(p, s, 10000); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(6); got != 285 { // sum of squares 0..9
		t.Errorf("sum of squares = %d, want 285", got)
	}
}

func TestRunFloatKernel(t *testing.T) {
	p := MustAssemble(`
		li r1, 16
		fcvt.s.w f1, r1
		fsqrt f2, f1      ; 4.0
		li r2, 3
		fcvt.s.w f3, r2
		fmul f4, f2, f3   ; 12.0
		fcvt.w.s r5, f4
		halt
	`)
	s := newState()
	if _, err := Run(p, s, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(5); got != 12 {
		t.Errorf("result = %d, want 12", got)
	}
}

func TestRunDetectsRunaway(t *testing.T) {
	p := MustAssemble(`
	loop:
		j loop
	`)
	if _, err := Run(p, newState(), 100); err == nil {
		t.Error("Run did not report missing HALT")
	}
	if _, err := Run(Program{New(JAL, 0, 0, 0, 100)}, newState(), 100); err == nil {
		t.Error("Run did not report PC escape")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"bogus r1, r2", `line 1: unknown mnemonic "bogus"`},
		{"add r1, r2", "line 1: add wants 3 operands, got 2"},
		{"add f1, r2, r3", `line 1: add: operand "f1" must be an integer register`},
		{"fadd r1, f2, f3", `line 1: fadd: operand "r1" must be a floating-point register`},
		{"beq r1, r2, nowhere", `line 1: unknown label or bad offset "nowhere"`},
		{"lw r1, r2", `line 1: bad memory operand "r2"`},
		{"li f1, 5", "line 1: li destination must be an integer register"},
		{"addi r1, r2, notanum", `line 1: bad constant "notanum"`},
		{"x: x: nop", `line 1: duplicate label "x"`},
		{"9bad: nop", `line 1: bad label "9bad"`},
		{"beq f1, f2, 0", "line 1: beq compares integer registers"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Assemble(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestAssembleLabelsAndOffsets(t *testing.T) {
	p := MustAssemble(`
	start:
		nop
		beq r1, r2, start  ; offset -1
		beq r1, r2, end    ; offset +2
		nop
	end:
		halt
	`)
	if p[1].Imm != -1 {
		t.Errorf("backward branch offset = %d, want -1", p[1].Imm)
	}
	if p[2].Imm != 2 {
		t.Errorf("forward branch offset = %d, want 2", p[2].Imm)
	}
}

func TestLiExpansion(t *testing.T) {
	// Small constant: one ADDI.
	p := MustAssemble("li r1, 42\nhalt")
	if len(p) != 2 || p[0].Op != ADDI {
		t.Fatalf("small li expanded to %v", p)
	}
	// Large and negative constants: LUI+ORI, correct value after Run.
	for _, c := range []int32{123456, -1, -123456, math.MaxInt32, math.MinInt32, 8192} {
		p := MustAssemble("li r1, " + itoa(c) + "\nhalt")
		s := newState()
		if _, err := Run(p, s, 10); err != nil {
			t.Fatal(err)
		}
		if got := int32(s.ReadReg(1)); got != c {
			t.Errorf("li %d produced %d", c, got)
		}
	}
}

func itoa(v int32) string { return strings.TrimSpace(strings.Replace(fmtInt(v), "+", "", 1)) }

func fmtInt(v int32) string {
	if v < 0 {
		return "-" + fmtUint(uint64(-int64(v)))
	}
	return fmtUint(uint64(v))
}

func fmtUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestPseudoInstructions(t *testing.T) {
	p := MustAssemble(`
		li r1, 7
		mv r2, r1
		j over
		halt
	over:
		halt
	`)
	s := newState()
	if _, err := Run(p, s, 100); err != nil {
		t.Fatal(err)
	}
	if s.ReadReg(2) != 7 {
		t.Errorf("mv copied %d, want 7", s.ReadReg(2))
	}
	if s.PC != uint32(len(p)-1) {
		t.Errorf("j landed on PC %d, want %d", s.PC, len(p)-1)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		add r1, r2, r3
		addi r4, r5, -7
		lw r6, 12(r7)
		sw r8, 0(r9)
		beq r1, r2, 2
		jal r31, -4
		lui r1, 100
		fadd f1, f2, f3
		fsqrt f4, f5
		fsw f1, 8(r2)
		nop
		halt
	`
	p := MustAssemble(src)
	// Reassembling the disassembly must reproduce the program.
	dis := Disassemble(p)
	q, err := Assemble(stripIndices(dis))
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, dis)
	}
	if len(q) != len(p) {
		t.Fatalf("length changed %d -> %d", len(p), len(q))
	}
	for i := range p {
		if p[i] != q[i] {
			t.Errorf("inst %d: %v -> %v", i, p[i], q[i])
		}
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	cases := map[Opcode]int{
		ADD: 1, BEQ: 1, MUL: 4, DIV: 12, REM: 12, LW: 2, SW: 1,
		FADD: 3, FEQ: 3, FMUL: 5, FDIV: 16, FSQRT: 20, FLW: 2, FSW: 1,
	}
	for op, want := range cases {
		if got := l.Of(op); got != want {
			t.Errorf("latency of %v = %d, want %d", op, got, want)
		}
	}
}

func TestLatencyPositiveForAllOpcodes(t *testing.T) {
	l := DefaultLatencies()
	f := func(op uint8) bool {
		o := Opcode(op) % NumOpcodes
		return l.Of(o) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
