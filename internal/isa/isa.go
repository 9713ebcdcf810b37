// Package isa defines the 32-bit RISC instruction set executed by the
// reconfigurable superscalar simulator: opcodes and their functional-unit
// classes, binary encoding, a two-pass assembler and disassembler, and the
// functional (architectural) semantics used both by tests and by the
// simulator's execute stage.
//
// The paper assumes a legacy-compatible RISC ISA in which every
// instruction is serviced by exactly one functional-unit type (§2); this
// package realises that assumption: Opcode.Unit is a total map from
// opcodes to the five unit types of package arch.
package isa

import (
	"fmt"
	"strconv"

	"repro/internal/arch"
)

// Opcode identifies an instruction of the ISA.
type Opcode uint8

// Opcodes, grouped by the functional unit that executes them.
const (
	// Integer ALU class.
	NOP Opcode = iota
	HALT
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLLI
	SRLI
	SRAI
	LUI
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL
	JALR

	// Integer multiply/divide class.
	MUL
	MULH
	DIV
	DIVU
	REM
	REMU

	// Load/store class.
	LW
	LH
	LB
	LBU
	SW
	SH
	SB
	FLW
	FSW

	// Floating-point ALU class.
	FADD
	FSUB
	FMIN
	FMAX
	FABS
	FNEG
	FEQ
	FLT
	FLE
	FCVTWS // float -> int word
	FCVTSW // int word -> float
	FMVWX  // move raw bits int -> fp register
	FMVXW  // move raw bits fp -> int register

	// Floating-point multiply/divide class.
	FMUL
	FDIV
	FSQRT

	// NumOpcodes is the number of defined opcodes.
	NumOpcodes
)

// Format describes the operand shape of an instruction; shapes holds
// the one description of each.
type Format uint8

const (
	FmtNone  Format = iota // no operands (NOP, HALT)
	FmtR                   // rd, rs1, rs2
	FmtR2                  // rd, rs1 (unary)
	FmtI                   // rd, rs1, imm
	FmtU                   // rd, imm (LUI, JAL)
	FmtMem                 // rd, imm(rs1) — loads
	FmtStore               // rs2, imm(rs1) — stores
	FmtB                   // rs1, rs2, imm — branches
)

// regField names one of Inst's register fields, Rd, Rs1 or Rs2.
type regField uint8

const (
	fieldRd regField = iota
	fieldRs1
	fieldRs2
)

// operandKind is what one comma-separated source operand holds.
type operandKind uint8

const (
	opReg    operandKind = iota // a register, its file taken from opTable
	opConst                     // a constant (JAL's is a target instead)
	opTarget                    // a label or numeric word offset, PC-relative
	opMem                       // imm(base), base a register
)

// operand is one source operand: its kind and, for opReg and opMem, the
// register field it names.
type operand struct {
	kind operandKind
	reg  regField
}

// shape is the one description of a Format that the assembler,
// Inst.String, Encode, Decode, SourceRegs and Dest all read.
//
// A word holds the opcode in its top byte, each register in the 5-bit
// field whose lowest bit fieldAt gives, and immBits of immediate in the
// low bits. Immediates are signed except LUI's, an unsigned upper-bits
// constant.
type shape struct {
	operands []operand // source operands, in order
	fieldAt  [3]uint   // by regField; noField where the format has no such register
	immBits  uint
}

// noField places a register the format lacks past the 32-bit word, where
// shifting it in or out gives 0.
const noField = 32

var (
	rdOp     = operand{opReg, fieldRd}
	rs1Op    = operand{opReg, fieldRs1}
	rs2Op    = operand{opReg, fieldRs2}
	constOp  = operand{kind: opConst}
	targetOp = operand{kind: opTarget}
	memOp    = operand{opMem, fieldRs1}
)

var shapes = [...]shape{
	FmtNone:  {nil, [3]uint{noField, noField, noField}, 0},
	FmtR:     {[]operand{rdOp, rs1Op, rs2Op}, [3]uint{19, 14, 9}, 0},
	FmtR2:    {[]operand{rdOp, rs1Op}, [3]uint{19, 14, noField}, 0},
	FmtI:     {[]operand{rdOp, rs1Op, constOp}, [3]uint{19, 14, noField}, ImmBits14},
	FmtU:     {[]operand{rdOp, constOp}, [3]uint{19, noField, noField}, ImmBits19},
	FmtMem:   {[]operand{rdOp, memOp}, [3]uint{19, 14, noField}, ImmBits14},
	FmtStore: {[]operand{rs2Op, memOp}, [3]uint{noField, 19, 14}, ImmBits14},
	FmtB:     {[]operand{rs1Op, rs2Op, targetOp}, [3]uint{noField, 19, 14}, ImmBits14},
}

// opInfo is the static description of one opcode.
type opInfo struct {
	name   string
	unit   arch.UnitType
	format Format
	// Operand register classes: true means the field indexes the FP
	// register file.
	rdFP, rs1FP, rs2FP bool
}

// fp reports whether register field f of op indexes the FP file.
func (info *opInfo) fp(f regField) bool {
	return [...]bool{info.rdFP, info.rs1FP, info.rs2FP}[f]
}

var opTable = [NumOpcodes]opInfo{
	NOP:  {"nop", arch.IntALU, FmtNone, false, false, false},
	HALT: {"halt", arch.IntALU, FmtNone, false, false, false},
	ADD:  {"add", arch.IntALU, FmtR, false, false, false},
	SUB:  {"sub", arch.IntALU, FmtR, false, false, false},
	AND:  {"and", arch.IntALU, FmtR, false, false, false},
	OR:   {"or", arch.IntALU, FmtR, false, false, false},
	XOR:  {"xor", arch.IntALU, FmtR, false, false, false},
	SLL:  {"sll", arch.IntALU, FmtR, false, false, false},
	SRL:  {"srl", arch.IntALU, FmtR, false, false, false},
	SRA:  {"sra", arch.IntALU, FmtR, false, false, false},
	SLT:  {"slt", arch.IntALU, FmtR, false, false, false},
	SLTU: {"sltu", arch.IntALU, FmtR, false, false, false},
	ADDI: {"addi", arch.IntALU, FmtI, false, false, false},
	ANDI: {"andi", arch.IntALU, FmtI, false, false, false},
	ORI:  {"ori", arch.IntALU, FmtI, false, false, false},
	XORI: {"xori", arch.IntALU, FmtI, false, false, false},
	SLTI: {"slti", arch.IntALU, FmtI, false, false, false},
	SLLI: {"slli", arch.IntALU, FmtI, false, false, false},
	SRLI: {"srli", arch.IntALU, FmtI, false, false, false},
	SRAI: {"srai", arch.IntALU, FmtI, false, false, false},
	LUI:  {"lui", arch.IntALU, FmtU, false, false, false},
	BEQ:  {"beq", arch.IntALU, FmtB, false, false, false},
	BNE:  {"bne", arch.IntALU, FmtB, false, false, false},
	BLT:  {"blt", arch.IntALU, FmtB, false, false, false},
	BGE:  {"bge", arch.IntALU, FmtB, false, false, false},
	BLTU: {"bltu", arch.IntALU, FmtB, false, false, false},
	BGEU: {"bgeu", arch.IntALU, FmtB, false, false, false},
	JAL:  {"jal", arch.IntALU, FmtU, false, false, false},
	JALR: {"jalr", arch.IntALU, FmtI, false, false, false},

	MUL:  {"mul", arch.IntMDU, FmtR, false, false, false},
	MULH: {"mulh", arch.IntMDU, FmtR, false, false, false},
	DIV:  {"div", arch.IntMDU, FmtR, false, false, false},
	DIVU: {"divu", arch.IntMDU, FmtR, false, false, false},
	REM:  {"rem", arch.IntMDU, FmtR, false, false, false},
	REMU: {"remu", arch.IntMDU, FmtR, false, false, false},

	LW:  {"lw", arch.LSU, FmtMem, false, false, false},
	LH:  {"lh", arch.LSU, FmtMem, false, false, false},
	LB:  {"lb", arch.LSU, FmtMem, false, false, false},
	LBU: {"lbu", arch.LSU, FmtMem, false, false, false},
	SW:  {"sw", arch.LSU, FmtStore, false, false, false},
	SH:  {"sh", arch.LSU, FmtStore, false, false, false},
	SB:  {"sb", arch.LSU, FmtStore, false, false, false},
	FLW: {"flw", arch.LSU, FmtMem, true, false, false},
	FSW: {"fsw", arch.LSU, FmtStore, false, false, true},

	FADD:   {"fadd", arch.FPALU, FmtR, true, true, true},
	FSUB:   {"fsub", arch.FPALU, FmtR, true, true, true},
	FMIN:   {"fmin", arch.FPALU, FmtR, true, true, true},
	FMAX:   {"fmax", arch.FPALU, FmtR, true, true, true},
	FABS:   {"fabs", arch.FPALU, FmtR2, true, true, false},
	FNEG:   {"fneg", arch.FPALU, FmtR2, true, true, false},
	FEQ:    {"feq", arch.FPALU, FmtR, false, true, true},
	FLT:    {"flt", arch.FPALU, FmtR, false, true, true},
	FLE:    {"fle", arch.FPALU, FmtR, false, true, true},
	FCVTWS: {"fcvt.w.s", arch.FPALU, FmtR2, false, true, false},
	FCVTSW: {"fcvt.s.w", arch.FPALU, FmtR2, true, false, false},
	FMVWX:  {"fmv.w.x", arch.FPALU, FmtR2, true, false, false},
	FMVXW:  {"fmv.x.w", arch.FPALU, FmtR2, false, true, false},

	FMUL:  {"fmul", arch.FPMDU, FmtR, true, true, true},
	FDIV:  {"fdiv", arch.FPMDU, FmtR, true, true, true},
	FSQRT: {"fsqrt", arch.FPMDU, FmtR2, true, true, false},
}

// regUse holds, per opcode, what Dest and SourceRegs answer, filled
// once from the opcode's shape so both are single table reads: whether
// the opcode writes Rd, and how many of Rs1, Rs2 (in that order) it
// reads.
var regUse = func() (u [NumOpcodes]struct {
	writes bool
	nsrc   int
}) {
	for op, info := range opTable {
		for _, o := range shapes[info.format].operands {
			switch {
			case o.kind != opReg && o.kind != opMem:
			case o.reg == fieldRd:
				u[op].writes = true
			default:
				u[op].nsrc++
			}
		}
	}
	return u
}()

// String returns the assembler mnemonic of the opcode.
func (op Opcode) String() string {
	if op < NumOpcodes {
		return opTable[op].name
	}
	return fmt.Sprintf("Opcode(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < NumOpcodes }

// Unit returns the functional-unit type that executes op. Every opcode
// maps to exactly one unit type (the paper's single-unit assumption).
func (op Opcode) Unit() arch.UnitType { return opTable[op].unit }

// Format returns the operand shape of op.
func (op Opcode) Format() Format { return opTable[op].format }

// IsBranch reports whether op can redirect control flow.
func (op Opcode) IsBranch() bool {
	switch op {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU, JAL, JALR:
		return true
	}
	return false
}

// IsLoad reports whether op reads data memory.
func (op Opcode) IsLoad() bool {
	switch op {
	case LW, LH, LB, LBU, FLW:
		return true
	}
	return false
}

// IsStore reports whether op writes data memory.
func (op Opcode) IsStore() bool {
	switch op {
	case SW, SH, SB, FSW:
		return true
	}
	return false
}

// Register file addressing: registers are identified by a unified 6-bit
// index — integer registers x0..x31 occupy 0..31 and floating-point
// registers f0..f31 occupy 32..63. x0 is hard-wired to zero.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs
	// RegZero is the unified index of the hard-wired zero register x0.
	RegZero = 0
	// FPBase is the unified index of f0.
	FPBase = NumIntRegs
)

// RegName renders a unified register index as "rN" or "fN".
func RegName(r uint8) string {
	if r < FPBase {
		return fmt.Sprintf("r%d", r)
	}
	return fmt.Sprintf("f%d", r-FPBase)
}

// Inst is one decoded instruction. Register fields hold unified indices
// (see RegName); fields that the opcode's format does not use are zero.
type Inst struct {
	Op  Opcode
	Rd  uint8 // destination register (unified index)
	Rs1 uint8 // first source register
	Rs2 uint8 // second source register
	Imm int32 // immediate: memory offset, branch word offset, or constant
}

// unify maps a 5-bit register field to the unified index space using the
// opcode's operand register classes.
func unify(idx uint8, fp bool) uint8 {
	if fp {
		return idx + FPBase
	}
	return idx
}

// New builds a decoded instruction from raw 5-bit register fields,
// applying the opcode's integer/FP register classes. It is the
// constructor the assembler and workload generators use.
func New(op Opcode, rd, rs1, rs2 uint8, imm int32) Inst {
	info := opTable[op]
	return Inst{
		Op:  op,
		Rd:  unify(rd, info.rdFP),
		Rs1: unify(rs1, info.rs1FP),
		Rs2: unify(rs2, info.rs2FP),
		Imm: imm,
	}
}

// Unit returns the functional-unit type that executes the instruction.
func (in Inst) Unit() arch.UnitType { return in.Op.Unit() }

// SourceRegs returns the unified indices of the registers the
// instruction reads, Rs1 then Rs2, in a fixed-size array plus the count
// of valid entries, so dependence collection never heap-allocates.
// The zero register is included when named; it is always ready.
func (in Inst) SourceRegs() (regs [2]uint8, n int) {
	return [2]uint8{in.Rs1, in.Rs2}, regUse[in.Op].nsrc
}

// Dest returns the unified index of the register the instruction writes
// and ok=false when it writes none (stores, branches other than JAL/JALR,
// NOP, HALT) or names x0, whose writes are discarded.
func (in Inst) Dest() (uint8, bool) {
	return in.Rd, regUse[in.Op].writes && in.Rd != RegZero
}

// String disassembles the instruction in the operand order of its
// shape, the form the assembler reads back.
func (in Inst) String() string {
	b := append(make([]byte, 0, 32), in.Op.String()...)
	regs := [...]uint8{fieldRd: in.Rd, fieldRs1: in.Rs1, fieldRs2: in.Rs2}
	for i, o := range shapes[in.Op.Format()].operands {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch o.kind {
		case opReg:
			b = append(b, RegName(regs[o.reg])...)
		case opMem:
			b = fmt.Appendf(b, "%d(%s)", in.Imm, RegName(regs[o.reg]))
		default:
			b = strconv.AppendInt(b, int64(in.Imm), 10)
		}
	}
	return string(b)
}

// Program is a sequence of decoded instructions; the PC is an index into
// the slice.
type Program []Inst

// Latencies maps each opcode class to an execution latency in cycles.
// The zero value is unusable; use DefaultLatencies.
type Latencies struct {
	IntALU int // simple integer and branch operations
	IntMul int // MUL, MULH
	IntDiv int // DIV, DIVU, REM, REMU
	Load   int // cache-hit load latency
	Store  int // store address/data computation
	FPALU  int // FP add/sub/compare/convert/move
	FPMul  int // FMUL
	FPDiv  int // FDIV
	FPSqrt int // FSQRT
}

// DefaultLatencies returns the latency model used throughout the
// experiments: single-cycle integer ALU, 4-cycle multiply, 12-cycle
// divide, 2-cycle cache-hit loads, 3-cycle FP ALU, 5-cycle FP multiply,
// 16-cycle FP divide and 20-cycle square root.
func DefaultLatencies() Latencies {
	return Latencies{
		IntALU: 1,
		IntMul: 4,
		IntDiv: 12,
		Load:   2,
		Store:  1,
		FPALU:  3,
		FPMul:  5,
		FPDiv:  16,
		FPSqrt: 20,
	}
}

// Of returns the execution latency of op under the model.
func (l Latencies) Of(op Opcode) int {
	switch {
	case op == MUL || op == MULH:
		return l.IntMul
	case op == DIV || op == DIVU || op == REM || op == REMU:
		return l.IntDiv
	case op.IsLoad():
		return l.Load
	case op.IsStore():
		return l.Store
	case op == FMUL:
		return l.FPMul
	case op == FDIV:
		return l.FPDiv
	case op == FSQRT:
		return l.FPSqrt
	case op.Unit() == arch.FPALU:
		return l.FPALU
	default:
		return l.IntALU
	}
}
