package isa

// The per-format implementations that the shape table replaced, one
// switch per format each, kept as the references FuzzAssemble and
// FuzzDecodeProgram hold the table-driven code to.

import "fmt"

// sourceRegsRef, destRef and stringRef are SourceRegs, Dest and
// String before the shape table: one case per format.
// FuzzDecodeProgram holds the methods to them.
func sourceRegsRef(in Inst) (regs [2]uint8, n int) {
	switch in.Op.Format() {
	case FmtR, FmtB, FmtStore:
		return [2]uint8{in.Rs1, in.Rs2}, 2
	case FmtR2, FmtI, FmtMem:
		return [2]uint8{in.Rs1}, 1
	}
	return [2]uint8{}, 0
}

func destRef(in Inst) (uint8, bool) {
	switch in.Op.Format() {
	case FmtR, FmtR2, FmtI, FmtMem, FmtU:
		if in.Op == NOP || in.Op == HALT {
			return 0, false
		}
		if in.Rd == RegZero {
			return 0, false // writes to x0 are discarded
		}
		return in.Rd, true
	}
	return 0, false
}

func stringRef(in Inst) string {
	switch in.Op.Format() {
	case FmtNone:
		return in.Op.String()
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, RegName(in.Rd), RegName(in.Rs1), RegName(in.Rs2))
	case FmtR2:
		return fmt.Sprintf("%s %s, %s", in.Op, RegName(in.Rd), RegName(in.Rs1))
	case FmtI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, RegName(in.Rd), RegName(in.Rs1), in.Imm)
	case FmtU:
		return fmt.Sprintf("%s %s, %d", in.Op, RegName(in.Rd), in.Imm)
	case FmtMem:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, RegName(in.Rd), in.Imm, RegName(in.Rs1))
	case FmtStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, RegName(in.Rs2), in.Imm, RegName(in.Rs1))
	case FmtB:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, RegName(in.Rs1), RegName(in.Rs2), in.Imm)
	}
	return fmt.Sprintf("%s <bad format>", in.Op)
}

// encodeRef is Encode before the shape table: one case per format.
// FuzzDecodeProgram holds Encode to it.
func encodeRef(in Inst) (uint32, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: encode: invalid opcode %d", uint8(in.Op))
	}
	w := uint32(in.Op) << 24
	switch in.Op.Format() {
	case FmtNone:
		return w, nil
	case FmtR:
		return w | raw5(in.Rd)<<19 | raw5(in.Rs1)<<14 | raw5(in.Rs2)<<9, nil
	case FmtR2:
		return w | raw5(in.Rd)<<19 | raw5(in.Rs1)<<14, nil
	case FmtI, FmtMem:
		if in.Imm < MinImm14 || in.Imm > MaxImm14 {
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of 14-bit range", in.Op, in.Imm)
		}
		return w | raw5(in.Rd)<<19 | raw5(in.Rs1)<<14 | uint32(in.Imm)&(1<<ImmBits14-1), nil
	case FmtStore, FmtB:
		if in.Imm < MinImm14 || in.Imm > MaxImm14 {
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of 14-bit range", in.Op, in.Imm)
		}
		return w | raw5(in.Rs1)<<19 | raw5(in.Rs2)<<14 | uint32(in.Imm)&(1<<ImmBits14-1), nil
	case FmtU:
		if in.Op == LUI {
			if in.Imm < 0 || in.Imm > MaxLUI {
				return 0, fmt.Errorf("isa: encode lui: immediate %d out of unsigned 19-bit range", in.Imm)
			}
		} else if in.Imm < MinImm19 || in.Imm > MaxImm19 {
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of 19-bit range", in.Op, in.Imm)
		}
		return w | raw5(in.Rd)<<19 | uint32(in.Imm)&(1<<ImmBits19-1), nil
	}
	return 0, fmt.Errorf("isa: encode %s: unknown format", in.Op)
}

// decodeRef is Decode before the shape table: one case per format.
// FuzzDecodeProgram holds Decode to it.
func decodeRef(w uint32) (Inst, error) {
	op := Opcode(w >> 24)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: decode: invalid opcode byte %#x", w>>24)
	}
	f1 := uint8(w >> 19 & 0x1f)
	f2 := uint8(w >> 14 & 0x1f)
	f3 := uint8(w >> 9 & 0x1f)
	switch op.Format() {
	case FmtNone:
		return New(op, 0, 0, 0, 0), nil
	case FmtR:
		return New(op, f1, f2, f3, 0), nil
	case FmtR2:
		return New(op, f1, f2, 0, 0), nil
	case FmtI, FmtMem:
		return New(op, f1, f2, 0, signExtend(w&(1<<ImmBits14-1), ImmBits14)), nil
	case FmtStore, FmtB:
		return New(op, 0, f1, f2, signExtend(w&(1<<ImmBits14-1), ImmBits14)), nil
	case FmtU:
		imm := w & (1<<ImmBits19 - 1)
		if op == LUI {
			return New(op, f1, 0, 0, int32(imm)), nil
		}
		return New(op, f1, 0, 0, signExtend(imm, ImmBits19)), nil
	}
	return Inst{}, fmt.Errorf("isa: decode %s: unknown format", op)
}

// checkClass verifies that a register operand is from the file the opcode
// expects.
func checkClass(op Opcode, operand string, fp, wantFP bool) error {
	if fp != wantFP {
		want := "an integer"
		if wantFP {
			want = "a floating-point"
		}
		return fmt.Errorf("%s: operand %q must be %s register", op, operand, want)
	}
	return nil
}

// parseInstRef is the assembler's line parser before the shape table:
// one case per format. FuzzAssemble holds parseInst to it.
func parseInstRef(text string, pc int, labels map[string]int) ([]Inst, error) {
	mnem, rest := splitMnemonic(text)
	ops := splitOperands(rest)

	// Pseudo-instructions first.
	switch mnem {
	case "li", "la":
		if len(ops) != 2 {
			return nil, fmt.Errorf("%s wants 2 operands", mnem)
		}
		rd, fp, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		if fp {
			return nil, fmt.Errorf("%s destination must be an integer register", mnem)
		}
		var u uint32
		if mnem == "la" {
			// A label's value: a data byte address or a code
			// instruction index.
			target, ok := labels[ops[1]]
			if !ok {
				return nil, fmt.Errorf("unknown label %q", ops[1])
			}
			u = uint32(target)
		} else {
			c, err := parseConst(ops[1])
			if err != nil {
				return nil, err
			}
			if liWidth(c) == 1 {
				return []Inst{New(ADDI, rd, 0, 0, c)}, nil
			}
			u = uint32(c)
		}
		return []Inst{
			New(LUI, rd, 0, 0, int32(u>>LUIShift)),
			New(ORI, rd, rd, 0, int32(u&(1<<LUIShift-1))),
		}, nil
	case "mv":
		if len(ops) != 2 {
			return nil, fmt.Errorf("mv wants 2 operands")
		}
		rd, fpd, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		rs, fps, err := parseReg(ops[1])
		if err != nil {
			return nil, err
		}
		if fpd || fps {
			return nil, fmt.Errorf("mv works on integer registers")
		}
		return []Inst{New(ADDI, rd, rs, 0, 0)}, nil
	case "j":
		if len(ops) != 1 {
			return nil, fmt.Errorf("j wants 1 operand")
		}
		off, err := parseTarget(ops[0], pc, labels)
		if err != nil {
			return nil, err
		}
		return []Inst{New(JAL, 0, 0, 0, off)}, nil
	case "ret":
		if len(ops) != 0 {
			return nil, fmt.Errorf("ret wants no operands")
		}
		return []Inst{New(JALR, 0, 31, 0, 0)}, nil
	}

	op, ok := mnemonics[mnem]
	if !ok {
		return nil, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	info := opTable[op]

	need := map[Format]int{
		FmtNone: 0, FmtR: 3, FmtR2: 2, FmtI: 3, FmtU: 2, FmtMem: 2, FmtStore: 2, FmtB: 3,
	}[info.format]
	if len(ops) != need {
		return nil, fmt.Errorf("%s wants %d operands, got %d", op, need, len(ops))
	}

	switch info.format {
	case FmtNone:
		return []Inst{New(op, 0, 0, 0, 0)}, nil

	case FmtR:
		rd, fpd, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		rs1, fp1, err := parseReg(ops[1])
		if err != nil {
			return nil, err
		}
		rs2, fp2, err := parseReg(ops[2])
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[0], fpd, info.rdFP); err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[1], fp1, info.rs1FP); err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[2], fp2, info.rs2FP); err != nil {
			return nil, err
		}
		return []Inst{New(op, rd, rs1, rs2, 0)}, nil

	case FmtR2:
		rd, fpd, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		rs1, fp1, err := parseReg(ops[1])
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[0], fpd, info.rdFP); err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[1], fp1, info.rs1FP); err != nil {
			return nil, err
		}
		return []Inst{New(op, rd, rs1, 0, 0)}, nil

	case FmtI:
		rd, fpd, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		rs1, fp1, err := parseReg(ops[1])
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[0], fpd, info.rdFP); err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[1], fp1, info.rs1FP); err != nil {
			return nil, err
		}
		imm, err := parseConst(ops[2])
		if err != nil {
			return nil, err
		}
		return []Inst{New(op, rd, rs1, 0, imm)}, nil

	case FmtU:
		rd, fpd, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[0], fpd, info.rdFP); err != nil {
			return nil, err
		}
		var imm int32
		if op == JAL {
			imm, err = parseTarget(ops[1], pc, labels)
		} else {
			imm, err = parseConst(ops[1])
		}
		if err != nil {
			return nil, err
		}
		return []Inst{New(op, rd, 0, 0, imm)}, nil

	case FmtMem:
		rd, fpd, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[0], fpd, info.rdFP); err != nil {
			return nil, err
		}
		imm, base, err := parseMemOperand(ops[1])
		if err != nil {
			return nil, err
		}
		rs1, fp1, err := parseReg(base)
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, base, fp1, false); err != nil {
			return nil, err
		}
		return []Inst{New(op, rd, rs1, 0, imm)}, nil

	case FmtStore:
		rs2, fp2, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, ops[0], fp2, info.rs2FP); err != nil {
			return nil, err
		}
		imm, base, err := parseMemOperand(ops[1])
		if err != nil {
			return nil, err
		}
		rs1, fp1, err := parseReg(base)
		if err != nil {
			return nil, err
		}
		if err := checkClass(op, base, fp1, false); err != nil {
			return nil, err
		}
		return []Inst{New(op, 0, rs1, rs2, imm)}, nil

	case FmtB:
		rs1, fp1, err := parseReg(ops[0])
		if err != nil {
			return nil, err
		}
		rs2, fp2, err := parseReg(ops[1])
		if err != nil {
			return nil, err
		}
		if fp1 || fp2 {
			return nil, fmt.Errorf("%s compares integer registers", op)
		}
		off, err := parseTarget(ops[2], pc, labels)
		if err != nil {
			return nil, err
		}
		return []Inst{New(op, 0, rs1, rs2, off)}, nil
	}
	return nil, fmt.Errorf("%s: unknown format", op)
}
