package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates assembly source into a Program. The syntax is one
// instruction or label per line; ';' and '#' start comments. Operands
// follow the disassembly forms produced by Inst.String:
//
//	add r1, r2, r3        fadd f1, f2, f3       fabs f1, f2
//	addi r1, r2, -5       lui r1, 100           jal r31, loop
//	lw r1, 8(r2)          sw r3, 4(r2)          flw f1, 0(r5)
//	beq r1, r2, done      nop                   halt
//
// Branch and jump targets may be labels or numeric word offsets. The
// pseudo-instructions are:
//
//	li rd, const   — addi (small constants) or lui+ori (large)
//	la rd, label   — lui+ori loading the label's instruction index
//	mv rd, rs      — addi rd, rs, 0
//	j label        — jal r0, label
//	ret            — jalr r0, r31, 0
//
// Assemble is AssembleUnit with directives turned off: a line starting
// with '.' is an *AsmError at that line.
func Assemble(src string) (Program, error) {
	u, err := assemble(src, false)
	if err != nil {
		return nil, err
	}
	return u.Program, nil
}

// assemble is the one two-pass assembler behind Assemble and AssembleUnit.
// Pass 1 gives every label its value — an instruction index, or a byte
// address inside a .data section — and sizes every line, since pseudo-ops
// and data directives may span more than one word; pass 2 emits code and
// data with every label known. With directives off, a '.' line reaches
// the instruction parser and fails as an unknown mnemonic.
func assemble(src string, directives bool) (*Unit, error) {
	labels := make(map[string]int)
	type pending struct {
		line int // 1-based source line, for errors
		text string
		addr int  // instruction index, or data byte address
		data bool // a data directive, emitted into Unit.Data
	}
	var items []pending
	pc, dataCursor, dataBytes := 0, 0, 0
	dataMode := false
	for lineNo, raw := range strings.Split(src, "\n") {
		line := lineNo + 1
		text := stripComment(raw)
		for {
			text = strings.TrimSpace(text)
			colon := strings.Index(text, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(text[:colon])
			if !isIdent(label) {
				return nil, asmErrf(line, "bad label %q", label)
			}
			if _, dup := labels[label]; dup {
				return nil, asmErrf(line, "duplicate label %q", label)
			}
			if dataMode {
				labels[label] = dataCursor
			} else {
				labels[label] = pc
			}
			text = text[colon+1:]
		}
		switch {
		case text == "":
		case directives && text[0] == '.':
			size, mode, addr, err := directiveSize(text)
			if err != nil {
				return nil, asmErr(line, err)
			}
			switch mode {
			case "data":
				dataMode = true
				dataCursor = addr
			case "text":
				dataMode = false
			default:
				if !dataMode {
					return nil, asmErrf(line, "%s outside a .data section", text)
				}
				if dataCursor+size > MaxDataBytes {
					return nil, asmErrf(line, "data ends at %#x, past the %#x-byte limit", dataCursor+size, MaxDataBytes)
				}
				if dataBytes += size; dataBytes > MaxDataBytes {
					return nil, asmErrf(line, "data image exceeds %#x bytes", MaxDataBytes)
				}
				items = append(items, pending{line, text, dataCursor, true})
				dataCursor += size
			}
		case dataMode:
			return nil, asmErrf(line, "instruction inside a .data section")
		default:
			width, err := instWidth(text)
			if err != nil {
				return nil, asmErr(line, err)
			}
			items = append(items, pending{line, text, pc, false})
			pc += width
		}
	}

	u := &Unit{Program: make(Program, 0, pc)}
	var seg *DataSegment
	for _, it := range items {
		if it.data {
			bytes, err := directiveBytes(it.text)
			if err != nil {
				return nil, asmErr(it.line, err)
			}
			if seg == nil || int(seg.Addr)+len(seg.Bytes) != it.addr {
				u.Data = append(u.Data, DataSegment{Addr: uint32(it.addr)})
				seg = &u.Data[len(u.Data)-1]
			}
			seg.Bytes = append(seg.Bytes, bytes...)
			continue
		}
		insts, err := parseInst(it.text, it.addr, labels)
		if err != nil {
			return nil, asmErr(it.line, err)
		}
		u.Program = append(u.Program, insts...)
	}
	return u, nil
}

// MustAssemble is Assemble for known-good sources (tests, examples,
// built-in kernels); it panics on error.
func MustAssemble(src string) Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Disassemble renders a program one instruction per line with indices.
func Disassemble(p Program) string {
	var b strings.Builder
	for i, in := range p {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		return s[:i]
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// mnemonics maps assembler names to opcodes.
var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := Opcode(0); op < NumOpcodes; op++ {
		m[op.String()] = op
	}
	return m
}()

// liWidth reports how many instructions "li rd, const" expands to.
func liWidth(c int32) int {
	if c >= MinImm14 && c <= MaxImm14 {
		return 1
	}
	return 2
}

// instWidth returns the number of instructions a source line expands to.
func instWidth(text string) (int, error) {
	mnem, rest := splitMnemonic(text)
	switch mnem {
	case "li":
		ops := splitOperands(rest)
		if len(ops) != 2 {
			return 0, fmt.Errorf("li wants 2 operands, got %d", len(ops))
		}
		c, err := parseConst(ops[1])
		if err != nil {
			return 0, err
		}
		return liWidth(c), nil
	case "la":
		return 2, nil
	case "mv", "j", "ret":
		return 1, nil
	}
	if _, ok := mnemonics[mnem]; !ok {
		return 0, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	return 1, nil
}

func splitMnemonic(text string) (mnem, rest string) {
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		return strings.ToLower(text[:i]), strings.TrimSpace(text[i+1:])
	}
	return strings.ToLower(text), ""
}

func splitOperands(rest string) []string {
	if strings.TrimSpace(rest) == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseReg parses "rN"/"xN" or "fN" into a raw 5-bit index plus an FP
// flag.
func parseReg(s string) (idx uint8, fp bool, err error) {
	if len(s) < 2 {
		return 0, false, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r', 'x', 'R', 'X':
	case 'f', 'F':
		fp = true
	default:
		return 0, false, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumIntRegs {
		return 0, false, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), fp, nil
}

func parseConst(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad constant %q", s)
	}
	if v < -(1<<31) || v > 1<<32-1 {
		return 0, fmt.Errorf("constant %q out of 32-bit range", s)
	}
	return int32(uint32(v)), nil
}

// parseTarget resolves a branch/jump target: a label (PC-relative word
// offset is computed) or a numeric offset used as-is.
func parseTarget(s string, pc int, labels map[string]int) (int32, error) {
	if target, ok := labels[s]; ok {
		return int32(target - pc), nil
	}
	v, err := strconv.ParseInt(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("unknown label or bad offset %q", s)
	}
	return int32(v), nil
}

// parseMemOperand parses "imm(rN)".
func parseMemOperand(s string) (imm int32, base string, err error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, "", fmt.Errorf("bad memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	if immStr == "" {
		immStr = "0"
	}
	imm, err = parseConst(immStr)
	if err != nil {
		return 0, "", err
	}
	return imm, strings.TrimSpace(s[open+1 : len(s)-1]), nil
}

// parseRegFor parses a register operand for field f of op and checks
// that it is from the file the opcode expects there.
func parseRegFor(op Opcode, f regField, s string) (uint8, error) {
	idx, fp, err := parseReg(s)
	if err != nil {
		return 0, err
	}
	if wantFP := opTable[op].fp(f); fp != wantFP {
		if op.Format() == FmtB {
			return 0, fmt.Errorf("%s compares integer registers", op)
		}
		want := "an integer"
		if wantFP {
			want = "a floating-point"
		}
		return 0, fmt.Errorf("%s: operand %q must be %s register", op, s, want)
	}
	return idx, nil
}

// parseInst parses a single source line (already label-free) into one or
// more instructions.
func parseInst(text string, pc int, labels map[string]int) ([]Inst, error) {
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
	operands := shapes[op.Format()].operands
	if len(ops) != len(operands) {
		return nil, fmt.Errorf("%s wants %d operands, got %d", op, len(operands), len(ops))
	}
	var regs [3]uint8
	var imm int32
	for i, o := range operands {
		var err error
		switch {
		case o.kind == opReg:
			regs[o.reg], err = parseRegFor(op, o.reg, ops[i])
		case o.kind == opTarget, o.kind == opConst && op == JAL: // JAL jumps to a target
			imm, err = parseTarget(ops[i], pc, labels)
		case o.kind == opConst:
			imm, err = parseConst(ops[i])
		case o.kind == opMem:
			var base string
			if imm, base, err = parseMemOperand(ops[i]); err == nil {
				regs[o.reg], err = parseRegFor(op, o.reg, base)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return []Inst{New(op, regs[fieldRd], regs[fieldRs1], regs[fieldRs2], imm)}, nil
}
