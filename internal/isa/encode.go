package isa

import "fmt"

// Binary encoding. Instructions are 32-bit words with the opcode in the
// top byte; each format's shape (shapes, in isa.go) lays out the other
// 24 bits: its registers as raw 5-bit fields, then its immediate in the
// low bits. Whether a field addresses the integer or FP register file is
// a static property of the opcode.
const (
	// ImmBits14 is the width of the I/Mem/Store/B immediate field.
	ImmBits14 = 14
	// ImmBits19 is the width of the U-format immediate field.
	ImmBits19 = 19
	// LUIShift is the left shift LUI applies to its immediate.
	LUIShift = 13
)

// Immediate ranges.
const (
	MaxImm14 = 1<<(ImmBits14-1) - 1
	MinImm14 = -(1 << (ImmBits14 - 1))
	MaxImm19 = 1<<(ImmBits19-1) - 1
	MinImm19 = -(1 << (ImmBits19 - 1))
	// MaxLUI is the largest LUI immediate (unsigned 19-bit field).
	MaxLUI = 1<<ImmBits19 - 1
)

// raw5 strips the FP base from a unified register index, returning the
// 5-bit field value.
func raw5(r uint8) uint32 { return uint32(r) & 0x1f }

// immOf reads the low bits of an immediate field of op: sign-extended,
// except LUI's, an unsigned upper-bits constant. An immediate fits its
// field when reading back its low bits gives it unchanged.
func immOf(op Opcode, field uint32, bits uint) int32 {
	if op == LUI {
		return int32(field)
	}
	return signExtend(field, bits)
}

// Encode serialises the instruction to its 32-bit binary form. It returns
// an error when an immediate does not fit its field or the opcode is
// undefined.
func Encode(in Inst) (uint32, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: encode: invalid opcode %d", uint8(in.Op))
	}
	sh := &shapes[in.Op.Format()]
	w := uint32(in.Op) << 24
	at := &sh.fieldAt
	w |= raw5(in.Rd)<<at[fieldRd] | raw5(in.Rs1)<<at[fieldRs1] | raw5(in.Rs2)<<at[fieldRs2]
	if sh.immBits > 0 {
		field := uint32(in.Imm) & (1<<sh.immBits - 1)
		if immOf(in.Op, field, sh.immBits) != in.Imm {
			unsigned := ""
			if in.Op == LUI {
				unsigned = "unsigned "
			}
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of %s%d-bit range", in.Op, in.Imm, unsigned, sh.immBits)
		}
		w |= field
	}
	return w, nil
}

// signExtend interprets the low bits of v as a signed bits-wide integer.
func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode parses a 32-bit binary instruction word. It is the inverse of
// Encode for every encodable instruction; bits outside the format's
// fields are ignored.
func Decode(w uint32) (Inst, error) {
	op := Opcode(w >> 24)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: decode: invalid opcode byte %#x", w>>24)
	}
	sh := &shapes[op.Format()]
	field := func(f regField) uint8 { return uint8(w >> sh.fieldAt[f] & 0x1f) }
	var imm int32
	if sh.immBits > 0 {
		imm = immOf(op, w&(1<<sh.immBits-1), sh.immBits)
	}
	return New(op, field(fieldRd), field(fieldRs1), field(fieldRs2), imm), nil
}

// EncodeProgram serialises a whole program.
func EncodeProgram(p Program) ([]uint32, error) {
	words := make([]uint32, len(p))
	for i, in := range p {
		w, err := Encode(in)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		words[i] = w
	}
	return words, nil
}

// DecodeProgram parses a sequence of binary instruction words.
func DecodeProgram(words []uint32) (Program, error) {
	p := make(Program, len(words))
	for i, w := range words {
		in, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("word %d: %w", i, err)
		}
		p[i] = in
	}
	return p, nil
}
