package isa

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/mem"
)

// FuzzAssemble drives arbitrary source text through AssembleUnit, the
// assembler behind rssd's "source" requests. Every input must end in an
// error or a unit whose instructions have valid opcodes, disassemble and
// either encode or fail to encode with an error, and whose data segments
// apply to a default-size memory — never a panic. A source Assemble
// accepts must give AssembleUnit the same program and no data. The seed
// corpus lives in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		u, err := AssembleUnit(src)
		if prog, perr := Assemble(src); perr == nil {
			if err != nil || len(u.Data) != 0 || !slices.Equal(u.Program, prog) {
				t.Fatalf("Assemble and AssembleUnit disagree on %q: %v", src, err)
			}
		}
		if err != nil {
			return
		}
		for i, in := range u.Program {
			if !in.Op.Valid() {
				t.Fatalf("instruction %d has invalid opcode %d for %q", i, in.Op, src)
			}
		}
		_ = Disassemble(u.Program)
		_, _ = EncodeProgram(u.Program)
		u.Apply(mem.NewMemory(mem.DefaultSize))
	})
}

// FuzzDecodeProgram drives arbitrary bytes, read as little-endian
// instruction words, through DecodeProgram, the boundary rssd's "words"
// requests cross. Every input must end in an error or a program — never
// a panic — and a decoded program must survive an encode/decode round
// trip unchanged. The seed corpus lives in
// testdata/fuzz/FuzzDecodeProgram.
func FuzzDecodeProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		prog, err := DecodeProgram(words)
		if err != nil {
			return
		}
		_ = Disassemble(prog)
		again, err := EncodeProgram(prog)
		if err != nil {
			t.Fatalf("decoded program does not encode: %v", err)
		}
		back, err := DecodeProgram(again)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		for i := range prog {
			if back[i] != prog[i] {
				t.Fatalf("word %d: %v round-trips to %v", i, prog[i], back[i])
			}
		}
	})
}
