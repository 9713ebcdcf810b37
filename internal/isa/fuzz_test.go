package isa

import (
	"encoding/binary"
	"testing"
)

// FuzzAssemble drives arbitrary source text through the assembler, the
// boundary rssd's "source" requests cross. Every input must end in an
// error or a program of valid instructions that disassemble and either
// encode or fail to encode with an error — never a panic. The seed
// corpus lives in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		for i, in := range prog {
			if !in.Op.Valid() {
				t.Fatalf("instruction %d has invalid opcode %d for %q", i, in.Op, src)
			}
		}
		_ = Disassemble(prog)
		_, _ = EncodeProgram(prog)
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
