package isa

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// FuzzAssemble drives arbitrary source text through AssembleUnit, the
// assembler behind rssd's "source" requests. Every input must end in an
// error or a unit whose instructions have valid opcodes, disassemble to
// a text that reassembles to the same program, and either encode or
// fail to encode with an error, and whose data segments apply to a
// default-size memory — never a panic. A source Assemble accepts must
// give AssembleUnit the same program and no data. Every line is also
// parsed by parseInst and by parseInstRef, the per-format parser the
// shape table replaced: both must accept it with the same instructions
// or both reject it, with the same error unless more than one operand is
// at fault. The seed corpus lives in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		checkLinesMatchReference(t, src)
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
		if again, err := Assemble(stripIndices(Disassemble(u.Program))); err != nil || !slices.Equal(again, u.Program) {
			t.Fatalf("disassembly of %q does not reassemble to the program: %v", src, err)
		}
		_, _ = EncodeProgram(u.Program)
		u.Apply(mem.NewMemory(mem.DefaultSize))
	})
}

// stripIndices drops the "   N:" prefix Disassemble puts on each line.
func stripIndices(dis string) string {
	lines := strings.Split(dis, "\n")
	for i, line := range lines {
		if _, text, ok := strings.Cut(line, ":"); ok {
			lines[i] = text
		}
	}
	return strings.Join(lines, "\n")
}

// checkLinesMatchReference parses every line of src with parseInst and
// parseInstRef. A line's labels are stripped and take its index, which
// is also the PC each line is parsed at.
func checkLinesMatchReference(t *testing.T, src string) {
	t.Helper()
	lines := strings.Split(src, "\n")
	labels := make(map[string]int)
	for i, raw := range lines {
		text := strings.TrimSpace(stripComment(raw))
		for {
			label, rest, ok := strings.Cut(text, ":")
			if !ok || !isIdent(strings.TrimSpace(label)) {
				break
			}
			labels[strings.TrimSpace(label)] = i
			text = strings.TrimSpace(rest)
		}
		lines[i] = text
	}
	for pc, text := range lines {
		if text == "" {
			continue
		}
		got, err := parseInst(text, pc, labels)
		want, werr := parseInstRef(text, pc, labels)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("%q: parseInst error %v, reference error %v", text, err, werr)
		case err == nil && !slices.Equal(got, want):
			t.Fatalf("%q: parseInst gives %v, reference %v", text, got, want)
		case err != nil && err.Error() != werr.Error() && faultyOperands(text, pc, labels) < 2:
			t.Fatalf("%q: parseInst error %q, reference %q", text, err, werr)
		}
	}
}

// TestLinesMatchReference runs checkLinesMatchReference over random
// lines: every mnemonic and pseudo-op, mostly with its own operand count
// and otherwise with zero to four operands, each drawn from well-formed
// and faulty registers, constants, labels and memory operands.
func TestLinesMatchReference(t *testing.T) {
	arity := map[string]int{"li": 2, "la": 2, "mv": 2, "j": 1, "ret": 0, "bogus": 2}
	mnems := []string{"li", "la", "mv", "j", "ret", "bogus"}
	for op := Opcode(0); op < NumOpcodes; op++ {
		mnems = append(mnems, op.String())
		arity[op.String()] = len(shapes[op.Format()].operands)
	}
	pool := []string{
		"r0", "r7", "x31", "R2", "f0", "f9", "F31", "r32", "f40", "q1", "r", "",
		"0", "-5", "0x1f", "8191", "-8192", "99999", "4294967295", "1e3", "notanum",
		"loop", "done", "nowhere", "12(r3)", "(r4)", "-8(f2)", "x(r1)", "4(r99)", "4(r1", "0(r0)",
	}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	b.WriteString("loop:\n")
	for i := 0; i < 20000; i++ {
		mnem := mnems[rng.Intn(len(mnems))]
		n := arity[mnem]
		if rng.Intn(8) == 0 {
			n = rng.Intn(5)
		}
		b.WriteString(mnem)
		for j := 0; j < n; j++ {
			if j == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteString(", ")
			}
			b.WriteString(pool[rng.Intn(len(pool))])
		}
		b.WriteByte('\n')
	}
	b.WriteString("done: halt\n")
	checkLinesMatchReference(t, b.String())
}

// faultyOperands counts the operands of a line that parseInstRef rejects
// on their own: each is put in turn into an operand list the reference
// accepts for the mnemonic. It is 0 when no such list exists, as for an
// unknown mnemonic or a wrong operand count.
func faultyOperands(text string, pc int, labels map[string]int) int {
	mnem, rest := splitMnemonic(text)
	ops := splitOperands(rest)
	parses := func(ops []string) bool {
		_, err := parseInstRef(mnem+" "+strings.Join(ops, ", "), pc, labels)
		return err == nil
	}
	// Search every list of operands that are each well-formed for some
	// operand kind and register file.
	good := make([]string, len(ops))
	var search func(i int) bool
	search = func(i int) bool {
		if i == len(good) {
			return parses(good)
		}
		for _, c := range []string{"r0", "f0", "0", "0(r0)"} {
			if good[i] = c; search(i + 1) {
				return true
			}
		}
		return false
	}
	if len(ops) > 3 || !search(0) {
		return 0
	}
	n := 0
	for i := range ops {
		trial := slices.Clone(good)
		trial[i] = ops[i]
		if !parses(trial) {
			n++
		}
	}
	return n
}

// FuzzDecodeProgram drives arbitrary bytes, read as little-endian
// instruction words, through DecodeProgram, the boundary rssd's "words"
// requests cross. Every input must end in an error or a program — never
// a panic — and a decoded program must survive an encode/decode round
// trip unchanged. Every word is also held to the per-format references
// the shape table replaced: Decode must give decodeRef's instruction or
// error, and Encode must give encodeRef's word or error, both for the
// decoded instruction and for one built from the word's raw bits with
// an immediate that may be out of range. A valid instruction's String,
// SourceRegs and Dest must match theirs too. The seed corpus lives in
// testdata/fuzz/FuzzDecodeProgram.
func FuzzDecodeProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
			checkWordMatchesReference(t, words[i])
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

// checkWordMatchesReference holds Decode, Encode, String, SourceRegs and
// Dest to the references for one word.
func checkWordMatchesReference(t *testing.T, w uint32) {
	t.Helper()
	in, err := Decode(w)
	want, werr := decodeRef(w)
	if in != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("Decode(%#08x) = %v, %v; reference %v, %v", w, in, err, want, werr)
	}
	raw := Inst{Op: Opcode(w >> 24), Rd: uint8(w), Rs1: uint8(w >> 6), Rs2: uint8(w >> 12), Imm: int32(w) >> (w >> 27)}
	for _, in := range []Inst{in, raw} {
		got, err := Encode(in)
		want, werr := encodeRef(in)
		if got != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("Encode(%+v) = %#08x, %v; reference %#08x, %v", in, got, err, want, werr)
		}
		if !in.Op.Valid() {
			continue
		}
		if s, want := in.String(), stringRef(in); s != want {
			t.Fatalf("String(%+v) = %q, reference %q", in, s, want)
		}
		regs, n := in.SourceRegs()
		wregs, wn := sourceRegsRef(in)
		if n != wn || !slices.Equal(regs[:n], wregs[:wn]) {
			t.Fatalf("SourceRegs(%+v) = %v, reference %v", in, regs[:n], wregs[:wn])
		}
		d, ok := in.Dest()
		wd, wok := destRef(in)
		if ok != wok || (ok && d != wd) {
			t.Fatalf("Dest(%+v) = %d, %v; reference %d, %v", in, d, ok, wd, wok)
		}
	}
}

// TestEncodeMatchesReferenceAtBounds holds Encode, and Decode of what it
// encodes, to the references for every opcode at each edge of every
// immediate range, where a random immediate rarely lands.
func TestEncodeMatchesReferenceAtBounds(t *testing.T) {
	var imms []int32
	for _, edge := range []int32{0, MinImm14, MaxImm14, MinImm19, MaxImm19, MaxLUI} {
		imms = append(imms, edge-1, edge, edge+1)
	}
	for op := Opcode(0); op < NumOpcodes; op++ {
		for _, imm := range imms {
			in := New(op, 1, 2, 3, imm)
			w, err := Encode(in)
			checkWordMatchesReference(t, w)
			want, werr := encodeRef(in)
			if w != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Errorf("Encode(%v) = %#08x, %v; reference %#08x, %v", in, w, err, want, werr)
			}
		}
	}
}
