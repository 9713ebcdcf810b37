package isa

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/mem"
)

func TestAssembleUnitDataSections(t *testing.T) {
	u, err := AssembleUnit(`
		.data 0x1000
	vec:
		.word 1, 2, 3, -4
	tag:
		.byte 0xaa, 0xbb
		.half 0x1234
		.float 1.5
	buf:
		.space 8
		.text
	start:
		la r1, vec
		lw r2, 0(r1)
		la r3, start
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	mem := testMem{}
	u.Apply(mem)

	if got := mem.LoadWord(0x1000); got != 1 {
		t.Errorf("vec[0] = %d", got)
	}
	if got := int32(mem.LoadWord(0x100c)); got != -4 {
		t.Errorf("vec[3] = %d", got)
	}
	if mem.LoadByte(0x1010) != 0xaa || mem.LoadByte(0x1011) != 0xbb {
		t.Error("bytes wrong")
	}
	if mem.LoadHalf(0x1012) != 0x1234 {
		t.Error("half wrong")
	}
	if f := math.Float32frombits(mem.LoadWord(0x1014)); f != 1.5 {
		t.Errorf("float = %v", f)
	}

	// Run it: r1 must hold the vec address, r2 the first word, r3 the
	// index of the first instruction.
	s := &State{Mem: mem}
	if _, err := Run(u.Program, s, 100); err != nil {
		t.Fatal(err)
	}
	if s.ReadReg(1) != 0x1000 {
		t.Errorf("la vec -> %#x", s.ReadReg(1))
	}
	if s.ReadReg(2) != 1 {
		t.Errorf("loaded %d, want 1", s.ReadReg(2))
	}
	if s.ReadReg(3) != 0 {
		t.Errorf("la start -> %d, want 0", s.ReadReg(3))
	}
}

func TestAssembleUnitContiguousSegmentsMerge(t *testing.T) {
	u, err := AssembleUnit(`
		.data 0x2000
		.word 1
		.word 2
		.data 0x3000
		.word 3
		.text
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Data) != 2 {
		t.Fatalf("segments = %d, want 2 (contiguous words merged)", len(u.Data))
	}
	if u.Data[0].Addr != 0x2000 || len(u.Data[0].Bytes) != 8 {
		t.Errorf("segment 0 = %+v", u.Data[0])
	}
	if u.Data[1].Addr != 0x3000 || len(u.Data[1].Bytes) != 4 {
		t.Errorf("segment 1 = %+v", u.Data[1])
	}
}

func TestAssembleUnitErrors(t *testing.T) {
	cases := []string{
		".bogus 1",
		".word 1",                     // data directive outside .data
		".data 0x100\nadd r1, r2, r3", // instruction inside .data
		".data notanaddr",
		".data 0x100\n.float nope",
		".data 0x100\n.space nope",
		"la r1, nowhere",
		"la f1, x\nx: halt",
	}
	for _, src := range cases {
		if _, err := AssembleUnit(src); err == nil {
			t.Errorf("AssembleUnit(%q) succeeded", src)
		}
	}
}

// TestAssembleRejectsDirectives: the plain code-only assembler refuses
// directive sources rather than mis-assembling them, with an *AsmError
// at the directive's line.
func TestAssembleRejectsDirectives(t *testing.T) {
	for src, line := range map[string]int{
		".data 0x1000\n.word 5\nhalt":         1,
		"start:\n  li r1, 1\n  .word 5\nhalt": 3,
	} {
		_, err := Assemble(src)
		var ae *AsmError
		if !errors.As(err, &ae) || ae.Line != line {
			t.Errorf("Assemble(%q) = %v, want an *AsmError at line %d", src, err, line)
		}
	}
}

// TestAssembleLoadAddress: la loads a code label's instruction index in
// plain Assemble too, as lui+ori.
func TestAssembleLoadAddress(t *testing.T) {
	prog, err := Assemble("la r4, end\nnop\nend: halt")
	if err != nil {
		t.Fatal(err)
	}
	want := Program{New(LUI, 4, 0, 0, 0), New(ORI, 4, 4, 0, 3), New(NOP, 0, 0, 0, 0), New(HALT, 0, 0, 0, 0)}
	if !slices.Equal(prog, want) {
		t.Errorf("got %v, want %v", prog, want)
	}
}

// TestAssembleUnitDataLimit: no directive may end past MaxDataBytes, and
// the directives may not emit more than MaxDataBytes in all; either is an
// *AsmError at the directive's line.
func TestAssembleUnitDataLimit(t *testing.T) {
	if MaxDataBytes != mem.DefaultSize {
		t.Fatalf("MaxDataBytes = %d, want the memory size %d", MaxDataBytes, mem.DefaultSize)
	}
	for _, tc := range []struct {
		src  string
		line int // 0: accepted
	}{
		{".data 0xffffc\n.word 1", 0},
		{".data 0\n.space 0x100000", 0},
		{".data 0xffffd\n.word 1", 2},
		{".data 0xfffff\n.byte 1, 2", 2},
		{".data 0\n.space 0x100001", 2},
		{".data 0\n.space 16777215\n.space 16777215", 2},
		{".data 0x1000\n.word 0\n.data 0xfffffff0\n.word 1", 4},
		{".data 0\n.space 0x80000\n.data 0\n.space 0x80000\n.data 0\n.byte 1", 6},
	} {
		_, err := AssembleUnit(tc.src)
		if tc.line == 0 {
			if err != nil {
				t.Errorf("%q: %v", tc.src, err)
			}
			continue
		}
		var ae *AsmError
		if !errors.As(err, &ae) || ae.Line != tc.line {
			t.Errorf("%q: err = %v, want an *AsmError at line %d", tc.src, err, tc.line)
		}
	}
}

// TestAssembleUnitEndToEnd: a self-contained dot product over .data
// arrays, functionally executed.
func TestAssembleUnitEndToEnd(t *testing.T) {
	u, err := AssembleUnit(`
		.data 0x1000
	a:	.word 1, 2, 3, 4
	b:	.word 10, 20, 30, 40
		.text
		la r10, a
		la r11, b
		li r12, 4
		li r1, 0
		li r2, 0
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
	`)
	if err != nil {
		t.Fatal(err)
	}
	mem := testMem{}
	u.Apply(mem)
	s := &State{Mem: mem}
	if _, err := Run(u.Program, s, 10000); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(2); got != 300 {
		t.Errorf("dot = %d, want 300", got)
	}
}
