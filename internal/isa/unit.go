package isa

import (
	"fmt"
	"math"
	"strconv"
)

// Unit is a fully assembled translation unit: the instruction stream plus
// the initial data-memory image the source's .data sections declared.
type Unit struct {
	Program Program
	Data    []DataSegment
}

// DataSegment is one initialised span of data memory.
type DataSegment struct {
	Addr  uint32
	Bytes []byte
}

// DataWriter is the subset of the memory interface needed to apply data
// segments (satisfied by mem.Memory).
type DataWriter interface {
	StoreByte(addr uint32, v uint8)
}

// Apply writes every data segment into memory.
func (u *Unit) Apply(m DataWriter) {
	for _, seg := range u.Data {
		for i, b := range seg.Bytes {
			m.StoreByte(seg.Addr+uint32(i), b)
		}
	}
}

// AssembleUnit assembles a source file that may contain data directives
// alongside code. Directives:
//
//	.data 0x1000      switch to data mode at the given byte address
//	.text             switch back to code mode
//	.word 1, -2, 0x3  emit 32-bit little-endian words
//	.half 7, 8        emit 16-bit values
//	.byte 1, 2, 3     emit bytes
//	.float 1.5, -2.0  emit float32 bit patterns
//	.space 64         reserve (zero) bytes
//
// Labels defined in data mode name byte addresses, which the la pseudo
// loads like a code label's instruction index. Data may not reach past
// MaxDataBytes. Plain Assemble is the same assembler with directives
// turned off; use it for code-only sources.
func AssembleUnit(src string) (*Unit, error) { return assemble(src, true) }

// MaxDataBytes bounds the data image: every data directive must end at
// or below this byte address, and the directives may emit at most this
// many bytes in all. It is the simulated machine's memory size
// (mem.DefaultSize, cpu.MaxMemBytes); Apply masks addresses, so bytes
// past it would only wrap around memory.
const MaxDataBytes = 1 << 20

// directiveSize returns the byte size a directive contributes (pass 1),
// or signals the data/text mode switches.
func directiveSize(text string) (size int, mode string, addr int, err error) {
	mnem, rest := splitMnemonic(text)
	ops := splitOperands(rest)
	switch mnem {
	case ".data":
		if len(ops) != 1 {
			return 0, "", 0, fmt.Errorf(".data wants an address")
		}
		v, err := strconv.ParseUint(ops[0], 0, 32)
		if err != nil {
			return 0, "", 0, fmt.Errorf("bad .data address %q", ops[0])
		}
		return 0, "data", int(v), nil
	case ".text":
		return 0, "text", 0, nil
	case ".word", ".float":
		return 4 * len(ops), "", 0, nil
	case ".half":
		return 2 * len(ops), "", 0, nil
	case ".byte":
		return len(ops), "", 0, nil
	case ".space":
		if len(ops) != 1 {
			return 0, "", 0, fmt.Errorf(".space wants a byte count")
		}
		v, err := strconv.ParseUint(ops[0], 0, 24)
		if err != nil {
			return 0, "", 0, fmt.Errorf("bad .space count %q", ops[0])
		}
		return int(v), "", 0, nil
	}
	return 0, "", 0, fmt.Errorf("unknown directive %q", mnem)
}

// directiveBytes renders a data directive's bytes (pass 2).
func directiveBytes(text string) ([]byte, error) {
	mnem, rest := splitMnemonic(text)
	ops := splitOperands(rest)
	var out []byte
	switch mnem {
	case ".word":
		for _, op := range ops {
			v, err := parseConst(op)
			if err != nil {
				return nil, err
			}
			u := uint32(v)
			out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
	case ".half":
		for _, op := range ops {
			v, err := parseConst(op)
			if err != nil {
				return nil, err
			}
			out = append(out, byte(v), byte(v>>8))
		}
	case ".byte":
		for _, op := range ops {
			v, err := parseConst(op)
			if err != nil {
				return nil, err
			}
			out = append(out, byte(v))
		}
	case ".float":
		for _, op := range ops {
			f, err := strconv.ParseFloat(op, 32)
			if err != nil {
				return nil, fmt.Errorf("bad float %q", op)
			}
			u := math.Float32bits(float32(f))
			out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
	case ".space":
		v, _ := strconv.ParseUint(ops[0], 0, 24)
		out = make([]byte, v)
	default:
		return nil, fmt.Errorf("unknown directive %q", mnem)
	}
	return out, nil
}
