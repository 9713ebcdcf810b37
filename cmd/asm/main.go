// Command asm assembles and disassembles programs for the simulator's
// RISC ISA. Sources may carry .data sections (see isa.AssembleUnit);
// the output is the code alone, the same words POST /v1/assemble
// returns. The data image is not part of the output.
//
// Usage:
//
//	asm prog.s                # assemble, print the code words as hex
//	asm -d prog.s             # assemble then disassemble (round trip)
//	asm -hex prog.hex         # disassemble a hex word listing
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/isa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disasm := fs.Bool("d", false, "print disassembly instead of hex words")
	hexIn := fs.Bool("hex", false, "input is a hex word listing, not assembly")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: asm [-d] [-hex] <file>")
		return 2
	}
	if err := asm(fs.Arg(0), *disasm, *hexIn, stdout); err != nil {
		fmt.Fprintln(stderr, "asm:", err)
		return 1
	}
	return 0
}

func asm(path string, disasm, hexIn bool, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prog isa.Program
	if hexIn {
		prog, err = decodeHex(string(data))
	} else {
		var u *isa.Unit
		if u, err = isa.AssembleUnit(string(data)); err == nil {
			prog = u.Program
		}
	}
	if err != nil {
		return err
	}

	if disasm || hexIn {
		_, err = io.WriteString(stdout, isa.Disassemble(prog))
		return err
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	for _, word := range words {
		fmt.Fprintf(w, "%08x\n", word)
	}
	return w.Flush()
}

func decodeHex(src string) (isa.Program, error) {
	var words []uint32
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(line, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
		}
		words = append(words, uint32(v))
	}
	return isa.DecodeProgram(words)
}
