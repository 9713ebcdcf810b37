package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestDecodeHexRoundTrip(t *testing.T) {
	prog := isa.MustAssemble(`
		add r1, r2, r3
		lw r4, 8(r5)
		halt
	`)
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	src := "# comment line\n"
	for _, w := range words {
		src += fmt.Sprintf("%08x\n", w)
	}
	src += "\n" // blank lines tolerated
	back, err := decodeHex(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(prog) {
		t.Fatalf("length %d, want %d", len(back), len(prog))
	}
	for i := range prog {
		if back[i] != prog[i] {
			t.Errorf("inst %d: %v, want %v", i, back[i], prog[i])
		}
	}
}

func TestDecodeHexErrors(t *testing.T) {
	if _, err := decodeHex("nothex\n"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := decodeHex("ff000000\n"); err == nil {
		t.Error("invalid opcode byte accepted")
	}
}

// TestRunExamples assembles every example program through the command,
// checks the words against AssembleUnit's encoding, and reads them back
// with -hex to the same disassembly -d prints.
func TestRunExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/programs/*.s")
	if err != nil || len(paths) < 2 {
		t.Fatalf("example programs: %v, %v", paths, err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run([]string{path}, &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			u, err := isa.AssembleUnit(string(src))
			if err != nil {
				t.Fatal(err)
			}
			words, err := isa.EncodeProgram(u.Program)
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			for _, w := range words {
				fmt.Fprintf(&want, "%08x\n", w)
			}
			if out.String() != want.String() {
				t.Fatalf("words:\n%s\nwant:\n%s", out.String(), want.String())
			}

			hexPath := filepath.Join(t.TempDir(), "prog.hex")
			if err := os.WriteFile(hexPath, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			var fromHex, fromSrc bytes.Buffer
			if code := run([]string{"-hex", hexPath}, &fromHex, &errOut); code != 0 {
				t.Fatalf("-hex exit %d: %s", code, errOut.String())
			}
			if code := run([]string{"-d", path}, &fromSrc, &errOut); code != 0 {
				t.Fatalf("-d exit %d: %s", code, errOut.String())
			}
			if fromHex.String() != fromSrc.String() || fromSrc.String() != isa.Disassemble(u.Program) {
				t.Errorf("-hex disassembly:\n%s\n-d disassembly:\n%s", fromHex.String(), fromSrc.String())
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.s")
	if err := os.WriteFile(bad, []byte("halt\nfrobnicate r1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{bad}, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "line 2") {
		t.Errorf("bad source: exit %d, stderr %q", code, errOut.String())
	}
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no file: exit %d, want 2", code)
	}
}
