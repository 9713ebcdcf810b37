package main

import (
	"math"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestAttributeFixture folds a hand-written `pprof -traces` text and
// checks where every stack is charged: past the runtime and helper
// packages to the innermost layer, GC work to runtime.gc, runtime-only
// stacks to runtime.sched, and repro/internal/cpu by pipeline stage.
func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 12 {
		t.Fatalf("parsed %d stacks, want 12", len(stacks))
	}
	if got := stacks[3].frames[0]; got != "repro/internal/config.AllocationVector.Distance" {
		t.Errorf("inline marker kept: %q", got)
	}
	layers, total := attribute(stacks)
	if total != 250*time.Millisecond {
		t.Errorf("total %v, want 250ms", total)
	}
	want := map[string]float64{
		"mem": 40, "wakeup": 30, "json": 30, "runtime.sched": 30, "runtime.gc": 30,
		"cpu.execute": 20, "core": 20, "net": 20, "other:crypto/sha256": 20, "cpu.cycle": 10,
	}
	got := map[string]float64{}
	for _, l := range layers {
		got[l.Layer] = l.CPUms
	}
	for layer, ms := range want {
		if got[layer] != ms {
			t.Errorf("%s: %v ms, want %v", layer, got[layer], ms)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
	if layers[0].Layer != "mem" {
		t.Errorf("layers not sorted by CPU time: first %q", layers[0].Layer)
	}
	if s := namedShare(layers); math.Abs(s-0.92) > 1e-9 {
		t.Errorf("named share %v, want 0.92", s)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cpu.(*Processor).Cycle":  "repro/internal/cpu",
		"repro.(*Machine).RunContext":            "repro",
		"encoding/json.(*decodeState).object":    "encoding/json",
		"main.main":                              "main",
		"repro/internal/server.New.func1":        "repro/internal/server",
		"runtime.gcBgMarkWorker":                 "runtime",
		"internal/runtime/syscall.Syscall6":      "internal/runtime/syscall",
		"repro/internal/cpu.appendDep[...]":      "repro/internal/cpu",
		"net/http.(*persistConn).readLoop.func1": "net/http",
		"gcWriteBarrier":                         "runtime",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldCommittedProfile runs `go tool pprof -traces` over a small
// CPU profile of a traced serve-short run and checks that the layers
// named here account for at least 90% of it.
func TestFoldCommittedProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	stacks, err := foldProfile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	layers, total := attribute(stacks)
	if total <= 0 || len(layers) < 5 {
		t.Fatalf("folded %d stacks into %d layers, %v in total", len(stacks), len(layers), total)
	}
	if s := namedShare(layers); s < 0.9 {
		t.Errorf("named layers hold %.1f%% of the profile, want at least 90%%: %+v", 100*s, layers)
	}
	seen := map[string]bool{}
	for _, l := range layers {
		seen[l.Layer] = true
	}
	for _, layer := range []string{"cpu.issue", "wakeup", "server", "json"} {
		if !seen[layer] {
			t.Errorf("layer %s missing from %+v", layer, layers)
		}
	}
}
