package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "regenerate testdata/digests.json")

// computeDigests runs every distinct case of every workload at the
// default seed and full scale directly through the facade, as the
// pinned digests' reference.
func computeDigests(t *testing.T) map[string]counts {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: defaultSeed, scale: 1, root: root}
	out := map[string]counts{}
	for _, def := range workloads {
		w, err := def.build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		for _, c := range w.cases() {
			if _, ok := out[c.key]; ok {
				continue
			}
			opt := repro.Options{Params: c.spec.Params, Policy: c.spec.Policy, Seed: c.spec.Seed}
			if c.estimate {
				est, err := repro.EstimateIPC(c.prog.prog, opt)
				if err != nil {
					t.Fatalf("%s: %v", c.key, err)
				}
				out[c.key] = counts{IPC: est.PredictedIPC}
				continue
			}
			m := repro.NewMachine(c.prog.prog, opt)
			if c.prog.unit != nil {
				m = repro.NewMachineFromUnit(c.prog.unit, opt)
			}
			st, err := m.RunContext(context.Background(), maxCycles)
			if err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			if st.Retired != c.prog.retired {
				t.Errorf("%s: retired %d, functional reference %d", c.key, st.Retired, c.prog.retired)
			}
			out[c.key] = counts{Cycles: st.Cycles, Retired: st.Retired, IPC: st.IPC()}
		}
	}
	return out
}

// TestDigests pins the simulated results of the default seed: cycles,
// retired instructions and IPC of every distinct (program, spec) case,
// and the predicted IPC of every estimate. The benchmark checks every
// default-seed run against this file. Regenerate it after a deliberate
// change to simulated behaviour with
//
//	go test -run TestDigests -update
func TestDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every case of every workload")
	}
	got := computeDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for k, g := range got {
			if w, ok := want[k]; !ok || w != g {
				t.Errorf("%s: computed %+v, pinned %+v", k, g, w)
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: pinned but no longer a case", k)
			}
		}
	}
}
