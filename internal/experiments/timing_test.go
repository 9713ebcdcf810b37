package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the golden files under testdata that -run selects")

// timingResult is one pinned run: the processor's and the configuration
// manager's full statistics.
type timingResult struct {
	CPU  cpu.Stats
	Core core.Stats
}

// TestSchedulerTimingGolden pins the cycle-exact timing of the scheduler
// corners the default-machine digests do not reach: every issue order,
// select-free replay on and off, and windows wider than the paper's
// seven rows, on X15's two workloads and a branchy one, under steering
// and prefetch. Window 7 keeps the reference machine's widths; windows
// 16 and 64 run an 8-wide machine so the wider window can fill. A scheduler refactor must
// leave every entry bit-identical; regenerate the file (-update) only
// for a deliberate timing change.
func TestSchedulerTimingGolden(t *testing.T) {
	workloads := []struct {
		name string
		prog isa.Program
	}{
		{"phased", PhasedWorkload(7)},
		{"mem-heavy", workload.Synthesize([]workload.Phase{{Mix: workload.MixMemHeavy, Instructions: 2500}}, workload.SynthParams{Seed: 10})},
		// X15's workloads are straight-line; X16's branchy program adds
		// mispredict flushes in the middle of an issue pass.
		{"branchy", workload.SynthesizeBranchy(200, workload.SynthParams{Seed: 5})},
	}
	orders := []cpu.IssueOrder{cpu.OrderOldest, cpu.OrderYoungest, cpu.OrderRotate}
	got := map[string]timingResult{}
	for _, w := range workloads {
		for _, policy := range []cpu.Policy{cpu.PolicySteering, cpu.PolicyPrefetch} {
			for _, window := range []int{7, 16, 64} {
				for _, order := range orders {
					for _, selectFree := range []bool{false, true} {
						params := cpu.DefaultParams()
						params.WindowSize = window
						if window > 7 {
							params.DispatchWidth, params.IssueWidth, params.RetireWidth = 8, 8, 8
						}
						params.IssueOrder = order
						params.SelectFree = selectFree
						m := buildMachine(w.prog, params, policy)
						st, err := m.Run(MaxCycles)
						if err != nil {
							t.Fatalf("%s/%v/w%d/order%d/sf=%v: %v", w.name, policy, window, order, selectFree, err)
						}
						cs, _ := m.ManagerStats()
						key := fmt.Sprintf("%s/%v/window=%d/order=%d/selectfree=%v", w.name, policy, window, order, selectFree)
						got[key] = timingResult{CPU: st, Core: cs}
					}
				}
			}
		}
	}
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "scheduler_timing.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(want, data) {
		return
	}
	var pinned map[string]timingResult
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatal(err)
	}
	for key, g := range got {
		if w, ok := pinned[key]; !ok {
			t.Errorf("%s: not pinned", key)
		} else if w != g {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
	for key := range pinned {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but not run", key)
		}
	}
}
