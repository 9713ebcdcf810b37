package repro_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro"
)

// runCycleLoop is the no-skip reference for Machine.RunContext: it
// clocks the machine with Cycle alone to HALT or maxCycles, then
// flushes it as RunContext does.
func runCycleLoop(m *repro.Machine, maxCycles int) error {
	for !m.Halted() && m.Processor().Cycles() < maxCycles {
		m.Cycle()
	}
	if err := m.Flush(); err != nil {
		return err
	}
	if !m.Halted() {
		return repro.ErrCycleLimit
	}
	return nil
}

// skipCase runs prog under opt twice, through RunContext (which jumps
// the clock over quiet cycles) and through the reference loop, each to
// maxCycles, and requires the same outcome and ReportJSON bytes.
func skipCase(t *testing.T, label string, prog repro.Program, opt repro.Options, maxCycles int) {
	t.Helper()
	m := repro.NewMachine(prog, opt)
	_, err := m.RunContext(context.Background(), maxCycles)
	ref := repro.NewMachine(prog, opt)
	refErr := runCycleLoop(ref, maxCycles)
	if errors.Is(err, repro.ErrCycleLimit) != errors.Is(refErr, repro.ErrCycleLimit) || (err == nil) != (refErr == nil) {
		t.Fatalf("%s: err %v, reference loop %v", label, err, refErr)
	}
	if err != nil && m.Stats().Cycles != maxCycles {
		t.Fatalf("%s: stopped at cycle %d, budget %d", label, m.Stats().Cycles, maxCycles)
	}
	got, err := m.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: report differs from the reference loop's:\n got: %s\nwant: %s", label, got, want)
	}
}

// TestSkipMatchesCycleLoop holds the run loop's clock jump to the
// Cycle-only reference on programs shaped like the sim-steady
// benchmark's (integer and floating-point phases alternating every 500
// instructions), under every policy — steering (also with the
// residency timer), oracle, ffu-only, static-integer, demand, seeded
// random, full-reconfig and prefetch (whose manager asks for every
// cycle) — at reconfiguration latencies 4, 8 and 16: the run reports,
// manager counters included, must match byte for byte. A run cut by
// its budget must stop at exactly the budget, wherever the budget
// falls; the budgets sweep a range of consecutive cycles, so some end
// inside quiet stretches.
func TestSkipMatchesCycleLoop(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	specs := []repro.Options{
		{Policy: repro.PolicySteering},
		{Policy: repro.PolicySteering, MinResidency: 16},
		{Policy: repro.PolicyOracle},
		{Policy: repro.PolicyNone},
		{Policy: repro.PolicyStaticInteger},
		{Policy: repro.PolicyDemand},
		{Policy: repro.PolicyRandom, Seed: 3},
		{Policy: repro.PolicyFullReconfig},
		{Policy: repro.PolicyPrefetch},
	}
	for i := 0; i < 8; i++ {
		prog := repro.Synthesize(repro.AlternatingPhases(n, 500), 7_000+int64(i))
		for _, opt := range specs {
			for _, lat := range []int{4, 8, 16} {
				opt.Params.ReconfigLatency = lat
				label := fmt.Sprintf("program %d, %v, residency %d, latency %d", i, opt.Policy, opt.MinResidency, lat)
				skipCase(t, label, prog, opt, repro.DefaultMaxCycles)
			}
		}
	}
	prog := repro.Synthesize(repro.AlternatingPhases(n, 500), 7_000)
	for _, opt := range specs {
		for budget := 1500; budget < 1540; budget++ {
			label := fmt.Sprintf("%v, residency %d, budget %d", opt.Policy, opt.MinResidency, budget)
			skipCase(t, label, prog, opt, budget)
		}
	}
}
