package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro"
	"repro/internal/api"
	"repro/internal/isa"
	"repro/internal/mem"
)

// defaultSeed is the seed whose simulated results are pinned in
// testdata/digests.json.
const defaultSeed = 7

// maxCycles bounds every simulation the benchmark runs itself; the
// longest program needs about 0.15 M cycles.
const maxCycles = 50_000_000

// program is one input program plus its functional-reference result.
type program struct {
	name   string
	prog   repro.Program
	unit   *repro.Unit // set for assembly sources, whose .data is applied
	source string      // assembly text, for source requests
	words  []uint32    // binary form, for words requests
	// retired is the instruction count isa.Run executes up to and
	// including HALT: the count every simulated run must retire.
	retired int
}

// synthSeed derives a program's generator seed from the run seed and
// the program's name, so every program of every workload differs and
// the same seed always yields the same programs.
func synthSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed*1_000_003 + int64(h.Sum64()>>1)
}

// scaled shrinks an instruction count by the -scale factor, keeping at
// least one phase of each mix.
func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 2*phasePeriod) }

// phasePeriod is the synthetic programs' phase length in instructions.
const phasePeriod = 500

// synthProgram generates a phase-alternating synthetic program of n
// instructions (integer-heavy and FP-heavy phases every 500), the
// workload shape the steering and prefetch policies are built for.
func synthProgram(name string, n int, seed int64) (*program, error) {
	prog := repro.Synthesize(repro.AlternatingPhases(n, phasePeriod), synthSeed(seed, name))
	words, err := repro.EncodeProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	p := &program{name: name, prog: prog, words: words}
	return p, p.reference()
}

// sourceProgram assembles one of the repository's example programs.
func sourceProgram(root, name string) (*program, error) {
	src, err := os.ReadFile(filepath.Join(root, "examples", "programs", name))
	if err != nil {
		return nil, err
	}
	unit, err := repro.AssembleUnit(string(src))
	if err != nil {
		return nil, fmt.Errorf("assembling %s: %w", name, err)
	}
	p := &program{name: name, prog: unit.Program, unit: unit, source: string(src)}
	return p, p.reference()
}

// reference runs the program on the functional ISA model, with the
// unit's data image applied, and records how many instructions retire.
func (p *program) reference() error {
	m := mem.NewMemory(mem.DefaultSize)
	if p.unit != nil {
		p.unit.Apply(m)
	}
	n, err := isa.Run(p.prog, &isa.State{Mem: m}, maxCycles)
	if err != nil {
		return fmt.Errorf("functional reference of %s: %w", p.name, err)
	}
	p.retired = n
	return nil
}

// simCase is one distinct simulation (or estimate) a workload performs.
// Seed replicas of a non-random policy share a case.
type simCase struct {
	key      string
	prog     *program
	spec     api.RunSpec
	estimate bool
}

func newCase(p *program, spec api.RunSpec) simCase {
	key := fmt.Sprintf("%s/%s/lat%d", p.name, spec.Policy, spec.Params.ReconfigLatency)
	if spec.Policy == repro.PolicyRandom {
		key += fmt.Sprintf("/seed%d", spec.Seed)
	}
	return simCase{key: key, prog: p, spec: spec}
}

func estimateCase(p *program, spec api.RunSpec) simCase {
	return simCase{key: fmt.Sprintf("%s/%s/estimate", p.name, spec.Policy), prog: p, spec: spec, estimate: true}
}

// counts are the exact simulated results of one case. The digest part
// (cycles, retired, IPC) is pinned for the default seed; the rest feeds
// the per-layer simulated counts.
type counts struct {
	Cycles  int     `json:"cycles"`
	Retired int     `json:"retired"`
	IPC     float64 `json:"ipc"`

	steerHits, steerMisses int
	reconfigs              int
	prefetchIssued         int
	prefetchConfirmed      int
}

func (c counts) digest() counts { return counts{Cycles: c.Cycles, Retired: c.Retired, IPC: c.IPC} }

// runReport is the part of a Machine.ReportJSON document the benchmark
// checks: the same document rsssim -json prints and /v1/run returns.
type runReport struct {
	Stats struct {
		Cycles  int
		Retired int
		Halted  bool
	} `json:"stats"`
	IPC                 float64              `json:"ipc"`
	Reconfigurations    int                  `json:"reconfigurations"`
	SteeringCacheHits   int                  `json:"steeringCacheHits"`
	SteeringCacheMisses int                  `json:"steeringCacheMisses"`
	Prefetch            *repro.PrefetchStats `json:"prefetch"`
}

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinnedDigests returns the digests pinned for the default seed at full
// scale, keyed by case.
func pinnedDigests() (map[string]counts, error) {
	var d map[string]counts
	if err := json.Unmarshal(pinnedJSON, &d); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return d, nil
}

// checker is the correctness gate. Every run must halt and retire the
// functional reference's count; every repeat of a case must produce the
// same digest as its first run; and with pinned inputs every digest
// must equal the pinned one.
type checker struct {
	pinned map[string]counts // nil unless the inputs are the pinned ones

	mu   sync.Mutex
	seen map[string]counts
}

func newChecker(pinned map[string]counts) *checker {
	return &checker{pinned: pinned, seen: map[string]counts{}}
}

// report decodes and checks one run report of case c and returns its
// simulated cycle count.
func (k *checker) report(c simCase, raw []byte) (int, error) {
	var r runReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, fmt.Errorf("%s: decoding report: %w", c.key, err)
	}
	if !r.Stats.Halted {
		return 0, fmt.Errorf("%s: run did not halt", c.key)
	}
	if r.Stats.Retired != c.prog.retired {
		return 0, fmt.Errorf("%s: retired %d instructions, functional reference %d", c.key, r.Stats.Retired, c.prog.retired)
	}
	got := counts{
		Cycles: r.Stats.Cycles, Retired: r.Stats.Retired, IPC: r.IPC,
		steerHits: r.SteeringCacheHits, steerMisses: r.SteeringCacheMisses,
		reconfigs: r.Reconfigurations,
	}
	if r.Prefetch != nil {
		got.prefetchIssued, got.prefetchConfirmed = r.Prefetch.Issued, r.Prefetch.Confirmed
	}
	return r.Stats.Cycles, k.record(c, got)
}

// estimate checks one analytic estimate of case c against the
// in-process model's prediction.
func (k *checker) estimate(c simCase, got, want float64) error {
	if got != want {
		return fmt.Errorf("%s: predicted IPC %v, in-process model %v", c.key, got, want)
	}
	return k.record(c, counts{IPC: got})
}

func (k *checker) record(c simCase, got counts) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if prev, ok := k.seen[c.key]; ok && prev != got {
		return fmt.Errorf("%s: result %+v differs from an earlier run's %+v", c.key, got.digest(), prev.digest())
	}
	k.seen[c.key] = got
	if k.pinned == nil {
		return nil
	}
	want, ok := k.pinned[c.key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest (regenerate with go test -run TestDigests -update)", c.key)
	}
	if want != got.digest() {
		return fmt.Errorf("%s: digest %+v, pinned %+v", c.key, got.digest(), want)
	}
	return nil
}

// totals sums the simulated counts of every distinct case seen, so the
// per-layer counts depend on which cases ran, never on how often.
func (k *checker) totals() counts {
	k.mu.Lock()
	defer k.mu.Unlock()
	var t counts
	for _, c := range k.seen {
		t.Cycles += c.Cycles
		t.Retired += c.Retired
		t.steerHits += c.steerHits
		t.steerMisses += c.steerMisses
		t.reconfigs += c.reconfigs
		t.prefetchIssued += c.prefetchIssued
		t.prefetchConfirmed += c.prefetchConfirmed
	}
	return t
}
