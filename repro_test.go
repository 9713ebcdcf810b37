package repro

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestQuickstartFlow(t *testing.T) {
	prog, err := Assemble(`
		li r1, 10
		li r2, 32
		mul r3, r1, r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, Options{Policy: PolicySteering})
	stats, err := m.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reg(3) != 320 {
		t.Errorf("r3 = %d, want 320", m.Reg(3))
	}
	if !m.Halted() || !stats.Halted {
		t.Error("machine not halted")
	}
	if stats.IPC() <= 0 {
		t.Error("IPC not positive")
	}
}

func TestAllPoliciesRunAllKernels(t *testing.T) {
	policies := []Policy{
		PolicySteering, PolicyStaticInteger, PolicyStaticMemory,
		PolicyStaticFloating, PolicyNone, PolicyFullReconfig,
		PolicyOracle, PolicyRandom, PolicyDemand, PolicyPrefetch,
	}
	for _, k := range Kernels() {
		for _, pol := range policies {
			t.Run(k.Name+"/"+pol.String(), func(t *testing.T) {
				params := DefaultParams()
				if pol == PolicyOracle {
					params.ReconfigLatency = 1
				}
				if _, err := RunKernel(k, Options{Params: params, Policy: pol, Seed: 11}, 10_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, pol := range []Policy{PolicySteering, PolicyNone, PolicyOracle} {
		name := pol.String()
		back, err := ParsePolicy(name)
		if err != nil || back != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if !strings.HasPrefix(Policy(99).String(), "Policy(") {
		t.Error("unknown policy String format")
	}
}

func TestMemoryAndRegisterAccessors(t *testing.T) {
	prog := MustAssemble(`
		lw r2, 0(r1)
		slli r2, r2, 1
		sw r2, 4(r1)
		halt
	`)
	m := NewMachine(prog, Options{Policy: PolicyNone})
	m.SetReg(1, 256)
	m.WriteWords(256, []uint32{21})
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	out := m.ReadWords(260, 1)
	if out[0] != 42 {
		t.Errorf("stored word = %d, want 42", out[0])
	}
}

func TestFRegAccessor(t *testing.T) {
	prog := MustAssemble(`
		li r1, 9
		fcvt.s.w f2, r1
		halt
	`)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if m.proc.Reg(2+isa.FPBase) == 0 {
		t.Error("f2 still zero")
	}
}

func TestConfigurationResidency(t *testing.T) {
	prog := Synthesize([]Phase{{Mix: MixFPHeavy, Instructions: 400}}, 1)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if !r.Steering {
		t.Fatal("steering machine reported no residency")
	}
	sel := r.Selections
	total := 0
	for _, n := range sel {
		total += n
	}
	if total == 0 {
		t.Error("no selections recorded")
	}
	if sel[3] == 0 {
		t.Error("FP workload never selected the floating configuration")
	}
	// Non-steering machines report no steering counters.
	m2 := NewMachine(prog, Options{Policy: PolicyNone})
	if m2.Report().Steering {
		t.Error("FFU-only machine reported steering residency")
	}
}

func TestReportJSON(t *testing.T) {
	prog := Synthesize([]Phase{{Mix: MixUniform, Instructions: 200}}, 2)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if doc["policy"] != "steering" {
		t.Errorf("policy = %v", doc["policy"])
	}
	if doc["ipc"].(float64) <= 0 {
		t.Error("ipc not positive")
	}
	if doc["steering"] != true {
		t.Error("steering flag missing")
	}
	stats := doc["stats"].(map[string]interface{})
	if stats["Retired"].(float64) <= 0 {
		t.Error("retired count missing from stats")
	}
}

// TestReportJSONCarriesTextReport: the JSON report carries every fact
// the text report shows. Under every policy, and on a fault-injection
// run, the text rendered from the decoded ReportJSON equals the text
// rendered from the machine's own report.
func TestReportJSONCarriesTextReport(t *testing.T) {
	prog := Synthesize(AlternatingPhases(1500, 300), 7)
	faults := DefaultParams()
	faults.FaultTransientRate = 0.001
	faults.FaultPermanentRate = 0.0001
	faults.FaultSeed = 3
	faults.FaultScrubInterval = 32
	var specs []Options
	for _, p := range Policies() {
		specs = append(specs, Options{Policy: p})
	}
	specs = append(specs, Options{Policy: PolicyPrefetch, Params: faults})
	for _, o := range specs {
		m := NewMachine(prog, o)
		if _, err := m.Run(2_000_000); err != nil {
			t.Fatalf("%s: %v", o.Policy, err)
		}
		data, err := m.ReportJSON()
		if err != nil {
			t.Fatalf("%s: %v", o.Policy, err)
		}
		var decoded RunReport
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("%s: %v", o.Policy, err)
		}
		if o.Params.FaultTransientRate > 0 && decoded.Faults == nil {
			t.Errorf("%s: fault run decoded without fault counters", o.Policy)
		}
		if got, want := decoded.String(), m.Report().String(); got != want {
			t.Errorf("%s (faults %v): text from the JSON report differs:\n%s\nwant:\n%s",
				o.Policy, o.Params.FaultTransientRate > 0, got, want)
		}
	}
}

// TestCanonicalSpecsRunAlike keeps Canonical tied to NewMachine: under
// every policy, specs that differ only in fields Canonical zeroes give
// byte-identical reports, while the random policy's seed still changes
// its run.
func TestCanonicalSpecsRunAlike(t *testing.T) {
	prog := Synthesize(AlternatingPhases(1500, 300), 7)
	report := func(o Options) string {
		t.Helper()
		m := NewMachine(prog, o)
		if _, err := m.Run(2_000_000); err != nil {
			t.Fatalf("%s: %v", o.Policy, err)
		}
		data, err := m.ReportJSON()
		if err != nil {
			t.Fatalf("%s: %v", o.Policy, err)
		}
		return string(data)
	}
	for _, p := range Policies() {
		base := Options{Policy: p, Params: Params{ReconfigLatency: 8}, Seed: 1, MinResidency: 64}
		want := report(base)
		compared := 0
		for _, v := range []struct{ seed, residency int }{{2, 64}, {1, 0}, {2, 0}} {
			o := base
			o.Seed, o.MinResidency = int64(v.seed), v.residency
			if o.Canonical() != base.Canonical() {
				continue
			}
			compared++
			if got := report(o); got != want {
				t.Errorf("%s: seed %d residency %d reports differently from seed 1 residency 64, though Canonical folds them",
					p, v.seed, v.residency)
			}
		}
		if compared == 0 {
			t.Errorf("%s: Canonical folds no variant", p)
		}
	}
	a, b := Options{Policy: PolicyRandom, Seed: 1}, Options{Policy: PolicyRandom, Seed: 2}
	if a.Canonical() == b.Canonical() {
		t.Error("Canonical folds the random policy's seeds")
	}
	if report(a) == report(b) {
		t.Error("random policy with seeds 1 and 2 gave identical reports")
	}
}

func TestReportContainsKeySections(t *testing.T) {
	prog := Synthesize([]Phase{{Mix: MixUniform, Instructions: 300}}, 2)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	report := m.Report().String()
	for _, want := range []string{"IPC:", "reconfigs:", "selections:", "final fabric:", "policy:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestAssembleUnitAndRun(t *testing.T) {
	u, err := AssembleUnit(`
		.data 0x2000
	tbl:	.word 5, 7, 11
		.text
		la r1, tbl
		lw r2, 0(r1)
		lw r3, 4(r1)
		lw r4, 8(r1)
		add r5, r2, r3
		add r5, r5, r4
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachineFromUnit(u, Options{Policy: PolicySteering})
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.Reg(5) != 23 {
		t.Errorf("sum = %d, want 23", m.Reg(5))
	}
}

func TestExampleProgramsRun(t *testing.T) {
	cases := []struct {
		path  string
		check func(m *Machine) error
	}{
		{"examples/programs/histogram.s", func(m *Machine) error {
			if got := m.Reg(9); got != 32 {
				return fmt.Errorf("histogram sanity sum = %d, want 32", got)
			}
			return nil
		}},
		{"examples/programs/polynomial.s", func(m *Machine) error {
			// y[1] = p(1.0) = 2 - 3 + 4 - 5 = -2.0
			ys := m.ReadWords(0x1000+64+4, 1)
			if got := math.Float32frombits(ys[0]); got != -2.0 {
				return fmt.Errorf("p(1.0) = %v, want -2.0", got)
			}
			return nil
		}},
	}
	for _, c := range cases {
		src, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		u, err := AssembleUnit(string(src))
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		m := NewMachineFromUnit(u, Options{Policy: PolicySteering})
		if _, err := m.Run(1_000_000); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if err := c.check(m); err != nil {
			t.Errorf("%s: %v", c.path, err)
		}
	}
}

func TestMinResidencyOption(t *testing.T) {
	k := KernelByName("saxpy")
	for _, policy := range []Policy{PolicySteering, PolicyPrefetch} {
		base, err := RunKernel(k, Options{Policy: policy}, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		damped, err := RunKernel(k, Options{Policy: policy, MinResidency: 4}, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if damped.IPC() <= base.IPC() {
			t.Errorf("%v: residency damping did not help saxpy: %.3f vs %.3f", policy, damped.IPC(), base.IPC())
		}
	}
}

func TestManagerLookaheadParam(t *testing.T) {
	k := KernelByName("saxpy")
	params := DefaultParams()
	params.ManagerLookahead = true
	st, err := RunKernel(k, Options{Params: params, Policy: PolicySteering}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() <= 0.5 {
		t.Errorf("lookahead saxpy IPC = %.3f, expected the recovered ~0.61", st.IPC())
	}
}

func TestCustomBasisRoundTripAndUse(t *testing.T) {
	src := `[
	  {"name": "a", "units": ["IntALU","IntALU","IntALU","IntALU","IntALU","IntALU","IntALU","IntALU"]},
	  {"name": "b", "units": ["LSU","LSU","LSU","LSU","IntALU"]},
	  {"name": "c", "units": ["FPALU","FPMDU","IntALU","LSU"]}
	]`
	basis, err := ParseBasis([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := config.MarshalBasis(basis)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBasis(out)
	if err != nil || back != basis {
		t.Fatalf("marshal round trip failed: %v", err)
	}

	prog := Synthesize([]Phase{{Mix: MixFPHeavy, Instructions: 400}}, 4)
	m := NewMachine(prog, Options{Policy: PolicySteering, Basis: &basis})
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if !r.Steering {
		t.Fatal("no residency")
	}
	if r.Selections[3] == 0 {
		t.Error("custom FP configuration never selected on an FP workload")
	}
	// A custom basis also drives the static policies.
	m2 := NewMachine(prog, Options{Policy: PolicyStaticInteger, Basis: &basis})
	if _, err := m2.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestSteeringVersusStaticHeadline is the repo's headline claim in
// miniature: on a phase-alternating workload, steering beats every
// mismatched static configuration.
func TestSteeringVersusStaticHeadline(t *testing.T) {
	prog := Synthesize([]Phase{
		{Mix: MixIntHeavy, Instructions: 500}, {Mix: MixFPHeavy, Instructions: 500}, {Mix: MixMemHeavy, Instructions: 500}, {Mix: MixFPHeavy, Instructions: 500},
	}, 3)
	run := func(pol Policy) float64 {
		m := NewMachine(prog, Options{Policy: pol})
		stats, err := m.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return stats.IPC()
	}
	steering := run(PolicySteering)
	ffuOnly := run(PolicyNone)
	if steering <= ffuOnly {
		t.Errorf("steering IPC %.3f not above FFU-only IPC %.3f", steering, ffuOnly)
	}
}

// TestOptionsValidate pins the one run-spec validator rssd, rsssim and
// rssbench share: each bad field fails with its facade sentinel, and
// the three parameter sets that once passed validation but panicked in
// machine construction are rejected.
func TestOptionsValidate(t *testing.T) {
	withParams := func(f func(*Params)) Options {
		var o Options
		f(&o.Params)
		return o
	}
	cases := []struct {
		name string
		opt  Options
		want error // nil: valid
	}{
		{"zero value", Options{}, nil},
		{"reference machine", Options{Params: DefaultParams(), Policy: PolicyPrefetch, MaxCycles: 100, MinResidency: 4}, nil},
		{"cluster", withParams(func(p *Params) { p.Cores, p.ClusterMode, p.ClusterArbiter = 8, "split", "demand-weighted" }), nil},
		{"largest window", withParams(func(p *Params) { p.WindowSize = 64 }), nil},
		{"largest allocation sizes", withParams(func(p *Params) {
			p.MemBytes, p.CacheSets, p.PredictorEntries, p.TraceCacheLines = 1<<20, 64, 1024, 64
		}), nil},
		{"policy out of range", Options{Policy: Policy(99)}, ErrUnknownPolicy},
		{"negative policy", Options{Policy: Policy(-1)}, ErrUnknownPolicy},
		{"negative residency", Options{MinResidency: -1}, ErrInvalidParams},
		{"negative cycles", Options{MaxCycles: -1}, ErrInvalidParams},
		{"negative window", withParams(func(p *Params) { p.WindowSize = -1 }), ErrInvalidParams},
		{"window above wake-up array", withParams(func(p *Params) { p.WindowSize = 65 }), ErrInvalidParams},
		{"predictor entries not a power of two", withParams(func(p *Params) { p.PredictorEntries = 100 }), ErrInvalidParams},
		{"trace cache lines not a power of two", withParams(func(p *Params) { p.TraceCacheLines = 3 }), ErrInvalidParams},
		{"partial latency table", withParams(func(p *Params) { p.Latencies.IntALU = 1 }), ErrInvalidParams},
		{"memory above cap", withParams(func(p *Params) { p.MemBytes = 1 << 40 }), ErrInvalidParams},
		{"cache sets above cap", withParams(func(p *Params) { p.CacheSets = 128 }), ErrInvalidParams},
		{"predictor entries above cap", withParams(func(p *Params) { p.PredictorEntries = 2048 }), ErrInvalidParams},
		{"trace cache lines above cap", withParams(func(p *Params) { p.TraceCacheLines = 128 }), ErrInvalidParams},
		{"fault rate without scrub", withParams(func(p *Params) { p.FaultTransientRate = 0.01 }), ErrInvalidParams},
		{"too many cores", withParams(func(p *Params) { p.Cores = 9 }), ErrInvalidParams},
		{"unknown cluster mode", withParams(func(p *Params) { p.ClusterMode = "sideways" }), ErrInvalidParams},
		{"unknown arbiter", withParams(func(p *Params) { p.ClusterArbiter = "lottery" }), ErrInvalidParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("Validate = %v, want nil", err)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
			if err != nil {
				return
			}
			// A valid spec must build and run without panicking.
			m := NewMachine(MustAssemble("li r1, 3\nmul r2, r1, r1\nhalt\n"), tc.opt)
			if _, err := m.Run(10_000); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

// TestOptionsWireShape pins the run spec's JSON: the field names, order
// and omissions of the request schema it doubles as, with no Basis.
func TestOptionsWireShape(t *testing.T) {
	type wire struct {
		Policy       Policy `json:"policy"`
		Params       Params `json:"params"`
		MaxCycles    int    `json:"maxCycles,omitempty"`
		Seed         int64  `json:"seed,omitempty"`
		MinResidency int    `json:"minResidency,omitempty"`
	}
	basis := DefaultBasis()
	for _, o := range []Options{
		{},
		{Policy: PolicyPrefetch, Params: Params{WindowSize: 5}, MaxCycles: 10, Seed: 3, MinResidency: 2, Basis: &basis},
	} {
		got, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wire{o.Policy, o.Params, o.MaxCycles, o.Seed, o.MinResidency})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("wire shape changed:\n got %s\nwant %s", got, want)
		}
	}
}
