package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/rfu"
)

func newManager(latency int) (*Manager, *rfu.Fabric) {
	f := rfu.New(latency)
	return NewManager(f, config.DefaultBasis()), f
}

func TestUnitDecoderOneHot(t *testing.T) {
	for _, ty := range arch.UnitTypes() {
		v := UnitDecoder(ty)
		for i := range v {
			if v[i] != (arch.UnitType(i) == ty) {
				t.Errorf("UnitDecoder(%v)[%d] = %v", ty, i, v[i])
			}
		}
	}
}

func TestEncodeRequirements(t *testing.T) {
	units := []arch.UnitType{arch.IntALU, arch.IntALU, arch.LSU, arch.FPMDU}
	want := arch.Counts{2, 0, 1, 0, 1}
	if got := EncodeRequirements(units); got != want {
		t.Errorf("EncodeRequirements = %v, want %v", got, want)
	}
	if got := EncodeRequirements(nil); got != (arch.Counts{}) {
		t.Errorf("empty queue requirements = %v", got)
	}
}

func TestMinimalErrorSelectPicksLowestError(t *testing.T) {
	got := MinimalErrorSelect([arch.NumConfigs]int{5, 3, 7, 4}, [arch.NumConfigs]int{0, 8, 8, 8})
	if got != 1 {
		t.Errorf("choice = %d, want 1", got)
	}
}

// TestTieFavorsCurrent pins §3.1: "the current configuration is always
// favored over any predefined steering configuration that has the same
// error metric value."
func TestTieFavorsCurrent(t *testing.T) {
	got := MinimalErrorSelect([arch.NumConfigs]int{3, 3, 3, 3}, [arch.NumConfigs]int{0, 0, 0, 0})
	if got != 0 {
		t.Errorf("all-tie choice = %d, want current (0)", got)
	}
	got = MinimalErrorSelect([arch.NumConfigs]int{3, 3, 5, 5}, [arch.NumConfigs]int{0, 0, 0, 0})
	if got != 0 {
		t.Errorf("partial-tie choice = %d, want current (0)", got)
	}
}

// TestTieAmongPredefinedFavorsLeastReconfiguration pins the other §3.1
// tie-break: equal errors resolve toward the configuration needing the
// least reconfiguration.
func TestTieAmongPredefinedFavorsLeastReconfiguration(t *testing.T) {
	got := MinimalErrorSelect([arch.NumConfigs]int{7, 2, 2, 2}, [arch.NumConfigs]int{0, 6, 2, 4})
	if got != 2 {
		t.Errorf("choice = %d, want 2 (distance 2)", got)
	}
	// Full tie on error and distance: lowest index for determinism.
	got = MinimalErrorSelect([arch.NumConfigs]int{7, 2, 2, 2}, [arch.NumConfigs]int{0, 3, 3, 3})
	if got != 1 {
		t.Errorf("choice = %d, want 1", got)
	}
}

func TestMinimalErrorSelectPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-range error")
		}
	}()
	MinimalErrorSelect([arch.NumConfigs]int{8, 0, 0, 0}, [arch.NumConfigs]int{0, 0, 0, 0})
}

// TestSelectionCircuitEquivalence proves the comparator-chain circuit
// equals the behavioural selector over randomized legal inputs.
func TestSelectionCircuitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20000; trial++ {
		var errs, dists [arch.NumConfigs]int
		for i := range errs {
			errs[i] = rng.Intn(8)
			dists[i] = rng.Intn(arch.NumRFUSlots + 1)
		}
		dists[0] = 0 // current configuration has distance zero by definition
		want := MinimalErrorSelect(errs, dists)
		got := CircuitMinimalErrorSelect(errs, dists)
		if got != want {
			t.Fatalf("errs=%v dists=%v: circuit %d != behaviour %d", errs, dists, got, want)
		}
	}
}

// TestRequirementEncoderIsPopCount proves stage 2's circuit counts the
// set decoder lines, saturated to three bits, over every line pattern.
func TestRequirementEncoderIsPopCount(t *testing.T) {
	for v := uint64(0); v < 1<<arch.QueueSize; v++ {
		var lines [arch.QueueSize]logic.Wire
		logic.SetUint(lines[:], v)
		count := RequirementEncoder(logic.Eval, lines)
		if got, want := logic.Uint(count[:]), uint64(min(bits.OnesCount64(v), 7)); got != want {
			t.Fatalf("lines %07b: count %d, want %d", v, got, want)
		}
	}
}

// TestSelectionCircuitMatchesSelect evaluates the whole stages-2-4
// circuit against the behavioural path it describes: requirement counts
// of the decoder lines, cem.Error per candidate and MinimalErrorSelect.
// Each predefined candidate's shift bits are hard-wired from cem.Shift
// of its default-basis availability (the FFUs plus its units). Even
// trials draw a legal queue (each entry decodes to at most one type);
// odd trials draw every line independently, so requirement counts and
// errors saturate too.
func TestSelectionCircuitMatchesSelect(t *testing.T) {
	var in SelectionInputs
	var basisAvail [arch.NumConfigs - 1]arch.Counts
	for i, c := range config.DefaultBasis() {
		basisAvail[i] = config.FFUCounts().Add(c.Counts())
		for ty := range in.Shift[i] {
			logic.SetUint(in.Shift[i][ty][:], uint64(cem.Shift(basisAvail[i][ty])))
		}
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20000; trial++ {
		var lines [arch.NumUnitTypes]uint64
		for k := 0; k < arch.QueueSize; k++ {
			if trial%2 == 0 {
				if ty := rng.Intn(arch.NumUnitTypes + 1); ty < arch.NumUnitTypes {
					lines[ty] |= 1 << uint(k)
				}
				continue
			}
			for ty := range lines {
				lines[ty] |= uint64(rng.Intn(2)) << uint(k)
			}
		}
		var required, quantity arch.Counts
		for ty := range lines {
			logic.SetUint(in.Lines[ty][:], lines[ty])
			required[ty] = bits.OnesCount64(lines[ty])
			quantity[ty] = rng.Intn(8)
			logic.SetUint(in.Quantity[ty][:], uint64(quantity[ty]))
		}
		var errs, dists [arch.NumConfigs]int
		for i := range errs {
			if i == 0 {
				errs[i] = cem.Error(required, quantity)
			} else {
				errs[i] = cem.Error(required, basisAvail[i-1])
			}
			dists[i] = rng.Intn(arch.NumRFUSlots + 1)
			logic.SetUint(in.Distance[i][:], uint64(dists[i]))
		}
		choice := SelectionCircuit(logic.Eval, &in)
		if got, want := int(logic.Uint(choice[:])), MinimalErrorSelect(errs, dists); got != want {
			t.Fatalf("lines=%v quantity=%v dists=%v (errors %v): circuit %d != behaviour %d",
				lines, quantity, dists, errs, got, want)
		}
	}
}

// TestSteeringTowardFPConfiguration: an FP-heavy queue on a fresh fabric
// must select the floating configuration and begin loading it.
func TestSteeringTowardFPConfiguration(t *testing.T) {
	m, f := newManager(0)
	req := EncodeRequirements([]arch.UnitType{
		arch.FPALU, arch.FPALU, arch.FPMDU, arch.FPMDU, arch.LSU,
	})
	sel := m.Step(req)
	if sel.Choice != 3 {
		t.Fatalf("choice = %d (%v), want 3 (floating)", sel.Choice, sel.Errors)
	}
	// With zero reconfiguration latency the fabric now holds the
	// floating layout.
	if f.Allocation().Slots != m.Basis()[2].Layout {
		t.Errorf("fabric = %v, want floating layout", f.Allocation().Slots)
	}
}

func TestSteeringTowardIntegerConfiguration(t *testing.T) {
	m, f := newManager(0)
	req := EncodeRequirements([]arch.UnitType{
		arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntMDU,
	})
	sel := m.Step(req)
	if sel.Choice != 1 {
		t.Fatalf("choice = %d (%v), want 1 (integer)", sel.Choice, sel.Errors)
	}
	if f.Allocation().Slots != m.Basis()[0].Layout {
		t.Errorf("fabric = %v, want integer layout", f.Allocation().Slots)
	}
}

// fpDemand is an FP-heavy queue the selector answers with the floating
// configuration.
func fpDemand() arch.Counts {
	return EncodeRequirements([]arch.UnitType{
		arch.FPALU, arch.FPALU, arch.FPMDU, arch.FPMDU, arch.LSU,
	})
}

// TestManageLoadsMatchingConfiguration: Manage is Step behind the
// cpu.Manager interface, so one call on a zero-latency fabric loads the
// matching configuration.
func TestManageLoadsMatchingConfiguration(t *testing.T) {
	m, f := newManager(0)
	m.Manage(fpDemand())
	if f.Allocation().Slots != config.DefaultBasis()[2].Layout {
		t.Errorf("fabric = %v, want floating layout", f.Allocation().Slots)
	}
}

// TestManageWithExactMetric: the oracle policy is the manager with the
// exact CEM; it steers the same way once the span installs.
func TestManageWithExactMetric(t *testing.T) {
	m, f := newManager(1)
	m.ExactCEM = true
	m.Manage(fpDemand())
	f.Tick()
	if f.Allocation().Slots != config.DefaultBasis()[2].Layout {
		t.Errorf("oracle fabric = %v, want floating layout", f.Allocation().Slots)
	}
}

// TestStableConfigurationIsKept: once the fabric matches the demand, the
// selection unit keeps the current configuration (choice 0) — the
// "settled" state §3.1 calls desirable.
func TestStableConfigurationIsKept(t *testing.T) {
	m, _ := newManager(0)
	req := EncodeRequirements([]arch.UnitType{
		arch.IntALU, arch.IntALU, arch.IntALU, arch.LSU,
	})
	first := m.Step(req)
	if first.Current() {
		t.Fatal("setup: fresh fabric should not already match")
	}
	second := m.Step(req)
	if !second.Current() {
		t.Errorf("second step choice = %d, want current", second.Choice)
	}
	if m.Stats().Selections[0] != 1 {
		t.Errorf("current-selection count = %d, want 1", m.Stats().Selections[0])
	}
}

// TestEmptyQueueKeepsCurrent: with nothing queued every error is zero and
// the tie-break keeps the current configuration — no gratuitous
// reconfiguration.
func TestEmptyQueueKeepsCurrent(t *testing.T) {
	m, f := newManager(0)
	sel := m.Step(arch.Counts{})
	if !sel.Current() {
		t.Errorf("empty queue choice = %d, want current", sel.Choice)
	}
	if f.Reconfigurations() != 0 {
		t.Error("empty queue triggered reconfiguration")
	}
}

// TestLoaderDefersBusySpans: a busy RFU is not reconfigured; the loader
// records the deferral and rewrites only the idle spans — producing a
// hybrid configuration.
func TestLoaderDefersBusySpans(t *testing.T) {
	m, f := newManager(0)
	// Settle into the integer configuration.
	intReq := EncodeRequirements([]arch.UnitType{arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU})
	m.Step(intReq)
	if f.Allocation().Slots != m.Basis()[0].Layout {
		t.Fatal("setup: integer layout not loaded")
	}
	// Busy the IntALU in slot 0 (acquire FFU first, then RFUs).
	f.Acquire(arch.IntALU, 50)
	ref, _ := f.Acquire(arch.IntALU, 50)
	if ref.FFU || ref.Idx != 0 {
		t.Fatalf("setup: expected RFU slot 0, got %v", ref)
	}
	// Now demand FP: the floating layout wants an IntALU at slot 0 too,
	// which matches, but its other spans differ; slot 0's unit stays.
	fpReq := EncodeRequirements([]arch.UnitType{arch.FPALU, arch.FPALU, arch.FPMDU, arch.FPMDU})
	sel := m.Step(fpReq)
	if sel.Choice != 3 {
		t.Fatalf("choice = %d, want floating", sel.Choice)
	}
	got := f.Allocation().Slots
	fl := m.Basis()[2].Layout
	if got[0] != fl[0] { // IntALU at slot 0 is shared between layouts
		t.Errorf("slot 0 = %v, want %v", got[0], fl[0])
	}
	// Slot 1 of the integer layout (IntALU) was idle: the floating
	// layout's LSU must have replaced it.
	if got[1] != fl[1] {
		t.Errorf("slot 1 = %v, want %v", got[1], fl[1])
	}
}

// TestHybridConfigurationArises: reconfiguring with one span pinned busy
// yields an allocation that matches no predefined layout — the hybrid
// state of §2 — and the manager counts it.
func TestHybridConfigurationArises(t *testing.T) {
	m, f := newManager(0)
	m.Step(EncodeRequirements([]arch.UnitType{arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU}))
	// Pin the IntMDU (slots 4-5 of the integer layout) busy.
	f.Acquire(arch.IntMDU, 100)
	ref, _ := f.Acquire(arch.IntMDU, 100)
	if ref.FFU {
		t.Fatal("setup: expected the RFU IntMDU")
	}
	m.Step(EncodeRequirements([]arch.UnitType{arch.FPALU, arch.FPMDU, arch.FPMDU, arch.FPMDU}))
	slots := f.Allocation().Slots
	hybrid := true
	for _, cfg := range m.Basis() {
		if slots == cfg.Layout {
			hybrid = false
		}
	}
	if !hybrid {
		t.Errorf("expected a hybrid allocation, got %v", slots)
	}
	if m.Stats().DeferredSlots == 0 {
		t.Error("deferred slots not counted")
	}
	// Subsequent steps with the fabric still pinned count hybrid cycles.
	m.Step(arch.Counts{})
	if m.Stats().HybridCycles == 0 {
		t.Error("hybrid cycles not counted")
	}
}

// TestLoadReturnsZeroForCurrent: keeping the current configuration must
// not touch the fabric.
func TestLoadReturnsZeroForCurrent(t *testing.T) {
	m, f := newManager(0)
	sel := Selection{Choice: 0}
	if n, _ := m.Load(&sel); n != 0 {
		t.Errorf("Load(current) = %d", n)
	}
	if f.Reconfigurations() != 0 {
		t.Error("Load(current) reconfigured the fabric")
	}
}

// TestExactCEMAblation: the exact-divider manager can disagree with the
// shifter manager on selection for some demand vector, and both remain
// internally consistent with their metric.
func TestExactCEMAblation(t *testing.T) {
	disagreements := 0
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		var units []arch.UnitType
		n := rng.Intn(arch.QueueSize + 1)
		for i := 0; i < n; i++ {
			units = append(units, arch.UnitType(rng.Intn(arch.NumUnitTypes)))
		}
		req := EncodeRequirements(units)

		mApprox, _ := newManager(0)
		mExact, _ := newManager(0)
		mExact.ExactCEM = true
		a := mApprox.Select(req)
		x := mExact.Select(req)
		if a.Choice != x.Choice {
			disagreements++
		}
		// Internal consistency: reported errors match the metric.
		ffu := config.FFUCounts()
		for i, cfg := range mApprox.Basis() {
			if a.Errors[i+1] != cem.Error(req, cfg.Counts().Add(ffu)) {
				t.Fatalf("approx error mismatch for config %d", i+1)
			}
			if x.Errors[i+1] != cem.ErrorExact(req, cfg.Counts().Add(ffu)) {
				t.Fatalf("exact error mismatch for config %d", i+1)
			}
		}
	}
	t.Logf("approx/exact selection disagreements: %d/2000", disagreements)
}

// TestInvalidBasisPanics: a malformed steering configuration is a
// construction-time error.
func TestInvalidBasisPanics(t *testing.T) {
	bad := config.DefaultBasis()
	bad[1].Layout[0] = arch.EncCont
	defer func() {
		if recover() == nil {
			t.Error("no panic on invalid basis")
		}
	}()
	NewManager(rfu.New(0), bad)
}

// TestSelectionDeterministic: Select is a pure function of demand and
// fabric state.
func TestSelectionDeterministic(t *testing.T) {
	m, _ := newManager(4)
	req := EncodeRequirements([]arch.UnitType{arch.LSU, arch.LSU, arch.LSU, arch.IntALU})
	a := m.Select(req)
	b := m.Select(req)
	if a != b {
		t.Errorf("Select not deterministic: %+v vs %+v", a, b)
	}
}

// TestMinResidencySuppressesReloads: with the residency timer armed,
// selection changes within the window are suppressed and counted.
func TestMinResidencySuppressesReloads(t *testing.T) {
	m, f := newManager(0)
	m.MinResidency = 10
	intReq := EncodeRequirements([]arch.UnitType{arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU})
	fpReq := EncodeRequirements([]arch.UnitType{arch.FPALU, arch.FPALU, arch.FPMDU, arch.FPMDU})

	// The timer also gates the very first load: it happens once
	// sinceLoad exceeds MinResidency (the 11th step), resetting the
	// timer.
	for i := 0; i < 11; i++ {
		m.Step(intReq)
	}
	if f.Allocation().Slots != m.Basis()[0].Layout {
		t.Fatalf("integer layout never loaded under residency: %v", f.Allocation().Slots)
	}
	loads := f.Reconfigurations()
	// Oscillate demand inside the fresh residency window (sinceLoad
	// stays <= 10 for the next 10 steps): nothing may reload.
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			m.Step(fpReq)
		} else {
			m.Step(intReq)
		}
	}
	if f.Reconfigurations() != loads {
		t.Errorf("reconfigurations grew from %d to %d inside the residency window",
			loads, f.Reconfigurations())
	}
	if m.Stats().SuppressedLoads == 0 {
		t.Error("suppressed loads not counted")
	}
	// After the window expires the manager may move again.
	for i := 0; i < 11; i++ {
		m.Step(fpReq)
	}
	if f.Allocation().Slots == m.Basis()[0].Layout {
		t.Error("manager never escaped the integer layout after residency expired")
	}
}

// TestConvergenceUnderConstantDemand: under an unchanging demand the
// manager reaches a fixed point — eventually every cycle keeps the
// current configuration and the fabric stops changing.
func TestConvergenceUnderConstantDemand(t *testing.T) {
	for lat := 0; lat <= 8; lat += 4 {
		m, f := newManager(lat)
		req := EncodeRequirements([]arch.UnitType{
			arch.LSU, arch.LSU, arch.LSU, arch.LSU, arch.IntALU, arch.IntALU,
		})
		var lastChoice int
		for cycle := 0; cycle < 200; cycle++ {
			sel := m.Step(req)
			lastChoice = sel.Choice
			f.Tick()
		}
		if lastChoice != 0 {
			t.Errorf("latency %d: not converged after 200 cycles (choice %d)", lat, lastChoice)
		}
		if f.ReconfiguringSlots() > 0 {
			t.Errorf("latency %d: fabric still reconfiguring at steady state", lat)
		}
	}
}

// TestStepMatchesUncached drives two managers — steering cache on and
// off — over twin fabrics with the same random demand stream, busy
// units, HoldTarget and residency changes, ticking every cycle. Every
// returned selection, the stats and the allocation must agree on every
// cycle.
func TestStepMatchesUncached(t *testing.T) {
	for _, latency := range []int{0, 4, 16} {
		t.Run(fmt.Sprintf("lat%d", latency), func(t *testing.T) {
			fm, fp := rfu.New(latency), rfu.New(latency)
			fm.SetConfigBusWidth(2)
			fp.SetConfigBusWidth(2)
			cached := NewManager(fm, config.DefaultBasis())
			plain := NewManager(fp, config.DefaultBasis())
			plain.DisableCache = true
			rng := rand.New(rand.NewSource(int64(11 + latency)))
			var d arch.Counts
			for cycle := 0; cycle < 20000; cycle++ {
				if rng.Intn(5) == 0 {
					d = arch.Counts{}
					for i := rng.Intn(arch.QueueSize + 1); i > 0; i-- {
						d[rng.Intn(arch.NumUnitTypes)]++
					}
				}
				if rng.Intn(3) == 0 {
					ty, busy := arch.UnitType(rng.Intn(arch.NumUnitTypes)), 1+rng.Intn(6)
					fm.Acquire(ty, busy)
					fp.Acquire(ty, busy)
				}
				if rng.Intn(300) == 0 {
					cached.HoldTarget = rng.Intn(arch.NumConfigs)
					plain.HoldTarget = cached.HoldTarget
				}
				if rng.Intn(700) == 0 {
					cached.MinResidency = rng.Intn(3) * 8
					plain.MinResidency = cached.MinResidency
				}

				a, b := cached.Step(d), plain.Step(d)
				if *a != *b {
					t.Fatalf("cycle %d, demand %v: selection %+v, uncached %+v", cycle, d, *a, *b)
				}
				got, want := cached.Stats(), plain.Stats()
				got.CacheHits, got.CacheMisses = 0, 0 // only the cached side looks up
				if got != want {
					t.Fatalf("cycle %d: stats %+v, uncached %+v", cycle, got, want)
				}
				if fm.Allocation() != fp.Allocation() {
					t.Fatalf("cycle %d: allocation %v, uncached %v", cycle, fm.Allocation().Slots, fp.Allocation().Slots)
				}
				fm.Tick()
				fp.Tick()
			}
			st := cached.Stats()
			if st.DeferredSlots == 0 || st.HeldLoads == 0 || st.SuppressedLoads == 0 {
				t.Errorf("stream exercised too little: stats %+v", st)
			}
			if lookups := st.CacheHits + st.CacheMisses; lookups != 20000 {
				t.Errorf("cache lookups = %d, want one per Step (20000)", lookups)
			}
		})
	}
}
