package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/rfu"
)

func TestDemandPlanCoversDominantType(t *testing.T) {
	m := NewDemandManager(rfu.New(0))
	req := EncodeRequirements([]arch.UnitType{
		arch.FPMDU, arch.FPMDU, arch.FPMDU, arch.FPMDU,
	})
	planned := m.plan(req)
	if planned[arch.FPMDU] == 0 {
		t.Errorf("plan %v ignores the only demanded type", planned)
	}
	if planned.Slots() > arch.NumRFUSlots {
		t.Errorf("plan %v exceeds the fabric", planned)
	}
}

func TestDemandPlanEmptyForNoDemand(t *testing.T) {
	m := NewDemandManager(rfu.New(0))
	if planned := m.plan(arch.Counts{}); planned != (arch.Counts{}) {
		t.Errorf("plan of zero demand = %v", planned)
	}
}

// TestDemandPlanProportional: a mixed demand plans more of the heavier
// type.
func TestDemandPlanProportional(t *testing.T) {
	m := NewDemandManager(rfu.New(0))
	req := arch.Counts{5, 0, 2, 0, 0}
	planned := m.plan(req)
	if planned[arch.IntALU] <= planned[arch.LSU] {
		t.Errorf("plan %v does not favour the dominant type (req %v)", planned, req)
	}
}

// TestDemandTargetStructurallyValid under random demand vectors and
// random live fabrics.
func TestDemandTargetStructurallyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 2000; trial++ {
		f := rfu.New(0)
		// Random live layout via random legal reconfigurations.
		for i := 0; i < 5; i++ {
			ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
			slot := rng.Intn(arch.NumRFUSlots)
			if f.CanReconfigure(ty, slot) {
				f.Reconfigure(ty, slot)
			}
		}
		m := NewDemandManager(f)
		m.Hysteresis = rng.Intn(3)
		var req arch.Counts
		left := arch.QueueSize
		for ti := range req {
			v := rng.Intn(left + 1)
			req[ti] = v
			left -= v
		}
		target := m.synthesize(m.plan(req), req)
		if err := target.Validate(); err != nil {
			t.Fatalf("trial %d: invalid target %v for req %v: %v", trial, target.Layout, req, err)
		}
	}
}

// TestDemandKeepsUsefulUnits: units already matching the plan stay in
// place, so repeated identical demand converges to zero reconfiguration.
func TestDemandConvergesUnderConstantDemand(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	req := EncodeRequirements([]arch.UnitType{
		arch.FPALU, arch.FPALU, arch.LSU, arch.IntALU, arch.IntALU,
	})
	m.Step(req)
	after := f.Reconfigurations()
	if after == 0 {
		t.Fatal("first step configured nothing")
	}
	layout := f.Allocation().Slots
	for i := 0; i < 20; i++ {
		m.Step(req)
	}
	if f.Reconfigurations() != after {
		t.Errorf("reconfigurations grew from %d to %d under constant demand", after, f.Reconfigurations())
	}
	if f.Allocation().Slots != layout {
		t.Error("layout changed under constant demand")
	}
}

// TestDemandServesEveryDemandedType: after a few steps on an idle fabric
// every demanded type with positive count is configured or FFU-covered.
func TestDemandServesEveryDemandedType(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	req := arch.Counts{2, 1, 2, 1, 1}
	for i := 0; i < 5; i++ {
		m.Step(req)
	}
	for _, ty := range arch.UnitTypes() {
		if req[ty] > 0 && f.AvailableSet()&(1<<uint(ty)) == 0 {
			t.Errorf("%v demanded but unavailable", ty)
		}
	}
}

// TestDemandRespectsBusySpans: a busy unit is never destroyed.
func TestDemandRespectsBusySpans(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	m.Step(arch.Counts{0, 0, 0, 0, 4}) // fill with FPMDUs
	if f.Allocation().Slots[0] != arch.EncFPMDU {
		t.Fatalf("setup: %v", f.Allocation().Slots)
	}
	f.Acquire(arch.FPMDU, 100) // FFU
	ref, _ := f.Acquire(arch.FPMDU, 100)
	if ref.FFU {
		t.Fatal("setup: expected RFU")
	}
	busyHead := ref.Idx
	// Demand flips entirely to integer.
	for i := 0; i < 10; i++ {
		m.Step(arch.Counts{7, 0, 0, 0, 0})
	}
	if f.Allocation().Slots[busyHead] != arch.EncFPMDU {
		t.Error("busy FPMDU was destroyed")
	}
}

// TestDemandHysteresisReducesChurn: alternating demand with hysteresis
// produces no more reconfigurations than without.
func TestDemandHysteresisReducesChurn(t *testing.T) {
	run := func(h int) int {
		f := rfu.New(0)
		m := NewDemandManager(f)
		m.Hysteresis = h
		a := arch.Counts{4, 0, 2, 0, 0}
		b := arch.Counts{3, 0, 2, 1, 0}
		for i := 0; i < 50; i++ {
			if i%2 == 0 {
				m.Step(a)
			} else {
				m.Step(b)
			}
		}
		return f.Reconfigurations()
	}
	if h2, h0 := run(2), run(0); h2 > h0 {
		t.Errorf("hysteresis 2 caused more churn (%d) than none (%d)", h2, h0)
	}
}

// TestDemandLayoutUsesWholeFabricUnderPressure: saturated uniform demand
// leaves few slots empty.
func TestDemandLayoutUsesWholeFabricUnderPressure(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	req := arch.Counts{2, 1, 2, 1, 1}
	for i := 0; i < 5; i++ {
		m.Step(req)
	}
	empty := 0
	for _, e := range f.Allocation().Slots {
		if e == arch.EncEmpty {
			empty++
		}
	}
	if empty > 2 {
		t.Errorf("%d slots left empty under saturated demand: %v", empty, f.Allocation().Slots)
	}
}

// TestDemandStepMatchesReference drives DemandManager.Step over a
// random demand stream — demands held for a few cycles, units busied
// and the hysteresis flipped at random, the fabric ticking every cycle
// — next to a reference loop that runs Target and the
// CanReconfigure/Reconfigure discipline on a twin fabric every cycle.
// The span rewrites started and the allocation must agree on every
// cycle, so the tables yield exactly what a full synthesis would have
// done.
func TestDemandStepMatchesReference(t *testing.T) {
	for _, tc := range []struct{ latency, busWidth, hysteresis int }{
		{0, 0, 0}, {4, 0, 0}, {8, 2, 1}, {16, 1, 2},
	} {
		t.Run(fmt.Sprintf("lat%d-bus%d-hyst%d", tc.latency, tc.busWidth, tc.hysteresis), func(t *testing.T) {
			fm, fr := rfu.New(tc.latency), rfu.New(tc.latency)
			fm.SetConfigBusWidth(tc.busWidth)
			fr.SetConfigBusWidth(tc.busWidth)
			m, ref := NewDemandManager(fm), NewDemandManager(fr)
			m.Hysteresis, ref.Hysteresis = tc.hysteresis, tc.hysteresis
			var reconfigs, deferred int
			rng := rand.New(rand.NewSource(int64(7 + tc.latency)))
			var d arch.Counts
			for cycle := 0; cycle < 20000; cycle++ {
				if rng.Intn(4) == 0 {
					d = arch.Counts{}
					for i := rng.Intn(arch.QueueSize + 1); i > 0; i-- {
						d[rng.Intn(arch.NumUnitTypes)]++
					}
				}
				if rng.Intn(3) == 0 {
					ty, busy := arch.UnitType(rng.Intn(arch.NumUnitTypes)), 1+rng.Intn(6)
					_, okM := fm.Acquire(ty, busy)
					_, okR := fr.Acquire(ty, busy)
					if okM != okR {
						t.Fatalf("cycle %d: fabrics disagree on acquiring %v", cycle, ty)
					}
				}
				if rng.Intn(500) == 0 {
					m.Hysteresis ^= 1
					ref.Hysteresis = m.Hysteresis
				}
				m.Step(d)
				if d.Total() > 0 {
					for _, u := range ref.synthesize(ref.plan(d), d).AppendUnits(nil) {
						switch {
						case fr.Allocation().Slots[u.Slot] == arch.Encode(u.Type):
						case !fr.CanReconfigure(u.Type, u.Slot):
							deferred += u.Span
						case fr.Reconfigure(u.Type, u.Slot):
							reconfigs++
						}
					}
				}

				if fm.Reconfigurations() != reconfigs {
					t.Fatalf("cycle %d, demand %v: %d reconfigurations, reference %d", cycle, d, fm.Reconfigurations(), reconfigs)
				}
				if fm.Allocation() != fr.Allocation() {
					t.Fatalf("cycle %d: allocation %v, reference %v", cycle, fm.Allocation().Slots, fr.Allocation().Slots)
				}
				fm.Tick()
				fr.Tick()
			}
			if deferred == 0 || reconfigs == 0 {
				t.Errorf("stream exercised too little: %d reconfigurations, %d deferred slots", reconfigs, deferred)
			}
		})
	}
}

// referenceStep is DemandManager.Step without its tables: it
// plans and synthesises from scratch and loads the target every cycle.
func referenceStep(m *DemandManager, required arch.Counts) {
	if required.Total() == 0 {
		return
	}
	m.fabric.Load(m.synthesize(m.plan(required), required).AppendUnits(nil))
}

// FuzzDemandManager holds DemandManager.Step, with its plan and
// synthesis tables, to referenceStep on a twin fabric. The
// input picks the fabric's reconfiguration latency and bus width, then
// runs two-byte operations: set one demand count (up to a 64-row
// window plus lookahead, or 300, past the tables' key range), clear the
// demand, busy a unit, rewrite a span behind the manager's back, set
// the hysteresis (0–2), or tick. A Step follows every operation. After
// each, the Load outcome (allocation, timer masks and span rewrites
// started) must agree, and so must the tables' target for the same
// demand on the layout the Step left.
func FuzzDemandManager(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 6, 2, 12, 1, 30, 4, 5, 0, 0, 6, 5, 1})
	f.Add(uint8(2), []byte{0, 7, 0, 7, 4, 2, 6, 9, 5, 3, 2, 5, 18, 40, 5, 0, 4, 1, 1, 0, 24, 80})
	f.Add(uint8(8), []byte{24, 255, 4, 2, 0, 64, 5, 1, 3, 3, 9, 0, 5, 2, 1, 0, 12, 7, 5, 3})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		latency := []int{0, 1, 4, 8, 16}[shape%5]
		busWidth := int(shape/5) % 3
		fm, fr := rfu.New(latency), rfu.New(latency)
		fm.SetConfigBusWidth(busWidth)
		fr.SetConfigBusWidth(busWidth)
		m, ref := NewDemandManager(fm), NewDemandManager(fr)
		var d arch.Counts
		for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
			ty, arg := arch.UnitType(ops[0]/6%arch.NumUnitTypes), int(ops[1])
			switch ops[0] % 6 {
			case 0:
				d[ty] = arg % 81
				if arg == 255 {
					d[ty] = 300
				}
			case 1:
				d = arch.Counts{}
			case 2:
				_, okM := fm.Acquire(ty, 1+arg%8)
				_, okR := fr.Acquire(ty, 1+arg%8)
				if okM != okR {
					t.Fatalf("step %d: fabrics disagree on acquiring %v", step, ty)
				}
			case 3:
				if slot := arg % arch.NumRFUSlots; fm.CanReconfigure(ty, slot) {
					fm.Reconfigure(ty, slot)
					fr.Reconfigure(ty, slot)
				}
			case 4:
				m.Hysteresis = arg % 3
				ref.Hysteresis = m.Hysteresis
			case 5:
				for i := arg % 4; i > 0; i-- {
					fm.Tick()
					fr.Tick()
				}
			}
			m.Step(d)
			referenceStep(ref, d)
			tm := fm.TimerMasks()
			tr := fr.TimerMasks()
			if fm.Allocation() != fr.Allocation() || tm != tr || fm.Reconfigurations() != fr.Reconfigurations() {
				t.Fatalf("step %d: allocation %v timers %#x reconfigurations %d, reference %v timers %#x reconfigurations %d",
					step, fm.Allocation().Slots, tm, fm.Reconfigurations(), fr.Allocation().Slots, tr, fr.Reconfigurations())
			}
			if got, want := m.targetUnits(d), ref.synthesize(ref.plan(d), d).AppendUnits(nil); !slices.Equal(got, want) {
				t.Fatalf("step %d, demand %v, hysteresis %d: target %v, reference %v", step, d, m.Hysteresis, got, want)
			}
		}
	})
}
