package rfu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/fault"
)

// tick advances the fabric n cycles.
func tick(f *Fabric, n int) {
	for i := 0; i < n; i++ {
		f.Tick()
	}
}

// TestFaultTransientLifecycle walks one transient upset through the
// whole state machine: corrupt (masked immediately) → detected by the
// scrub → repairing on the bus → healthy again.
func TestFaultTransientLifecycle(t *testing.T) {
	const latency, scrub = 2, 4
	f := New(latency)
	f.EnableFaults(fault.Plan{ScrubInterval: scrub})
	f.Install(config.DefaultBasis()[0]) // integer: IntALU heads at 0 and 1

	if !f.InjectFault(0, false) {
		t.Fatal("injection refused on a healthy idle slot")
	}
	if got := f.Health(0); got != HealthCorrupt {
		t.Fatalf("health after upset = %v, want corrupt", got)
	}
	if refSlotUsable(f, 0) {
		t.Error("corrupt slot still usable")
	}
	if !refSlotUsable(f, 1) {
		t.Error("slot 1 unusable — corruption of slot 0 masked an unrelated unit")
	}
	// Slot 0 heads a 1-slot IntALU; exactly that unit must vanish from
	// availability while the rest of the fabric still serves IntALU.
	healthyCount := availableCount(f, arch.IntALU)
	f2 := New(2)
	f2.Install(config.DefaultBasis()[0])
	if want := availableCount(f2, arch.IntALU) - 1; healthyCount != want {
		t.Errorf("AvailableCount(IntALU) = %d with one corrupt unit, want %d", healthyCount, want)
	}

	// The scrub scan fires on the interval and flags the slot.
	tick(f, scrub)
	if got := f.Health(0); got != HealthDetected && got != HealthRepairing {
		t.Fatalf("health after scrub = %v, want detected or repairing", got)
	}

	// Repair occupies the slot's reconfig timer for latency cycles.
	tick(f, 1)
	if got := f.Health(0); got != HealthRepairing {
		t.Fatalf("health after repair start = %v, want repairing", got)
	}
	tick(f, latency)
	if got := f.Health(0); got != HealthHealthy {
		t.Fatalf("health after repair = %v, want healthy", got)
	}
	if !refSlotUsable(f, 0) {
		t.Error("repaired slot not usable")
	}
	st := f.FaultStats()
	if st.InjectedTransient != 1 || st.Detected != 1 || st.RepairsStarted != 1 || st.Repaired != 1 {
		t.Errorf("stats = %+v, want one injected/detected/started/repaired", st)
	}
	if st.MaskedSlotCycles == 0 {
		t.Error("no masked slot-cycles accumulated while the slot was faulty")
	}
	// The allocation vector (the controller's golden copy) never
	// changed: repair restored the same encoding.
	if f.Allocation().Slots != config.DefaultBasis()[0].Layout {
		t.Errorf("allocation drifted across repair: %v", f.Allocation().Slots)
	}
}

// TestSlotUsableAnswersForCoveringUnit: a fault on either slot of a
// multi-slot unit's span, continuation included, takes the whole
// covering unit out of service and leaves the neighbouring unit in it.
func TestSlotUsableAnswersForCoveringUnit(t *testing.T) {
	for _, victim := range []int{0, 1} {
		f := New(1)
		f.Install(config.MustNew("t", arch.IntMDU, arch.LSU)) // IntMDU 0-1, LSU 2
		f.InjectFault(victim, false)
		got := f.EffectiveTotalCounts()
		if got[arch.IntMDU] != 1 || got[arch.LSU] != 2 {
			t.Errorf("fault on slot %d: units in service %v, want the IntMDU FFU alone and both LSUs", victim, got)
		}
	}
}

// TestFaultPermanentRetiresSlot: a permanent fault survives the repair
// rewrite, the slot dies, and the covering unit's span is salvaged back
// to empty space that steering cannot place units over.
func TestFaultPermanentRetiresSlot(t *testing.T) {
	f := New(1)
	f.EnableFaults(fault.Plan{ScrubInterval: 2})
	f.Install(config.DefaultBasis()[2]) // floating: 3-slot FP units

	layout := f.Allocation().Slots
	head := -1
	for s, e := range layout {
		if e != arch.EncEmpty && e != arch.EncCont {
			head = s
			break
		}
	}
	if head < 0 {
		t.Fatal("no unit head in the floating configuration")
	}
	ht, _ := arch.DecodeUnit(layout[head])
	span := arch.SlotCost(ht)
	victim := head + span - 1 // corrupt the unit's last span slot

	if !f.InjectFault(victim, true) {
		t.Fatal("injection refused")
	}
	if refSlotUsable(f, head) {
		t.Error("unit head usable while a span slot is corrupt")
	}

	// Scrub → repair attempt → stuck bits found → dead → salvage.
	tick(f, 16)
	if got := f.Health(victim); got != HealthDead {
		t.Fatalf("health = %v, want dead", got)
	}
	for s := head; s < head+span; s++ {
		if got := f.Allocation().Slots[s]; got != arch.EncEmpty {
			t.Errorf("slot %d not salvaged: %v", s, got)
		}
	}
	_, dead := f.HealthMasks()
	if dead != 1<<uint(victim) {
		t.Errorf("dead mask = %08b, want bit %d", dead, victim)
	}
	// Steering may reuse the salvaged slots but never the dead one.
	if f.CanReconfigure(ht, victim-span+1) {
		t.Error("CanReconfigure allowed a span over a dead slot")
	}
	if st := f.FaultStats(); st.DeadSlots != 1 || st.Repaired != 0 {
		t.Errorf("stats = %+v, want one dead slot and no repairs", st)
	}
}

// TestFaultRepairCompetesForBus: with a width-1 configuration bus, a
// repair must wait for an in-flight steering rewrite to finish.
func TestFaultRepairCompetesForBus(t *testing.T) {
	const latency = 6
	f := New(latency)
	f.SetConfigBusWidth(1)
	f.EnableFaults(fault.Plan{ScrubInterval: 1})
	f.Install(config.DefaultBasis()[0])

	// A steering rewrite grabs the single-width bus first...
	if !f.CanReconfigure(arch.FPALU, 5) {
		t.Fatal("steering rewrite refused")
	}
	f.Reconfigure(arch.FPALU, 5)
	// ...so when the scrub flags the upset, its repair must queue.
	f.InjectFault(0, false)
	f.Tick()
	if got := f.Health(0); got != HealthDetected {
		t.Fatalf("health while bus busy = %v, want detected (repair queued)", got)
	}
	tick(f, latency-2)
	if got := f.Health(0); got != HealthDetected {
		t.Fatalf("repair started while the bus was still busy: %v", got)
	}
	// Once the steering span completes, the repair goes through.
	tick(f, 2)
	if got := f.Health(0); got != HealthRepairing {
		t.Fatalf("repair never started after the bus freed: %v", got)
	}
	tick(f, latency)
	if got := f.Health(0); got != HealthHealthy {
		t.Fatalf("repair never completed: %v", got)
	}
}

// TestFaultHealedBySteeringLoad: rewriting a span over an undetected
// transient upset overwrites the corruption.
func TestFaultHealedBySteeringLoad(t *testing.T) {
	f := New(0) // free reconfiguration: installs are immediate
	f.EnableFaults(fault.Plan{ScrubInterval: 1 << 20})
	f.Install(config.DefaultBasis()[0])

	f.InjectFault(0, false)
	if refSlotUsable(f, 0) {
		t.Fatal("corrupt slot usable")
	}
	if !f.CanReconfigure(arch.LSU, 0) {
		t.Fatal("steering blocked by undetected corruption — the controller cannot know")
	}
	f.Reconfigure(arch.LSU, 0)
	if got := f.Health(0); got != HealthHealthy {
		t.Fatalf("health after rewrite = %v, want healthy", got)
	}
	if st := f.FaultStats(); st.HealedByLoad != 1 {
		t.Errorf("HealedByLoad = %d, want 1", st.HealedByLoad)
	}
}

// TestFaultAcquireNeverReturnsFaultySlot hammers a randomly faulted
// fabric and asserts Acquire only ever hands out units whose whole span
// is healthy.
func TestFaultAcquireNeverReturnsFaultySlot(t *testing.T) {
	f := New(2)
	f.EnableFaults(fault.Plan{Seed: 99, TransientRate: 0.02, PermanentRate: 0.002, ScrubInterval: 8})
	f.Install(config.DefaultBasis()[1])

	types := []arch.UnitType{arch.IntALU, arch.IntMDU, arch.LSU, arch.FPALU, arch.FPMDU}
	for cycle := 0; cycle < 20_000; cycle++ {
		f.Tick()
		tt := types[cycle%len(types)]
		if ref, ok := f.Acquire(tt, 1+cycle%3); ok && !ref.FFU {
			cost := arch.SlotCost(tt)
			for s := ref.Idx; s < ref.Idx+cost; s++ {
				if got := f.Health(s); got != HealthHealthy {
					t.Fatalf("cycle %d: acquired %v whose slot %d is %v", cycle, ref, s, got)
				}
			}
		}
		// Occasionally steer, like the manager would.
		if cycle%97 == 0 && f.CanReconfigure(tt, int(cycle)%4) {
			f.Reconfigure(tt, int(cycle)%4)
		}
	}
	st := f.FaultStats()
	if st.InjectedTransient == 0 {
		t.Error("no transient faults injected over 20k cycles at rate 0.02")
	}
	if st.Repaired == 0 && st.HealedByLoad == 0 {
		t.Error("nothing ever recovered")
	}
}

// TestFaultDisabledPathUntouched: without EnableFaults the fabric
// behaves exactly as before — no masks, no stats, healthy everywhere.
func TestFaultDisabledPathUntouched(t *testing.T) {
	f := New(4)
	f.Install(config.DefaultBasis()[0])
	tick(f, 1000)
	if f.FaultsEnabled() {
		t.Error("injector armed without EnableFaults")
	}
	unavail, dead := f.HealthMasks()
	if unavail != 0 || dead != 0 {
		t.Errorf("masks = %08b/%08b, want zero", unavail, dead)
	}
	if st := f.FaultStats(); st != (FaultStats{}) {
		t.Errorf("stats accumulated without faults: %+v", st)
	}
	if got, want := f.EffectiveTotalCounts(), f.Allocation().RFUCounts().Add(config.FFUCounts()); got != want {
		t.Errorf("EffectiveTotalCounts = %v, want %v", got, want)
	}
}

// TestEffectiveTotalCountsMasksFaultyUnits: the CEM demand path sees
// the degraded unit mix, not the configured one.
func TestEffectiveTotalCountsMasksFaultyUnits(t *testing.T) {
	f := New(1)
	f.EnableFaults(fault.Plan{ScrubInterval: 1 << 20})
	f.Install(config.DefaultBasis()[0])

	full := f.EffectiveTotalCounts()
	if total := f.Allocation().RFUCounts().Add(config.FFUCounts()); full != total {
		t.Fatalf("healthy fabric: effective %v != total %v", full, total)
	}
	// Corrupt the head of the first unit; its type count must drop.
	layout := f.Allocation().Slots
	ht, _ := arch.DecodeUnit(layout[0])
	f.InjectFault(0, false)
	degraded := f.EffectiveTotalCounts()
	if degraded[ht] != full[ht]-1 {
		t.Errorf("effective[%v] = %d, want %d", ht, degraded[ht], full[ht]-1)
	}
}

// TestLayoutWordTracksAllocation: through rewrites, installs, faults,
// repairs and salvage, LayoutWord stays the packed allocation vector.
func TestLayoutWordTracksAllocation(t *testing.T) {
	f := New(3)
	f.EnableFaults(fault.Plan{Seed: 5, TransientRate: 0.01, PermanentRate: 0.002, ScrubInterval: 4})
	for cycle := 0; cycle < 5000; cycle++ {
		ty, slot := arch.UnitType(cycle*7%arch.NumUnitTypes), cycle*5%arch.NumRFUSlots
		if cycle%3 == 0 && f.CanReconfigure(ty, slot) {
			f.Reconfigure(ty, slot)
		}
		f.Tick()
		if got, want := f.LayoutWord(), config.PackLayout(f.Allocation().Slots); got != want {
			t.Fatalf("cycle %d: LayoutWord %#x, packed allocation %#x", cycle, got, want)
		}
	}
	if f.FaultStats().DeadSlots == 0 {
		t.Error("no slot died: salvage went unexercised")
	}
}
