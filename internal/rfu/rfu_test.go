package rfu

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/avail"
	"repro/internal/config"
)

// availabilitySignals builds the per-entry availability lines of Fig. 7
// in allocation-vector order (slots then FFUs) from the fabric's
// per-slot state alone: a head slot is available when its unit is
// configured, idle, not reconfiguring, and every slot of its span is
// healthy and not leased out; continuation and empty slots never are
// (their encodings never match in Eq. 1 anyway); a fixed unit is
// available when idle and enabled.
func availabilitySignals(f *Fabric) []bool {
	out := make([]bool, arch.NumRFUSlots+arch.NumFFUs)
	for i, e := range f.alloc.Slots {
		t, isUnit := arch.DecodeUnit(e)
		if !isUnit || f.busyLeft(i) > 0 || f.reconfigLeft(i) > 0 {
			continue
		}
		out[i] = true
		for k := i; k < i+arch.SlotCost(t); k++ {
			if f.health[k] != HealthHealthy || f.extUnavail&(1<<uint(k)) != 0 {
				out[i] = false
			}
		}
	}
	for i := 0; i < arch.NumFFUs; i++ {
		out[arch.NumRFUSlots+i] = f.ffuLeft(i) == 0 && !f.ffuDisabled
	}
	return out
}

// busyLeft, reconfigLeft and ffuLeft are the countdowns the fabric's
// deadlines encode: the cycles left on slot s's execution or
// reconfiguration timer, or on fixed unit i's execution timer.
func (f *Fabric) busyLeft(s int) int     { return max(f.due[busyTimer+s]-f.now, 0) }
func (f *Fabric) reconfigLeft(s int) int { return max(f.due[reconfigTimer+s]-f.now, 0) }
func (f *Fabric) ffuLeft(i int) int      { return max(f.due[ffuTimer+i]-f.now, 0) }

// available reads type t's line of the fabric's AvailableSet.
func available(f *Fabric, t arch.UnitType) bool { return f.AvailableSet()&(1<<uint(t)) != 0 }

// unitBusy reports whether the referenced unit is still executing.
func unitBusy(f *Fabric, r UnitRef) bool {
	if r.FFU {
		return f.ffuLeft(r.Idx) > 0
	}
	return f.busyLeft(r.Idx) > 0
}

// availableCount counts the units of type t that can accept work, by
// the reference Eq. 1 over availabilitySignals.
func availableCount(f *Fabric, t arch.UnitType) int {
	return avail.Count(t, f.Allocation().Entries(), availabilitySignals(f))
}

func TestNewFabricIsEmptyButFFUsServeAllTypes(t *testing.T) {
	f := New(4)
	if got := f.Allocation().RFUCounts(); got != (arch.Counts{}) {
		t.Errorf("fresh fabric RFU counts = %v", got)
	}
	for _, ty := range arch.UnitTypes() {
		if !available(f, ty) {
			t.Errorf("%v unavailable on fresh fabric despite its FFU", ty)
		}
		if availableCount(f, ty) != 1 {
			t.Errorf("AvailableCount(%v) = %d, want 1 (the FFU)", ty, availableCount(f, ty))
		}
	}
}

func TestNewPanicsOnNegativeLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(-1)
}

func TestAcquirePrefersFFU(t *testing.T) {
	f := New(0)
	f.Reconfigure(arch.IntALU, 0)
	ref, ok := f.Acquire(arch.IntALU, 3)
	if !ok || !ref.FFU {
		t.Fatalf("first acquire = %v, want the FFU", ref)
	}
	ref2, ok := f.Acquire(arch.IntALU, 3)
	if !ok || ref2.FFU || ref2.Idx != 0 {
		t.Fatalf("second acquire = %v, want RFU slot 0", ref2)
	}
	if _, ok := f.Acquire(arch.IntALU, 3); ok {
		t.Error("third acquire succeeded with both units busy")
	}
}

func TestAcquireBusyCountdown(t *testing.T) {
	f := New(0)
	ref, _ := f.Acquire(arch.FPMDU, 2)
	if !unitBusy(f, ref) {
		t.Fatal("unit not busy after acquire")
	}
	if available(f, arch.FPMDU) {
		t.Fatal("type available while its only unit is busy")
	}
	f.Tick()
	if !unitBusy(f, ref) {
		t.Fatal("unit freed one cycle early")
	}
	f.Tick()
	if unitBusy(f, ref) {
		t.Fatal("unit still busy after its time")
	}
	if !available(f, arch.FPMDU) {
		t.Fatal("type unavailable after unit freed")
	}
}

func TestExtendBusy(t *testing.T) {
	f := New(0)
	ref, _ := f.Acquire(arch.LSU, 1)
	f.ExtendBusy(ref, 2)
	f.Tick()
	f.Tick()
	if !unitBusy(f, ref) {
		t.Fatal("extension not applied")
	}
	f.Tick()
	if unitBusy(f, ref) {
		t.Fatal("unit busy past extended time")
	}
}

func TestExtendBusyPanicsOnIdle(t *testing.T) {
	f := New(0)
	defer func() {
		if recover() == nil {
			t.Error("no panic on idle extension")
		}
	}()
	f.ExtendBusy(UnitRef{FFU: true, Idx: 0}, 1)
}

func TestReconfigureInstallsAfterLatency(t *testing.T) {
	const lat = 3
	f := New(lat)
	if !f.Reconfigure(arch.IntMDU, 2) {
		t.Fatal("reconfiguration refused on empty fabric")
	}
	if f.ReconfiguringSlots() == 0 {
		t.Fatal("fabric not reconfiguring")
	}
	for i := 0; i < lat; i++ {
		if availableCount(f, arch.IntMDU) != 1 { // only the FFU
			t.Fatalf("cycle %d: RFU IntMDU visible before reconfiguration completes", i)
		}
		f.Tick()
	}
	if f.ReconfiguringSlots() > 0 {
		t.Fatal("still reconfiguring after latency elapsed")
	}
	v := f.Allocation()
	if v.Slots[2] != arch.EncIntMDU || v.Slots[3] != arch.EncCont {
		t.Fatalf("allocation after reconfig = %v", v)
	}
	if availableCount(f, arch.IntMDU) != 2 {
		t.Errorf("AvailableCount = %d, want FFU + new RFU", availableCount(f, arch.IntMDU))
	}
}

func TestReconfigureZeroLatencyIsImmediate(t *testing.T) {
	f := New(0)
	f.Reconfigure(arch.FPALU, 5)
	if f.Allocation().Slots[5] != arch.EncFPALU {
		t.Fatal("zero-latency reconfiguration not immediate")
	}
	if availableCount(f, arch.FPALU) != 2 {
		t.Fatal("new unit not available immediately")
	}
}

// TestReconfigureSkipsMatchingUnit pins §3.2: an RFU already implementing
// the specified unit is not rewritten.
func TestReconfigureSkipsMatchingUnit(t *testing.T) {
	f := New(0)
	if !f.Reconfigure(arch.LSU, 4) {
		t.Fatal("first reconfiguration refused")
	}
	n := f.Reconfigurations()
	if f.Reconfigure(arch.LSU, 4) {
		t.Error("matching unit was rewritten")
	}
	if f.Reconfigurations() != n {
		t.Error("skip still counted as a reconfiguration")
	}
}

// TestBusyUnitCannotBeReconfigured pins the paper's core rule: an RFU
// executing a multicycle instruction is not reconfigured until it
// retires.
func TestBusyUnitCannotBeReconfigured(t *testing.T) {
	f := New(0)
	f.Reconfigure(arch.IntALU, 0)
	// Occupy the FFU first, then the RFU.
	f.Acquire(arch.IntALU, 5)
	ref, _ := f.Acquire(arch.IntALU, 5)
	if ref.FFU {
		t.Fatal("setup: expected the RFU instance")
	}
	if f.CanReconfigure(arch.LSU, 0) {
		t.Fatal("busy slot reported reconfigurable")
	}
	// After the instruction drains the slot becomes eligible again.
	for i := 0; i < 5; i++ {
		f.Tick()
	}
	if !f.CanReconfigure(arch.LSU, 0) {
		t.Fatal("idle slot not reconfigurable")
	}
}

func TestCanReconfigureChecksWholeOverlappedUnit(t *testing.T) {
	f := New(0)
	f.Reconfigure(arch.FPALU, 0) // spans slots 0-2
	f.Acquire(arch.FPALU, 4)     // FFU
	ref, _ := f.Acquire(arch.FPALU, 4)
	if ref.FFU {
		t.Fatal("setup: expected the RFU FPALU")
	}
	// Slot 2 is a continuation of the busy FPALU: replacing it must be
	// refused even though slot 2 itself carries no busy counter.
	if f.CanReconfigure(arch.IntALU, 2) {
		t.Error("continuation slot of a busy unit reported reconfigurable")
	}
}

func TestCanReconfigureBounds(t *testing.T) {
	f := New(0)
	if f.CanReconfigure(arch.FPMDU, arch.NumRFUSlots-2) {
		t.Error("span overrunning the fabric accepted")
	}
	if f.CanReconfigure(arch.IntALU, arch.NumRFUSlots) {
		t.Error("slot index beyond fabric accepted")
	}
	if !f.CanReconfigure(arch.FPMDU, arch.NumRFUSlots-3) {
		t.Error("legal edge span refused")
	}
}

func TestReconfigureDestroysOverlappedUnitWhole(t *testing.T) {
	f := New(0)
	f.Reconfigure(arch.FPMDU, 0) // spans 0-2
	f.Reconfigure(arch.IntALU, 1)
	v := f.Allocation()
	if v.Slots[0] != arch.EncEmpty {
		t.Errorf("slot 0 = %v, want empty (old unit removed whole)", v.Slots[0])
	}
	if v.Slots[1] != arch.EncIntALU {
		t.Errorf("slot 1 = %v, want IntALU", v.Slots[1])
	}
	if v.Slots[2] != arch.EncEmpty {
		t.Errorf("slot 2 = %v, want empty", v.Slots[2])
	}
	if err := (config.Configuration{Layout: v.Slots}).Validate(); err != nil {
		t.Errorf("allocation vector structurally invalid: %v", err)
	}
}

func TestReconfigurePanicsWhenIllegal(t *testing.T) {
	f := New(0)
	f.Reconfigure(arch.IntALU, 0)
	f.Acquire(arch.IntALU, 5)
	f.Acquire(arch.IntALU, 5) // RFU busy
	defer func() {
		if recover() == nil {
			t.Error("no panic on illegal reconfiguration")
		}
	}()
	f.Reconfigure(arch.LSU, 0)
}

func TestMidReconfigSlotBlocksNewReconfig(t *testing.T) {
	f := New(5)
	f.Reconfigure(arch.IntMDU, 0) // slots 0-1 reconfiguring
	if f.CanReconfigure(arch.IntALU, 1) {
		t.Error("mid-reconfiguration slot reported reconfigurable")
	}
	if !f.CanReconfigure(arch.IntALU, 2) {
		t.Error("unrelated slot blocked")
	}
}

func TestLoadFullConfiguration(t *testing.T) {
	f := New(0)
	cfg := config.DefaultBasis()[0]
	for _, u := range cfg.Units() {
		if !f.CanReconfigure(u.Type, u.Slot) {
			t.Fatalf("cannot place %v at slot %d", u.Type, u.Slot)
		}
		f.Reconfigure(u.Type, u.Slot)
	}
	if f.Allocation().Slots != cfg.Layout {
		t.Errorf("loaded layout %v != configuration %v", f.Allocation().Slots, cfg.Layout)
	}
	want := cfg.Counts().Add(config.FFUCounts())
	if got := f.Allocation().RFUCounts().Add(config.FFUCounts()); got != want {
		t.Errorf("TotalCounts = %v, want %v", got, want)
	}
}

// TestLoadSkipsDefersAndStarts pins the loader's three outcomes: a unit
// already in place is skipped, a busy span is deferred with its slot
// count, and an idle differing span starts with its loading count.
func TestLoadSkipsDefersAndStarts(t *testing.T) {
	f := New(4)
	f.Install(config.MustNew("live", arch.IntALU, arch.IntMDU))
	f.Acquire(arch.IntMDU, 10) // FFU
	if ref, _ := f.Acquire(arch.IntMDU, 10); ref.FFU {
		t.Fatal("setup: expected the RFU IntMDU")
	}
	units := []config.PlacedUnit{
		{Type: arch.IntALU, Slot: 0, Span: 1}, // present
		{Type: arch.FPALU, Slot: 1, Span: 3},  // overlaps the busy IntMDU
		{Type: arch.IntMDU, Slot: 4, Span: 2}, // idle, empty slots
	}
	started, loading, deferred := f.Load(units)
	if started != 1 || loading != 2 || deferred != 3 {
		t.Errorf("Load = (%d, %d, %d), want (1, 2, 3)", started, loading, deferred)
	}
	if f.Reconfigurations() != 1 {
		t.Errorf("Reconfigurations = %d, want 1", f.Reconfigurations())
	}
	if f.ReconfiguringSlots() != 2 {
		t.Errorf("ReconfiguringSlots = %d, want the new IntMDU's 2", f.ReconfiguringSlots())
	}
	if got := f.Allocation().Slots[0]; got != arch.EncIntALU {
		t.Errorf("slot 0 = %v, want the untouched IntALU", got)
	}
}

func TestStatisticsCounters(t *testing.T) {
	f := New(2)
	f.Reconfigure(arch.IntMDU, 0) // 2 slots * 2 cycles
	if f.Reconfigurations() != 1 {
		t.Errorf("Reconfigurations = %d", f.Reconfigurations())
	}
	if f.ReconfigurationCycles() != 4 {
		t.Errorf("ReconfigurationCycles = %d, want 4", f.ReconfigurationCycles())
	}
	f.Tick()
	f.Tick()
	f.Acquire(arch.IntALU, 3)
	f.Tick()
	f.Tick()
	f.Tick()
	if f.BusyCycles() != 3 {
		t.Errorf("BusyCycles = %d, want 3", f.BusyCycles())
	}
}

// TestAllocationAlwaysStructurallyValid is a property test: under random
// legal operations the allocation vector never becomes malformed
// (orphan continuations, overrunning spans).
func TestAllocationAlwaysStructurallyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := New(rng.Intn(4))
	for step := 0; step < 20000; step++ {
		switch rng.Intn(3) {
		case 0:
			ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
			slot := rng.Intn(arch.NumRFUSlots)
			if f.CanReconfigure(ty, slot) {
				f.Reconfigure(ty, slot)
			}
		case 1:
			ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
			f.Acquire(ty, 1+rng.Intn(5))
		case 2:
			f.Tick()
		}
		layout := config.Configuration{Layout: f.Allocation().Slots}
		if err := layout.Validate(); err != nil {
			t.Fatalf("step %d: allocation vector invalid: %v", step, err)
		}
	}
}

// TestForwardProgressGuarantee pins §3.2's closing argument: because the
// FFUs implement every unit type, every type is eventually available no
// matter what the reconfigurable fabric is doing.
func TestForwardProgressGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := New(3)
	for step := 0; step < 2000; step++ {
		ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
		slot := rng.Intn(arch.NumRFUSlots)
		if f.CanReconfigure(ty, slot) {
			f.Reconfigure(ty, slot)
		}
		f.Acquire(arch.UnitType(rng.Intn(arch.NumUnitTypes)), 1+rng.Intn(3))
		f.Tick()
	}
	// Drain all execution, leave reconfigurations running: every type
	// must become available within a bounded number of cycles.
	for i := 0; i < 50; i++ {
		f.Tick()
	}
	for _, ty := range arch.UnitTypes() {
		if !available(f, ty) {
			t.Errorf("%v not available after drain: FFU guarantee violated", ty)
		}
	}
}

// TestConfigBusWidthSerialisesReconfiguration: with a width-1 bus only
// one span may reconfigure at a time.
func TestConfigBusWidthSerialisesReconfiguration(t *testing.T) {
	f := New(4)
	f.SetConfigBusWidth(1)
	if !f.CanReconfigure(arch.IntALU, 0) {
		t.Fatal("idle fabric refused first reconfiguration")
	}
	f.Reconfigure(arch.IntALU, 0)
	if f.CanReconfigure(arch.IntALU, 1) {
		t.Error("second span accepted while the bus is busy")
	}
	// The bus frees when the first span completes.
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if !f.CanReconfigure(arch.IntALU, 1) {
		t.Error("bus still busy after the span completed")
	}
	// Width 2 allows two concurrent spans but not three.
	g := New(4)
	g.SetConfigBusWidth(2)
	g.Reconfigure(arch.IntALU, 0)
	g.Reconfigure(arch.IntALU, 1)
	if g.CanReconfigure(arch.IntALU, 2) {
		t.Error("third span accepted on a width-2 bus")
	}
}

func TestConfigBusWidthZeroIsUnlimited(t *testing.T) {
	f := New(4)
	for s := 0; s < 4; s++ {
		if !f.CanReconfigure(arch.IntALU, s) {
			t.Fatalf("span %d refused with unlimited bus", s)
		}
		f.Reconfigure(arch.IntALU, s)
	}
}

func TestSetConfigBusWidthPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(0).SetConfigBusWidth(-1)
}

// TestFabricAvailabilityMatchesEquation1 proves the fabric's
// allocation-free AvailableSet equals the reference Eq. 1 implementation
// in package avail over randomized live fabrics with faults and leased
// slots, its signals built from per-slot state (availabilitySignals).
func TestFabricAvailabilityMatchesEquation1(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 3000; trial++ {
		f := New(rng.Intn(3))
		if rng.Intn(4) == 0 {
			f.SetFFUsEnabled(false)
		}
		for step := 0; step < 10; step++ {
			switch rng.Intn(5) {
			case 0:
				ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
				slot := rng.Intn(arch.NumRFUSlots)
				if f.CanReconfigure(ty, slot) {
					f.Reconfigure(ty, slot)
				}
			case 1:
				f.Acquire(arch.UnitType(rng.Intn(arch.NumUnitTypes)), 1+rng.Intn(4))
			case 2:
				f.Tick()
			case 3:
				f.InjectFault(rng.Intn(arch.NumRFUSlots), rng.Intn(3) == 0)
			case 4:
				leased := uint8(rng.Intn(256) & rng.Intn(256))
				f.SetExternalMasks(leased, leased&uint8(rng.Intn(256)))
			}
		}
		alloc := f.Allocation().Entries()
		sigs := availabilitySignals(f)
		got := f.AvailableSet()
		for _, ty := range arch.UnitTypes() {
			if bit, want := got&(1<<uint(ty)) != 0, avail.Available(ty, alloc, sigs); bit != want {
				t.Fatalf("trial %d: AvailableSet bit %v = %v, reference %v", trial, ty, bit, want)
			}
		}
	}
}

// TestOverlapping: the covering-unit query counts every unit whose span
// meets the slots, continuations included, and nothing for empty slots.
func TestOverlapping(t *testing.T) {
	f := New(0)
	f.Install(config.MustNew("t", arch.IntMDU, arch.LSU)) // IntMDU 0-1, LSU 2
	for _, tc := range []struct {
		m    uint16
		want arch.Counts
	}{
		{1 << 0, arch.Counts{arch.IntMDU: 1}},
		{1 << 1, arch.Counts{arch.IntMDU: 1}},
		{1 << 2, arch.Counts{arch.LSU: 1}},
		{1 << 5, arch.Counts{}},
		{0b110, arch.Counts{arch.IntMDU: 1, arch.LSU: 1}},
	} {
		if got := f.Overlapping(tc.m); got != tc.want {
			t.Errorf("Overlapping(%08b) = %v, want %v", tc.m, got, tc.want)
		}
	}
}

func TestUnitRefString(t *testing.T) {
	if got := (UnitRef{FFU: true, Idx: 2}).String(); got != "FFU(LSU)" {
		t.Errorf("FFU ref String = %q", got)
	}
	if got := (UnitRef{Idx: 5}).String(); got != "RFU(slot 5)" {
		t.Errorf("RFU ref String = %q", got)
	}
}
