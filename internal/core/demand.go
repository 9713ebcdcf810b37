package core

import (
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/rfu"
)

// DemandManager implements the paper's §5 future-work idea: dynamically
// reconfiguring the fabric *without* predefined steering configurations.
// Instead of scoring a fixed basis, every cycle it synthesises a target
// layout directly from the queue's requirement counts — a greedy packing
// that repeatedly adds the unit type with the highest unmet demand per
// already-provided unit until the slots are full — and then loads it with
// the steering manager's partial, idle-only loader (rfu.Fabric.Load).
//
// To avoid thrashing on single-cycle demand noise, the manager only
// replaces an existing unit when the incoming unit's demand benefit
// exceeds the kept unit's by at least Hysteresis demand points.
type DemandManager struct {
	fabric *rfu.Fabric
	// Hysteresis is the minimum per-unit demand advantage a new unit
	// needs before an existing, differently-typed unit is evicted
	// (default 0: pure greedy).
	Hysteresis int

	// Syntheses counts cycles on which a non-trivial target was built.
	Syntheses int
	// Reconfigurations counts span rewrites started.
	Reconfigurations int
	// DeferredSlots counts slot rewrites skipped because spans were
	// busy.
	DeferredSlots int

	// Per-cycle scratch buffers, reused across Steps so the hot path
	// does not allocate: kept marks slots claimed by the synthesis pass,
	// unitsScratch holds placement decodes of the current and target
	// layouts.
	kept         [arch.NumRFUSlots]bool
	unitsScratch []config.PlacedUnit

	// memo remembers the latest Step that started no rewrite: a cycle
	// with the same demand, hysteresis, allocation version and fabric
	// timer masks would synthesise the same target and defer the same
	// slots, so Step replays those counts instead.
	memo demandMemo
}

// demandMemo is DemandManager.Step's one-entry memo.
type demandMemo struct {
	valid      bool
	required   arch.Counts
	hysteresis int
	version    uint64 // fabric allocation version
	timers     uint32 // fabric timer masks
	deferred   int
}

// placeOrder lists unit types largest-span first so multi-slot spans
// find contiguous room during synthesis.
var placeOrder = [arch.NumUnitTypes]arch.UnitType{
	arch.FPMDU, arch.FPALU, arch.IntMDU, arch.LSU, arch.IntALU,
}

// NewDemandManager binds a demand-driven manager to a fabric.
func NewDemandManager(fabric *rfu.Fabric) *DemandManager {
	return &DemandManager{
		fabric:       fabric,
		unitsScratch: make([]config.PlacedUnit, 0, arch.NumRFUSlots),
	}
}

// plan chooses the unit multiset to configure: greedy highest
// demand-per-unit packing into arch.NumRFUSlots slots. FFUs count as one
// pre-provided unit of each type, exactly as the CEM's availability does.
func (m *DemandManager) plan(required arch.Counts) arch.Counts {
	var planned arch.Counts
	provided := config.FFUCounts()
	slotsLeft := arch.NumRFUSlots
	for {
		best := -1
		bestBenefit := 0
		for ti := 0; ti < arch.NumUnitTypes; ti++ {
			t := arch.UnitType(ti)
			if arch.SlotCost(t) > slotsLeft {
				continue
			}
			// Demand still unserved per unit already provided; scaled
			// to keep integer arithmetic exact.
			benefit := required[t] * 8 / (provided[t] + planned[t] + 1) / arch.SlotCost(t)
			if benefit > bestBenefit {
				best, bestBenefit = int(t), benefit
			}
		}
		if best < 0 || bestBenefit == 0 {
			break
		}
		planned[best]++
		slotsLeft -= arch.SlotCost(arch.UnitType(best))
	}
	return planned
}

// synthesize converts the planned multiset into a concrete slot layout,
// keeping existing units that are part of the plan in place so the
// loader's diff — and therefore reconfiguration traffic — is minimal.
func (m *DemandManager) synthesize(planned arch.Counts, required arch.Counts) config.Configuration {
	cur := config.Configuration{Layout: m.fabric.Allocation().Slots}
	target := config.Configuration{Name: "demand"}

	// Keep existing units the plan still wants, at their positions.
	remaining := planned
	m.kept = [arch.NumRFUSlots]bool{}
	kept := m.kept[:]
	m.unitsScratch = cur.AppendUnits(m.unitsScratch[:0])
	for _, u := range m.unitsScratch {
		if remaining[u.Type] > 0 {
			remaining[u.Type]--
			target.Layout[u.Slot] = arch.Encode(u.Type)
			for k := 1; k < u.Span; k++ {
				target.Layout[u.Slot+k] = arch.EncCont
			}
			for k := 0; k < u.Span; k++ {
				kept[u.Slot+k] = true
			}
		}
	}

	// Place the rest, largest units first so multi-slot spans find
	// contiguous room, into leftmost non-kept gaps. With hysteresis, a
	// gap occupied by a live unit is only claimed when the incoming
	// type's demand beats the occupant's by the margin.
	for _, t := range placeOrder {
		for remaining[t] > 0 {
			slot := m.findGap(target.Layout, kept, cur, t, required)
			if slot < 0 {
				break
			}
			target.Layout[slot] = arch.Encode(t)
			for k := 1; k < arch.SlotCost(t); k++ {
				target.Layout[slot+k] = arch.EncCont
			}
			for k := 0; k < arch.SlotCost(t); k++ {
				kept[slot+k] = true
			}
			remaining[t]--
		}
	}
	return target
}

// findGap locates the leftmost span of non-kept slots where a unit of
// type t may be placed, honouring the hysteresis rule against live
// occupants.
func (m *DemandManager) findGap(layout [arch.NumRFUSlots]arch.Encoding, kept []bool,
	cur config.Configuration, t arch.UnitType, required arch.Counts) int {
	span := arch.SlotCost(t)
	for start := 0; start+span <= arch.NumRFUSlots; start++ {
		ok := true
		for k := start; k < start+span; k++ {
			if kept[k] {
				ok = false
				break
			}
			if occ := occupantType(cur, k); occ >= 0 && m.Hysteresis > 0 {
				if required[t]-required[occ] < m.Hysteresis {
					ok = false
					break
				}
			}
		}
		if ok {
			return start
		}
	}
	return -1
}

// occupantType returns the type of the live unit covering slot k, or -1.
// It scans backward from k for the span's head slot instead of decoding
// the whole layout, so it allocates nothing.
func occupantType(cur config.Configuration, k int) int {
	for s := k; s >= 0; s-- {
		e := cur.Layout[s]
		if e == arch.EncEmpty {
			return -1
		}
		if e == arch.EncCont {
			continue
		}
		t, ok := arch.DecodeUnit(e)
		if !ok || k >= s+arch.SlotCost(t) {
			return -1
		}
		return int(t)
	}
	return -1
}

// Target returns the layout the manager would synthesise for the given
// demand — exposed for tests and analysis.
func (m *DemandManager) Target(required arch.Counts) config.Configuration {
	return m.synthesize(m.plan(required), required)
}

// Step performs one cycle of demand-driven management: synthesise a
// target and partially load it (idle spans only). A cycle whose inputs
// equal those of the latest Step that started no rewrite replays its
// counts (see demandMemo); the memo is off on a fabric whose
// reconfiguration answers depend on more than its timer masks.
func (m *DemandManager) Step(required arch.Counts) {
	if required.Total() == 0 {
		return
	}
	timers, plain := m.fabric.TimerMasks()
	version := m.fabric.AllocVersion()
	if memo := &m.memo; memo.valid && plain && required == memo.required &&
		m.Hysteresis == memo.hysteresis && version == memo.version && timers == memo.timers {
		m.Syntheses++
		m.DeferredSlots += memo.deferred
		return
	}
	target := m.synthesize(m.plan(required), required)
	m.Syntheses++
	m.unitsScratch = target.AppendUnits(m.unitsScratch[:0])
	started, _, deferred := m.fabric.Load(m.unitsScratch)
	m.Reconfigurations += started
	m.DeferredSlots += deferred
	memo := &m.memo
	memo.valid = plain && started == 0
	memo.required, memo.hysteresis = required, m.Hysteresis
	memo.version, memo.timers, memo.deferred = version, timers, deferred
}

// Manage adapts the manager to the cpu.Manager interface.
func (m *DemandManager) Manage(required arch.Counts) { m.Step(required) }
