package core

import (
	"math"

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

	// Per-cycle scratch buffers, reused across Steps so the hot path
	// does not allocate: kept marks slots claimed by the synthesis pass,
	// unitsScratch holds placement decodes of the current and target
	// layouts.
	kept         [arch.NumRFUSlots]bool
	unitsScratch []config.PlacedUnit

	// plans and synths memoize the two pure functions a Step's target
	// comes from: plan, keyed by the exact demand, and synthesize, keyed
	// by the plan, the live layout and, under hysteresis, the demand.
	// Each synthesis entry keeps the target's placement list, so a
	// cycle whose inputs were seen before costs two lookups and Load.
	plans  [1 << planTableBits]planEntry
	synths [1 << synthTableBits]synthEntry
}

// Geometry of the demand manager's direct-mapped tables and of their
// packed keys. A phase-alternating run visits a few hundred demand
// vectors but thousands of (plan, layout) pairs, since layouts pass
// through many partly reconfigured states: on 60k-instruction programs
// at latencies 4–16, 256 plan lines serve 93% of plans and 4096
// synthesis lines (128 KiB) 80% of syntheses, against 46% at 256.
const (
	planTableBits  = 8
	synthTableBits = 12
	// demandFieldBits is the width of one exact demand count in a key.
	// A count outside [0, 1<<demandFieldBits) bypasses the tables;
	// simulated demand never does, since it is at most the window (64)
	// plus the lookahead's fetch buffer.
	demandFieldBits = 8
	// planFieldBits is the width of one planned count (at most
	// arch.NumRFUSlots) in a packed plan.
	planFieldBits = 4
	planBits      = arch.NumUnitTypes * planFieldBits
	layoutBits    = arch.NumRFUSlots * arch.EncodingBits
)

// planEntry is one line of the plan table.
type planEntry struct {
	key  uint64 // packed demand plus one; zero marks an empty line
	plan uint32 // packPlan of the planned multiset
}

// synthEntry is one line of the synthesis table. key packs the plan
// (bits 0–19), the live layout (bits 20–43) and the hysteresis (from
// bit 44, zero when off), plus one so that zero marks an empty line;
// demand is the packed demand under hysteresis and zero otherwise.
// units holds the target's n placements, each its head slot times 8
// plus its unit type.
type synthEntry struct {
	key, demand uint64
	n           uint8
	units       [arch.NumRFUSlots]uint8
}

// packDemand packs the exact demand counts, demandFieldBits each; exact
// is false when a count does not fit.
func packDemand(required arch.Counts) (key uint64, exact bool) {
	for t, c := range required {
		if uint(c) >= 1<<demandFieldBits {
			return 0, false
		}
		key |= uint64(c) << (uint(t) * demandFieldBits)
	}
	return key, true
}

// packPlan packs a planned multiset, planFieldBits per type.
func packPlan(planned arch.Counts) uint32 {
	var w uint32
	for t, c := range planned {
		w |= uint32(c) << (uint(t) * planFieldBits)
	}
	return w
}

// unpackPlan is packPlan's inverse.
func unpackPlan(w uint32) arch.Counts {
	var planned arch.Counts
	for t := range planned {
		planned[t] = int(w >> (uint(t) * planFieldBits) & (1<<planFieldBits - 1))
	}
	return planned
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
			slot := m.findGap(kept, t, required)
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
// type t may be placed, honouring the hysteresis rule against the live
// units the span overlaps.
func (m *DemandManager) findGap(kept []bool, t arch.UnitType, required arch.Counts) int {
	span := arch.SlotCost(t)
	for start := 0; start+span <= arch.NumRFUSlots; start++ {
		ok := true
		for k := start; k < start+span; k++ {
			if kept[k] {
				ok = false
				break
			}
		}
		if ok && m.Hysteresis > 0 {
			occ := m.fabric.Overlapping((1<<uint(span) - 1) << uint(start))
			for o, n := range occ {
				if n > 0 && required[t]-required[o] < m.Hysteresis {
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

// targetUnits returns the placement list of the layout synthesize
// builds for required on the live fabric, read from the tables when
// their inputs were seen before. The list is valid until the next call.
func (m *DemandManager) targetUnits(required arch.Counts) []config.PlacedUnit {
	demand, exact := packDemand(required)
	if !exact {
		return m.synthesizeUnits(m.plan(required), required)
	}
	pe := &m.plans[tableIndex(demand, planTableBits)]
	if pe.key != demand+1 {
		pe.key, pe.plan = demand+1, packPlan(m.plan(required))
	}
	key := uint64(pe.plan) | uint64(m.fabric.LayoutWord())<<planBits
	var keyDemand uint64
	if h := m.Hysteresis; h > 0 {
		// Counts below 1<<demandFieldBits differ by less than that, so
		// every larger margin acts alike.
		key |= uint64(min(h, 1<<demandFieldBits)) << (planBits + layoutBits)
		keyDemand = demand
	}
	se := &m.synths[tableIndex(key^keyDemand, synthTableBits)]
	if se.key == key+1 && se.demand == keyDemand {
		m.unitsScratch = m.unitsScratch[:se.n]
		for i, u := range se.units[:se.n] {
			t := arch.UnitType(u & 7)
			m.unitsScratch[i] = config.PlacedUnit{Type: t, Slot: int(u >> 3), Span: arch.SlotCost(t)}
		}
		return m.unitsScratch
	}
	units := m.synthesizeUnits(unpackPlan(pe.plan), required)
	se.key, se.demand, se.n = key+1, keyDemand, uint8(len(units))
	for i, u := range units {
		se.units[i] = uint8(u.Slot<<3) | uint8(u.Type)
	}
	return units
}

// synthesizeUnits is synthesize returning the target's placement list,
// held in the manager's scratch buffer.
func (m *DemandManager) synthesizeUnits(planned, required arch.Counts) []config.PlacedUnit {
	target := m.synthesize(planned, required)
	m.unitsScratch = target.AppendUnits(m.unitsScratch[:0])
	return m.unitsScratch
}

// Step performs one cycle of demand-driven management: synthesise a
// target from the tables and partially load it (idle spans only).
func (m *DemandManager) Step(required arch.Counts) {
	if required.Total() == 0 {
		return
	}
	m.fabric.Load(m.targetUnits(required))
}

// Manage adapts the manager to the cpu.Manager interface.
func (m *DemandManager) Manage(required arch.Counts) { m.Step(required) }

// NextEvent reports that the manager has no deadline of its own
// (math.MaxInt): a Step on the same demand and an unchanged fabric
// reads the same target from its tables and loads nothing again.
func (m *DemandManager) NextEvent() int { return math.MaxInt }

// Skip accounts for n repeats of the latest Step, which move nothing
// the manager keeps.
func (m *DemandManager) Skip(int) {}
