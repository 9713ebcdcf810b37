// Package avail implements the resource-availability computation of §4.2:
// Equation 1 and the circuit of Figure 7. A functional unit of type t is
// available when some entry of the resource allocation vector carries t's
// encoding and that entry's availability signal is asserted. Continuation
// slots of multi-slot units carry arch.EncCont and therefore never match,
// so a multi-slot unit is counted exactly once — through its head slot.
//
// Both a behavioural form (Available) and the gate-level circuit of
// Fig. 7 (Circuit, evaluated by CircuitAvailable and costed by
// internal/hwcost) are provided; tests prove them equivalent.
package avail

import (
	"repro/internal/arch"
	"repro/internal/logic"
)

// Available evaluates Equation 1: it reports whether a unit of type t is
// available given the allocation vector entries and the per-entry
// availability signals. The two slices must have equal length (one entry
// per reconfigurable slot followed by one per fixed unit); mismatched
// lengths panic, as that is a wiring error.
func Available(t arch.UnitType, alloc []arch.Encoding, availability []bool) bool {
	if len(alloc) != len(availability) {
		panic("avail: allocation vector and availability signals differ in length")
	}
	want := arch.Encode(t)
	for i, e := range alloc {
		if e == want && availability[i] {
			return true
		}
	}
	return false
}

// Count returns how many units of type t are currently available — the
// multi-unit generalisation the scheduler's grant logic needs when
// several instructions request the same type in one cycle.
func Count(t arch.UnitType, alloc []arch.Encoding, availability []bool) int {
	if len(alloc) != len(availability) {
		panic("avail: allocation vector and availability signals differ in length")
	}
	want := arch.Encode(t)
	n := 0
	for i, e := range alloc {
		if e == want && availability[i] {
			n++
		}
	}
	return n
}

// AllAvailable evaluates Available for every unit type at once, the form
// the wake-up array consumes each cycle.
func AllAvailable(alloc []arch.Encoding, availability []bool) [arch.NumUnitTypes]bool {
	var out [arch.NumUnitTypes]bool
	for _, t := range arch.UnitTypes() {
		out[t] = Available(t, alloc, availability)
	}
	return out
}

// vectorLen is the length of the machine's allocation vector: every RFU
// slot and every FFU. Circuits over vectors up to this long evaluate
// without allocating.
const vectorLen = arch.NumRFUSlots + arch.NumFFUs

// Circuit is Fig. 7 for one unit type: for each allocation-vector
// entry, a 3-bit equality comparator between the entry's encoding and
// want feeds an AND with the entry's availability signal; an OR tree
// over all product terms produces available(t).
func Circuit(n *logic.Netlist, want [arch.EncodingBits]logic.Wire,
	entries [][arch.EncodingBits]logic.Wire, availability []logic.Wire) logic.Wire {
	if len(entries) != len(availability) {
		panic("avail: allocation vector and availability signals differ in length")
	}
	var buf [vectorLen]logic.Wire
	products := buf[:0]
	for i := range entries {
		products = append(products, n.And2(n.Equal(entries[i][:], want[:]), availability[i]))
	}
	return n.Or(products...)
}

// CircuitAvailable evaluates Circuit for type t: the gate-level form of
// Available.
func CircuitAvailable(t arch.UnitType, alloc []arch.Encoding, availability []bool) bool {
	if len(alloc) != len(availability) {
		panic("avail: allocation vector and availability signals differ in length")
	}
	var want [arch.EncodingBits]logic.Wire
	logic.SetUint(want[:], uint64(arch.Encode(t)))
	var entryBuf [vectorLen][arch.EncodingBits]logic.Wire
	var sigBuf [vectorLen]logic.Wire
	entries, sigs := entryBuf[:0], sigBuf[:0]
	for i, e := range alloc {
		var entry [arch.EncodingBits]logic.Wire
		logic.SetUint(entry[:], uint64(e))
		entries = append(entries, entry)
		sigs = append(sigs, logic.Level(availability[i]))
	}
	return Circuit(logic.Eval, want, entries, sigs) == 1
}
