// Package hwcost records every circuit the paper presents — the CEM
// generator of Fig. 3(b), the full four-stage selection unit of Fig. 2,
// the wake-up row logic of Fig. 6 and the availability circuit of Fig. 7
// — as a gate-level netlist and reports its hardware cost: gate counts
// and critical-path depth. This quantifies the paper's "fast and
// efficient configuration selection circuit" claim.
//
// The package holds no circuit of its own: each function declares the
// circuit's inputs and constants and records the description owned by
// cem, core, wakeup or avail — the one the equivalence tests evaluate.
package hwcost

import (
	"repro/internal/arch"
	"repro/internal/avail"
	"repro/internal/cem"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/wakeup"
)

// CEMGenerator records cem.Generator: five 3-bit barrel shifters (2
// control bits each) feeding a 3-bit five-operand saturating adder
// (Fig. 3(b)).
func CEMGenerator() logic.Cost {
	n := logic.NewNetlist("CEM generator (Fig. 3b)")
	var required [arch.NumUnitTypes][arch.CountBits]logic.Wire
	var shift [arch.NumUnitTypes][2]logic.Wire
	for t := range required {
		n.Inputs(required[t][:])
		n.Inputs(shift[t][:])
	}
	cem.Generator(n, required, shift)
	return n.Cost()
}

// ShiftControl records cem.ShiftControl, the Fig. 3(c) control
// derivation for one type: s1 = q2, s0 = NOT(q2) AND q1.
func ShiftControl() logic.Cost {
	n := logic.NewNetlist("shift control (Fig. 3c)")
	var q [arch.CountBits]logic.Wire
	n.Inputs(q[:])
	cem.ShiftControl(n, q)
	return n.Cost()
}

// RequirementEncoder records core.RequirementEncoder, stage 2 of the
// selection unit for one unit type: a count of the seven one-hot decoder
// lines, producing the 3-bit requirement count.
func RequirementEncoder() logic.Cost {
	n := logic.NewNetlist("requirement encoder (one type)")
	var lines [arch.QueueSize]logic.Wire
	n.Inputs(lines[:])
	core.RequirementEncoder(n, lines)
	return n.Cost()
}

// MinimalErrorSelector records core.Selector, stage 4: a comparator
// chain over four 9-bit keys (3-bit error, 4-bit distance, 2-bit
// hard-wired index) keeping the minimum and its 2-bit index.
func MinimalErrorSelector() logic.Cost {
	n := logic.NewNetlist("minimal error selector (stage 4)")
	var keys [arch.NumConfigs][core.KeyBits]logic.Wire
	for i := range keys {
		n.Inputs(keys[i][core.IndexBits:])
	}
	core.Selector(n, keys)
	return n.Cost()
}

// SelectionUnit records core.SelectionCircuit, the whole Fig. 2 pipeline
// as one combinational netlist: five requirement encoders, four CEM
// generators (the current configuration's with live shift-control
// logic, the predefined ones hard-wired) and the minimal-error selector.
func SelectionUnit() logic.Cost {
	n := logic.NewNetlist("selection unit (Fig. 2, stages 2-4)")
	var in core.SelectionInputs
	for t := range in.Lines {
		n.Inputs(in.Lines[t][:])
		n.Inputs(in.Quantity[t][:])
	}
	// The predefined configurations' divisors are tied off; their
	// values do not change the cost.
	for i := range in.Shift {
		for t := range in.Shift[i] {
			in.Shift[i][t] = [2]logic.Wire{n.Const(false), n.Const(false)}
		}
	}
	for i := range in.Distance {
		n.Inputs(in.Distance[i][:])
	}
	core.SelectionCircuit(n, &in)
	return n.Cost()
}

// WakeupRow records wakeup.RowCircuit, the Fig. 6 request logic for one
// wake-up array row: resource columns, entry columns, and the
// scheduled-bit gate.
func WakeupRow() logic.Cost {
	n := logic.NewNetlist("wake-up row (Fig. 6)")
	wakeupRow(n)
	return n.Cost()
}

// WakeupArray records the full seven-row array's request logic.
func WakeupArray() logic.Cost {
	n := logic.NewNetlist("wake-up array request logic (7 rows)")
	for row := 0; row < arch.QueueSize; row++ {
		wakeupRow(n)
	}
	return n.Cost()
}

// wakeupRow records one seven-entry row of the wake-up array into n.
func wakeupRow(n *logic.Netlist) {
	var unitNeeded, unitAvail [arch.NumUnitTypes]logic.Wire
	var depNeeded, depResultOK [arch.QueueSize]logic.Wire
	n.Inputs(unitNeeded[:])
	n.Inputs(unitAvail[:])
	n.Inputs(depNeeded[:])
	n.Inputs(depResultOK[:])
	wakeup.RowCircuit(n, unitNeeded, unitAvail, depNeeded[:], depResultOK[:], n.Input())
}

// Availability records avail.Circuit, Fig. 7 for one unit type over the
// full 13-entry allocation vector (8 slots + 5 FFUs): per entry a 3-bit
// equality comparator ANDed with the availability signal, OR-reduced.
func Availability() logic.Cost {
	n := logic.NewNetlist("availability circuit (Fig. 7, one type)")
	var want [arch.EncodingBits]logic.Wire
	var entries [arch.NumRFUSlots + arch.NumFFUs][arch.EncodingBits]logic.Wire
	var availability [arch.NumRFUSlots + arch.NumFFUs]logic.Wire
	n.Inputs(want[:])
	for i := range entries {
		n.Inputs(entries[i][:])
	}
	n.Inputs(availability[:])
	avail.Circuit(n, want, entries[:], availability[:])
	return n.Cost()
}

// All returns the cost of every paper circuit, in presentation order.
func All() []logic.Cost {
	return []logic.Cost{
		ShiftControl(),
		CEMGenerator(),
		RequirementEncoder(),
		MinimalErrorSelector(),
		SelectionUnit(),
		WakeupRow(),
		WakeupArray(),
		Availability(),
	}
}
