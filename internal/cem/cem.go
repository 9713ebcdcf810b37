// Package cem implements the configuration error metric of §3.1 and
// Figure 3. The metric scores how well a candidate configuration's unit
// mix matches the unit requirements of the instructions waiting in the
// queue: for each unit type the required count is divided —
// approximately, by a barrel shifter — by the candidate's available count,
// and the five quotients are summed by 3-bit adders. Lower is better.
//
// Three forms are provided:
//
//   - Error: the behavioural shifter-approximate metric the selection
//     unit uses (Fig. 3(a)+(c) semantics),
//   - ErrorExact: the "more accurate divider circuit" the paper mentions
//     as a costlier alternative, used for the ablation study,
//   - CircuitError: an evaluation of Generator, the gate-level Fig. 3(b)
//     circuit (the same description internal/hwcost records for its
//     cost), proven equivalent to Error by exhaustive tests.
package cem

import (
	"repro/internal/arch"
	"repro/internal/logic"
)

// Shift returns the Fig. 3(c) shift amount for an availability count: the
// divisor is 4 when at least four units are available (high-order quantity
// bit set), 2 when two or three are (next bit set), and 1 otherwise. The
// count is taken as a 3-bit quantity, as in the hardware.
func Shift(avail int) uint {
	q := uint(avail) & 0x7
	switch {
	case q>>2&1 == 1:
		return 2
	case q>>1&1 == 1:
		return 1
	default:
		return 0
	}
}

// clamp3 folds a count into the 3-bit range the circuit carries.
func clamp3(v int) int {
	if v < 0 {
		return 0
	}
	if v > 7 {
		return 7
	}
	return v
}

// Contribution returns one unit type's term of the error metric: the
// required count divided by the shifter-approximated available count.
func Contribution(required, available int) int {
	return clamp3(required) >> Shift(available)
}

// Error computes the behavioural configuration error metric: the sum over
// unit types of Contribution(required[t], available[t]). With at most
// seven queued instructions the sum fits in three bits (§3.1); the
// returned value is saturated to 7 to match the hardware's width for
// out-of-spec inputs.
func Error(required, available arch.Counts) int {
	sum := 0
	for t := range required {
		sum += Contribution(required[t], available[t])
	}
	return clamp3(sum)
}

// ErrorExact is the precise-divider variant the paper notes could replace
// the shifters "at the expense of increased complexity and latency": each
// term is floor(required/available), with an unavailable type (zero
// units) contributing the full required count, mirroring the shifter
// path's divide-by-1 behaviour.
func ErrorExact(required, available arch.Counts) int {
	sum := 0
	for t := range required {
		sum += ExactContribution(required[t], available[t])
	}
	return clamp3(sum)
}

// ExactContribution returns one unit type's term of ErrorExact: the
// required count divided by the available count, or the whole required
// count when at most one unit is available.
func ExactContribution(required, available int) int {
	req := clamp3(required)
	if available <= 1 {
		return req
	}
	return req / available
}

// ShiftControl is the Fig. 3(c) wiring for one unit type: it derives
// the two barrel-shifter control bits from the 3-bit availability
// quantity q. s1 is the high-order quantity bit; s0 is the next
// lower-order bit gated off when s1 is set.
func ShiftControl(n *logic.Netlist, q [arch.CountBits]logic.Wire) (shift [2]logic.Wire) {
	return [2]logic.Wire{n.And2(n.Not(q[2]), q[1]), q[2]}
}

// Generator is the Fig. 3(b) CEM generator: one barrel shifter per unit
// type divides the 3-bit requirement count by the power of two its
// control bits select, and 3-bit saturating adders sum the five
// quotients into the 3-bit error metric. For the three predefined
// configurations the control bits are hard-wired constants; for the
// current configuration they come live from ShiftControl — both cases
// route through the same network.
func Generator(n *logic.Netlist, required [arch.NumUnitTypes][arch.CountBits]logic.Wire,
	shift [arch.NumUnitTypes][2]logic.Wire) [arch.CountBits]logic.Wire {
	sum := required[0]
	n.BarrelShiftRight(sum[:], sum[:], shift[0][:])
	for t := 1; t < arch.NumUnitTypes; t++ {
		term := required[t]
		n.BarrelShiftRight(term[:], term[:], shift[t][:])
		n.SaturatingAdder(sum[:], sum[:], term[:])
	}
	return sum
}

// CircuitError evaluates Generator, its control bits driven by
// ShiftControl of the availability quantities: the gate-level form of
// Error.
func CircuitError(required, available arch.Counts) int {
	var req [arch.NumUnitTypes][arch.CountBits]logic.Wire
	var shift [arch.NumUnitTypes][2]logic.Wire
	for t := range required {
		var q [arch.CountBits]logic.Wire
		logic.SetUint(req[t][:], uint64(clamp3(required[t])))
		logic.SetUint(q[:], uint64(available[t]))
		shift[t] = ShiftControl(logic.Eval, q)
	}
	sum := Generator(logic.Eval, req, shift)
	return int(logic.Uint(sum[:]))
}
