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
//   - CircuitError: the gate-level reconstruction of Fig. 3(b) built from
//     package logic primitives, proven equivalent to Error by exhaustive
//     tests.
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

// ShiftControl derives the two barrel-shifter control bits from a 3-bit
// availability quantity exactly as Fig. 3(c) wires them: s1 is the
// high-order quantity bit; s0 is the next lower-order bit gated off when
// s1 is set.
func ShiftControl(avail int) logic.Bus {
	ctl := make(logic.Bus, 2)
	ShiftControlInto(ctl, avail)
	return ctl
}

// ShiftControlInto writes the two ShiftControl bits into dst (which must
// have length 2) without allocating.
func ShiftControlInto(dst logic.Bus, avail int) {
	var qBits [arch.CountBits]logic.Bit
	q := logic.Bus(qBits[:])
	q.SetUint(uint64(avail) & 0x7)
	dst[0] = logic.And(logic.Not(q[2]), q[1])
	dst[1] = q[2]
}

// CircuitError is the gate-level CEM generator of Fig. 3(b): five barrel
// shifters (one per unit type) whose control inputs come from
// ShiftControl of the availability quantities, feeding a 3-bit five-
// operand saturating adder tree. For the three predefined configurations
// the control inputs are hard-wired constants; for the current
// configuration they are live — both cases route through the same
// network.
func CircuitError(required, available arch.Counts) int {
	// Fixed-size stacks of bits stand in for the freshly allocated buses
	// of the naive formulation; saturating accumulation applied left to
	// right is equivalent to the balanced tree because min(·,7) over
	// non-negative addends is associative in the total.
	var accBits, termBits [arch.CountBits]logic.Bit
	var ctlBits [2]logic.Bit
	acc := logic.Bus(accBits[:])
	term := logic.Bus(termBits[:])
	ctl := logic.Bus(ctlBits[:])
	for t := range required {
		term.SetUint(uint64(clamp3(required[t])))
		ShiftControlInto(ctl, available[t])
		logic.BarrelShiftRightInto(term, term, ctl)
		if t == 0 {
			copy(acc, term)
		} else {
			logic.SaturatingAdderInto(acc, acc, term)
		}
	}
	return int(acc.Uint())
}
