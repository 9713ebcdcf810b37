// Package logic describes combinational circuits once, as Go functions
// over one gate builder (Netlist), so that the same description is both
// evaluated on logic levels and recorded as a costed netlist. The
// paper's circuits — the selection unit of Fig. 2, the configuration
// error metric generator of Fig. 3, the wake-up row logic of Fig. 6 and
// the availability circuit of Fig. 7 — are written this way in the
// packages that own their behavioural forms; this package supplies the
// gates and the composites they share: balanced AND/OR reductions,
// ripple-carry and saturating adders, barrel shifters and comparators.
//
// The simulator proper uses fast behavioural equivalents; evaluating the
// circuit descriptions lets tests prove circuit == behaviour
// exhaustively, and recording them yields the hardware-cost table
// (internal/hwcost), so the table is derived from the circuits the tests
// check.
package logic

// And reduces its inputs with a balanced tree of 2-input ANDs; a single
// input is passed through as a wire. It panics on no inputs. The tree's
// shape sets only its cost, so Eval folds the levels in one pass.
func (n *Netlist) And(in ...Wire) Wire {
	if len(in) == 0 {
		panic("logic: And of nothing")
	}
	if n == nil {
		v := in[0]
		for _, w := range in[1:] {
			v &= w
		}
		return v
	}
	return n.reduce(kindAnd, in)
}

// Or reduces its inputs with a balanced tree of 2-input ORs, as And does.
func (n *Netlist) Or(in ...Wire) Wire {
	if len(in) == 0 {
		panic("logic: Or of nothing")
	}
	if n == nil {
		v := in[0]
		for _, w := range in[1:] {
			v |= w
		}
		return v
	}
	return n.reduce(kindOr, in)
}

// reduce records the balanced tree of 2-input gates of kind k over in.
func (n *Netlist) reduce(k kind, in []Wire) Wire {
	if len(in) == 1 {
		return in[0]
	}
	mid := len(in) / 2
	a, b := n.reduce(k, in[:mid]), n.reduce(k, in[mid:])
	return n.gate(k, a, b, b)
}

// FullAdder returns the sum and carry of a, b and a carry-in: two XORs,
// two ANDs and an OR, three levels deep.
func (n *Netlist) FullAdder(a, b, cin Wire) (sum, cout Wire) {
	s1 := n.Xor2(a, b)
	sum = n.Xor2(s1, cin)
	cout = n.Or2(n.And2(a, b), n.And2(s1, cin))
	return sum, cout
}

// RippleAdder writes a+b+cin into sum and returns the carry-out. sum may
// alias a or b: each bit position is read before it is written. It
// panics on width mismatch.
func (n *Netlist) RippleAdder(sum, a, b []Wire, cin Wire) (cout Wire) {
	if len(a) != len(b) || len(sum) != len(a) {
		panic("logic: RippleAdder width mismatch")
	}
	c := cin
	for i := range a {
		sum[i], c = n.FullAdder(a[i], b[i], c)
	}
	return c
}

// SaturatingAdder writes a+b into sum, clamped to the all-ones value on
// overflow; sum may alias either operand. The paper's CEM generator sums
// five 3-bit contributions whose total provably fits in three bits, but
// the saturating form keeps the circuit safe for out-of-spec inputs.
func (n *Netlist) SaturatingAdder(sum, a, b []Wire) {
	cout := n.RippleAdder(sum, a, b, n.Const(false))
	for i := range sum {
		sum[i] = n.Or2(sum[i], cout)
	}
}

// BarrelShiftRight writes a shifted right by the binary value of shift
// into dst, zero-filled, as the classic logarithmic stack of 2:1
// multiplexers: one mux stage per shift-control bit. dst may alias a:
// within a stage position i reads only positions i and i+2^stage, so an
// ascending in-place sweep is safe. It panics on width mismatch.
func (n *Netlist) BarrelShiftRight(dst, a, shift []Wire) {
	if len(dst) != len(a) {
		panic("logic: BarrelShiftRight width mismatch")
	}
	copy(dst, a)
	zero := n.Const(false)
	for stage, sel := range shift {
		k := 1 << uint(stage)
		for i := range dst {
			shifted := zero
			if i+k < len(dst) {
				shifted = dst[i+k]
			}
			dst[i] = n.Mux2(sel, dst[i], shifted)
		}
	}
}

// Equal returns a == b: per bit an XNOR (XOR and inverter), reduced by a
// balanced AND tree. It panics on width mismatch or zero width.
func (n *Netlist) Equal(a, b []Wire) Wire {
	if len(a) != len(b) {
		panic("logic: Equal width mismatch")
	}
	switch len(a) {
	case 0:
		panic("logic: Equal of nothing")
	case 1:
		return n.Not(n.Xor2(a[0], b[0]))
	}
	mid := len(a) / 2
	return n.And2(n.Equal(a[:mid], b[:mid]), n.Equal(a[mid:], b[mid:]))
}

// LessThan returns a < b (unsigned), built as the standard MSB-first
// borrow chain. It panics on width mismatch.
func (n *Netlist) LessThan(a, b []Wire) Wire {
	if len(a) != len(b) {
		panic("logic: LessThan width mismatch")
	}
	lt, eq := n.Const(false), n.Const(true)
	for i := len(a) - 1; i >= 0; i-- {
		lt = n.Or2(lt, n.And2(n.And2(eq, n.Not(a[i])), b[i]))
		if i > 0 { // the last bit's equality is never read
			eq = n.And2(eq, n.Not(n.Xor2(a[i], b[i])))
		}
	}
	return lt
}
