package logic

import "testing"

func TestNetlistInputsAndConstants(t *testing.T) {
	n := NewNetlist("t")
	var in [3]Wire
	n.Inputs(in[:])
	if in[0] == in[1] || in[1] == in[2] {
		t.Fatalf("Inputs returned shared wires %v", in)
	}
	n.Const(false)
	n.Const(true)
	cost := n.Cost()
	if cost.Inputs != 3 {
		t.Errorf("inputs = %d", cost.Inputs)
	}
	if cost.Depth != 0 {
		t.Errorf("depth of wiring-only netlist = %d", cost.Depth)
	}
	if len(cost.Gates) != 0 {
		t.Errorf("wiring-only netlist has gates %v", cost.Gates)
	}
}

func TestNetlistGateDepths(t *testing.T) {
	n := NewNetlist("t")
	a, b := n.Input(), n.Input()
	x := n.And2(a, b) // depth 1
	y := n.Or2(x, a)  // depth 2
	z := n.Not(y)     // depth 3
	_ = n.Xor2(z, b)  // depth 4
	if got := n.Cost().Depth; got != 4 {
		t.Errorf("depth = %d, want 4", got)
	}
}

func TestNetlistReduceTreeDepth(t *testing.T) {
	n := NewNetlist("t")
	var in [8]Wire
	n.Inputs(in[:])
	n.And(in[:]...)
	// A balanced 8-input AND tree is 3 levels deep with 7 gates.
	c := n.Cost()
	if c.Depth != 3 {
		t.Errorf("8-input AND depth = %d, want 3", c.Depth)
	}
	if c.Gates["and"] != 7 {
		t.Errorf("8-input AND gates = %d, want 7", c.Gates["and"])
	}
	// Single-signal reduce is a wire.
	m := NewNetlist("t2")
	s := m.Input()
	if m.Or(s) != s {
		t.Error("single-input Or is not the identity")
	}
}

func TestNetlistAdders(t *testing.T) {
	n := NewNetlist("t")
	var a, b, sum [3]Wire
	n.Inputs(a[:])
	n.Inputs(b[:])
	n.RippleAdder(sum[:], a[:], b[:], n.Const(false))
	n.SaturatingAdder(sum[:], a[:], b[:])
	// Two 3-bit ripple adders (2 XOR, 2 AND, 1 OR per cell) plus the
	// saturating adder's three clamping ORs; the carry chain of the
	// saturating form is the deepest path: 3 + 2*2 levels and the OR.
	c := n.Cost()
	if c.Gates["xor"] != 12 || c.Gates["and"] != 12 || c.Gates["or"] != 9 {
		t.Errorf("adder gates = %v", c.Gates)
	}
	if c.Depth != 8 {
		t.Errorf("adder depth = %d, want 8", c.Depth)
	}
}

func TestNetlistBarrelShift(t *testing.T) {
	n := NewNetlist("t")
	var a [4]Wire
	var shift [2]Wire
	n.Inputs(a[:])
	n.Inputs(shift[:])
	n.BarrelShiftRight(a[:], a[:], shift[:])
	if n.Cost().Gates["mux"] != 8 { // 4 bits x 2 stages
		t.Errorf("muxes = %d, want 8", n.Cost().Gates["mux"])
	}
}

func TestNetlistComparators(t *testing.T) {
	n := NewNetlist("t")
	var a, b [4]Wire
	n.Inputs(a[:])
	n.Inputs(b[:])
	n.Equal(a[:], b[:])
	// Equal: per bit an XOR and an inverter, then a 3-AND tree.
	if c := n.Cost(); c.Gates["xor"] != 4 || c.Gates["not"] != 4 || c.Gates["and"] != 3 || c.Depth != 4 {
		t.Errorf("4-bit Equal cost = %+v", c)
	}
	n.LessThan(a[:], b[:])
	// LessThan adds per bit an inverter, two ANDs and an OR, and per bit
	// but the last an XOR, an inverter and an AND for the equality chain.
	if c := n.Cost(); c.Gates["xor"] != 7 || c.Gates["not"] != 11 || c.Gates["and"] != 14 || c.Gates["or"] != 4 {
		t.Errorf("4-bit Equal+LessThan cost = %+v", c)
	}
}

func TestNetlistPanics(t *testing.T) {
	cases := map[string]func(){
		"gate without inputs": func() {
			n := NewNetlist("t")
			n.And()
		},
		"adder width mismatch": func() {
			n := NewNetlist("t")
			n.RippleAdder(make([]Wire, 2), make([]Wire, 2), make([]Wire, 3), n.Const(false))
		},
		"equal width mismatch": func() {
			Eval.Equal(make([]Wire, 2), make([]Wire, 3))
		},
		"equal of nothing": func() {
			Eval.Equal(nil, nil)
		},
		"lessthan width mismatch": func() {
			Eval.LessThan(make([]Wire, 2), make([]Wire, 3))
		},
		"shift width mismatch": func() {
			Eval.BarrelShiftRight(make([]Wire, 2), make([]Wire, 3), nil)
		},
		"undefined wire": func() {
			n := NewNetlist("t")
			n.Not(Wire(99))
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTwoInputEquivalentWeights(t *testing.T) {
	c := Cost{Gates: map[string]int{"and": 2, "or": 1, "xor": 1, "mux": 2, "not": 3}}
	// 2 + 1 + 1 + 2*3 + ceil(3/2) = 12.
	if got := c.TwoInputEquivalent(); got != 12 {
		t.Errorf("TwoInputEquivalent = %d, want 12", got)
	}
}
