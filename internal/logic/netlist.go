package logic

import "fmt"

// Netlist is the one gate builder every circuit is written against. A
// non-nil Netlist records each gate as a node so the circuit's hardware
// cost — gate count by kind and critical-path depth — can be reported;
// the nil Netlist, exported as Eval, evaluates each gate on logic levels
// instead. The paper's pitch for the selection unit is that it is a
// "fast and efficient micro-architectural solution"; recording the same
// descriptions the equivalence tests evaluate lets the repo quantify
// that claim for every circuit figure.
//
// Inputs and constants have depth 0 and each gate's depth is one more
// than its deepest input. Gates with a single input (NOT) and wiring
// (fan-out, constants) are counted separately from 2-input logic, which
// is the conventional unit of comparison.
type Netlist struct {
	name   string
	inputs int
	depth  []int32 // per node
	counts [numKinds]int
}

// Eval is the evaluating builder: every gate method called on it returns
// the logic level of its output, 0 or 1, computed from the input levels.
// It is the nil Netlist.
var Eval *Netlist

// Wire is a signal in a circuit: a logic level (0 or 1) under Eval, a
// node of the netlist under a recording Netlist.
type Wire int32

// kind is a gate's cost class.
type kind uint8

const (
	kindAnd kind = iota
	kindOr
	kindXor
	kindNot
	kindMux
	numKinds
)

var kindNames = [numKinds]string{"and", "or", "xor", "not", "mux"}

// NewNetlist starts an empty recorded circuit.
func NewNetlist(name string) *Netlist {
	return &Netlist{name: name}
}

// Input declares a primary input of a recorded circuit.
func (n *Netlist) Input() Wire {
	n.inputs++
	return n.node(0)
}

// Inputs fills w with fresh primary inputs (a bus).
func (n *Netlist) Inputs(w []Wire) {
	for i := range w {
		w[i] = n.Input()
	}
}

// Const returns a tied-off wire at level v: the level itself under Eval,
// a constant node (no gate cost, depth 0) in a recording.
func (n *Netlist) Const(v bool) Wire {
	if n == nil {
		return Level(v)
	}
	return n.node(0)
}

// Level returns the evaluation level of b.
func Level(b bool) Wire {
	if b {
		return 1
	}
	return 0
}

// SetUint sets w to the evaluation levels of v's low len(w) bits,
// least-significant first.
func SetUint(w []Wire, v uint64) {
	for i := range w {
		w[i] = Wire(v >> uint(i) & 1)
	}
}

// Uint returns the unsigned value carried by the evaluation levels w,
// least-significant first.
func Uint(w []Wire) uint64 {
	var v uint64
	for i, b := range w {
		v |= uint64(b) << uint(i)
	}
	return v
}

// The gate methods keep the recording out of line so that each one
// inlines into its caller under Eval.

// Not returns the complement of a.
func (n *Netlist) Not(a Wire) Wire {
	if n == nil {
		return a ^ 1
	}
	return n.gate(kindNot, a, a, a)
}

// And2 returns a AND b.
func (n *Netlist) And2(a, b Wire) Wire {
	if n == nil {
		return a & b
	}
	return n.gate(kindAnd, a, b, b)
}

// Or2 returns a OR b.
func (n *Netlist) Or2(a, b Wire) Wire {
	if n == nil {
		return a | b
	}
	return n.gate(kindOr, a, b, b)
}

// Xor2 returns a XOR b.
func (n *Netlist) Xor2(a, b Wire) Wire {
	if n == nil {
		return a ^ b
	}
	return n.gate(kindXor, a, b, b)
}

// Mux2 returns a when sel is 0 and b when sel is 1: one 2:1 multiplexer
// of depth 1.
func (n *Netlist) Mux2(sel, a, b Wire) Wire {
	if n == nil {
		return a ^ (a^b)&-sel
	}
	return n.gate(kindMux, sel, a, b)
}

// node appends a node of the given depth.
func (n *Netlist) node(depth int32) Wire {
	n.depth = append(n.depth, depth)
	return Wire(len(n.depth) - 1)
}

// gate records a gate of kind k over up to three inputs (repeat an input
// to fill the unused places).
func (n *Netlist) gate(k kind, a, b, c Wire) Wire {
	if max(a, b, c) >= Wire(len(n.depth)) {
		panic(fmt.Sprintf("logic: netlist %s: undefined wire", n.name))
	}
	n.counts[k]++
	return n.node(max(n.depth[a], n.depth[b], n.depth[c]) + 1)
}

// Cost summarises a netlist.
type Cost struct {
	Name   string
	Inputs int
	Gates  map[string]int // per kind: and, or, xor, not, mux
	Depth  int            // critical path over all signals
}

// TwoInputEquivalent returns the conventional 2-input-gate count: AND,
// OR, XOR count 1; NOT counts 0.5 rounded up in total; MUX counts 3
// (two ANDs + OR with an inverter amortised).
func (c Cost) TwoInputEquivalent() int {
	total := c.Gates["and"] + c.Gates["or"] + c.Gates["xor"] + c.Gates["mux"]*3
	total += (c.Gates["not"] + 1) / 2
	return total
}

// Cost computes the recorded netlist's summary.
func (n *Netlist) Cost() Cost {
	var depth int32
	for _, d := range n.depth {
		depth = max(depth, d)
	}
	gates := map[string]int{}
	for k, v := range n.counts {
		if v > 0 {
			gates[kindNames[k]] = v
		}
	}
	return Cost{Name: n.name, Inputs: n.inputs, Gates: gates, Depth: int(depth)}
}
