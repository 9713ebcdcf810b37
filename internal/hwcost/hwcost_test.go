package hwcost

import (
	"testing"

	"repro/internal/logic"
)

// TestFullAdderCellCost pins the netlist primitives: a full adder is
// 2 XOR + 2 AND + 1 OR at depth 3.
func TestFullAdderCellCost(t *testing.T) {
	n := logic.NewNetlist("fa")
	n.FullAdder(n.Input(), n.Input(), n.Input())
	c := n.Cost()
	if c.Gates["xor"] != 2 || c.Gates["and"] != 2 || c.Gates["or"] != 1 {
		t.Errorf("full adder gates = %v", c.Gates)
	}
	if c.Depth != 3 {
		t.Errorf("full adder depth = %d, want 3", c.Depth)
	}
}

func TestShiftControlCost(t *testing.T) {
	c := ShiftControl()
	// One inverter and one AND (s1 is a plain wire).
	if c.Gates["and"] != 1 || c.Gates["not"] != 1 {
		t.Errorf("shift control gates = %v", c.Gates)
	}
	if c.Depth != 2 {
		t.Errorf("shift control depth = %d, want 2", c.Depth)
	}
}

// TestCEMGeneratorCost sanity-bounds the Fig. 3(b) circuit: five 3-bit
// 2-stage barrel shifters are 30 muxes; four 3-bit saturating adders add
// the rest. Depth must stay within a small combinational budget.
func TestCEMGeneratorCost(t *testing.T) {
	c := CEMGenerator()
	if c.Gates["mux"] != 30 {
		t.Errorf("CEM muxes = %d, want 30 (5 types x 3 bits x 2 stages)", c.Gates["mux"])
	}
	if c.Inputs != 25 { // 5 x (3 req + 2 shift)
		t.Errorf("CEM inputs = %d, want 25", c.Inputs)
	}
	if c.Depth == 0 || c.Depth > 40 {
		t.Errorf("CEM depth = %d out of sane range", c.Depth)
	}
	if c.TwoInputEquivalent() == 0 {
		t.Error("CEM two-input equivalent is zero")
	}
}

// TestWakeupRowCost pins Fig. 6: one OR and one NOT per needed/available
// column pair, plus the AND reduction and the scheduled-bit inverter.
func TestWakeupRowCost(t *testing.T) {
	c := WakeupRow()
	wantOr := 5 + 7 // resource + entry columns
	if c.Gates["or"] != wantOr {
		t.Errorf("row ORs = %d, want %d", c.Gates["or"], wantOr)
	}
	if c.Gates["not"] != wantOr+1 { // per column + scheduled bit
		t.Errorf("row NOTs = %d, want %d", c.Gates["not"], wantOr+1)
	}
	// AND reduction of 13 terms = 12 two-input ANDs.
	if c.Gates["and"] != 12 {
		t.Errorf("row ANDs = %d, want 12", c.Gates["and"])
	}
	if c.Inputs != 25 { // 2x12 columns + scheduled
		t.Errorf("row inputs = %d, want 25", c.Inputs)
	}
}

// TestWakeupArrayIsSevenRows: whole-array cost is exactly seven times the
// row cost in every gate class.
func TestWakeupArrayIsSevenRows(t *testing.T) {
	row := WakeupRow()
	array := WakeupArray()
	for kind, n := range row.Gates {
		if array.Gates[kind] != 7*n {
			t.Errorf("array %s = %d, want 7x%d", kind, array.Gates[kind], n)
		}
	}
	if array.Depth != row.Depth {
		t.Errorf("array depth %d != row depth %d (rows are parallel)", array.Depth, row.Depth)
	}
}

// TestAvailabilityCost: 13 entries, each a 3-bit comparator (3 XOR +
// 3 NOT + 2 AND) plus the availability AND, then a 13-input OR tree.
func TestAvailabilityCost(t *testing.T) {
	c := Availability()
	if c.Gates["xor"] != 13*3 {
		t.Errorf("availability XORs = %d, want 39", c.Gates["xor"])
	}
	if c.Gates["or"] != 12 { // 13-input OR tree
		t.Errorf("availability ORs = %d, want 12", c.Gates["or"])
	}
	if c.Inputs != 3+13*(3+1) {
		t.Errorf("availability inputs = %d", c.Inputs)
	}
}

// TestSelectionUnitBudget: the full stages-2-4 selection unit must fit a
// modest combinational budget — the paper's efficiency claim. The bound
// is generous but catches structural blowups.
func TestSelectionUnitBudget(t *testing.T) {
	c := SelectionUnit()
	eq := c.TwoInputEquivalent()
	if eq == 0 || eq > 4000 {
		t.Errorf("selection unit 2-input equivalent = %d, out of budget", eq)
	}
	// The netlist uses ripple-carry adders and linear comparator chains;
	// a real implementation would retime with carry-lookahead trees. The
	// bound reflects the naive construction.
	if c.Depth == 0 || c.Depth > 160 {
		t.Errorf("selection unit depth = %d, out of budget", c.Depth)
	}
	t.Logf("selection unit: %d two-input-equivalent gates, depth %d", eq, c.Depth)
}

// TestCostsDeterministic: building the same circuit twice yields the same
// summary.
func TestCostsDeterministic(t *testing.T) {
	a, b := All(), All()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Depth != b[i].Depth || a[i].Inputs != b[i].Inputs {
			t.Errorf("circuit %d differs between builds", i)
		}
		for k, v := range a[i].Gates {
			if b[i].Gates[k] != v {
				t.Errorf("circuit %s gate %s differs", a[i].Name, k)
			}
		}
	}
}

// TestAllCircuitsNonTrivial: every reported circuit has inputs, gates and
// depth.
func TestAllCircuitsNonTrivial(t *testing.T) {
	for _, c := range All() {
		if c.Inputs == 0 || c.Depth == 0 || c.TwoInputEquivalent() == 0 {
			t.Errorf("%s: trivial cost %+v", c.Name, c)
		}
	}
}
