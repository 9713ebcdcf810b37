package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// levels returns the evaluated width-bit bus holding v's low bits.
func levels(v uint64, width int) []Wire {
	w := make([]Wire, width)
	SetUint(w, v)
	return w
}

func TestGateTruthTables(t *testing.T) {
	const T, F = Wire(1), Wire(0)
	if Eval.Not(T) != F || Eval.Not(F) != T {
		t.Error("Not truth table wrong")
	}
	for _, a := range []Wire{F, T} {
		for _, b := range []Wire{F, T} {
			if got, want := Eval.And2(a, b), Level(a == T && b == T); got != want {
				t.Errorf("And2(%d,%d) = %d", a, b, got)
			}
			if got, want := Eval.Or2(a, b), Level(a == T || b == T); got != want {
				t.Errorf("Or2(%d,%d) = %d", a, b, got)
			}
			if got, want := Eval.Xor2(a, b), Level(a != b); got != want {
				t.Errorf("Xor2(%d,%d) = %d", a, b, got)
			}
		}
	}
}

// TestGateIdentities: a one-input reduction is the input itself, and
// the reductions of every input pattern are the conjunction and the
// disjunction.
func TestGateIdentities(t *testing.T) {
	for _, v := range []Wire{0, 1} {
		if Eval.And(v) != v || Eval.Or(v) != v {
			t.Errorf("one-input reduction of %d is not the identity", v)
		}
	}
	for width := 2; width <= 8; width++ {
		for v := uint64(0); v < 1<<uint(width); v++ {
			in := levels(v, width)
			all := v == 1<<uint(width)-1
			if Eval.And(in...) != Level(all) {
				t.Fatalf("And(%0*b) wrong", width, v)
			}
			if Eval.Or(in...) != Level(v != 0) {
				t.Fatalf("Or(%0*b) wrong", width, v)
			}
		}
	}
}

func TestXorIsOddParity(t *testing.T) {
	f := func(v uint8, n uint8) bool {
		in := levels(uint64(v), int(n%8+1))
		parity := Wire(0)
		ones := 0
		for _, b := range in {
			parity = Eval.Xor2(parity, b)
			ones += int(b)
		}
		return parity == Level(ones%2 == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMux2(t *testing.T) {
	for _, sel := range []Wire{0, 1} {
		for _, a := range []Wire{0, 1} {
			for _, b := range []Wire{0, 1} {
				want := a
				if sel == 1 {
					want = b
				}
				if got := Eval.Mux2(sel, a, b); got != want {
					t.Errorf("Mux2(%d,%d,%d) = %d, want %d", sel, a, b, got, want)
				}
			}
		}
	}
}

func TestBusRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return Uint(levels(uint64(v), 16)) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusTruncates(t *testing.T) {
	if got := Uint(levels(0xff, 3)); got != 7 {
		t.Errorf("SetUint(0xff) over 3 bits reads %d, want 7", got)
	}
}

// TestRippleAdderExhaustive checks all 4-bit additions with both carry-in
// values against integer arithmetic.
func TestRippleAdderExhaustive(t *testing.T) {
	sum := make([]Wire, 4)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			for cin := uint64(0); cin < 2; cin++ {
				cout := Eval.RippleAdder(sum, levels(a, 4), levels(b, 4), Wire(cin))
				total := a + b + cin
				if Uint(sum) != total&0xf {
					t.Fatalf("%d+%d+%d sum = %d, want %d", a, b, cin, Uint(sum), total&0xf)
				}
				if cout != Level(total > 0xf) {
					t.Fatalf("%d+%d+%d cout = %v", a, b, cin, cout)
				}
			}
		}
	}
}

func TestRippleAdderWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on width mismatch")
		}
	}()
	Eval.RippleAdder(make([]Wire, 3), make([]Wire, 3), make([]Wire, 4), 0)
}

// TestSaturatingAdderExhaustive checks all 3-bit saturating additions,
// the width used throughout the CEM circuit, with the sum written over
// its first operand as the circuits do.
func TestSaturatingAdderExhaustive(t *testing.T) {
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			sum := levels(a, 3)
			Eval.SaturatingAdder(sum, sum, levels(b, 3))
			want := min(a+b, 7)
			if got := Uint(sum); got != want {
				t.Fatalf("sat %d+%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestAdderTreeMatchesSequentialSum: a chain of saturating adders — the
// five-operand adder of Fig. 3(b) — is exact while the true sum fits in
// three bits and clamps at 7 once it does not.
func TestAdderTreeMatchesSequentialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		v := uint64(rng.Intn(8))
		total := v
		sum := levels(v, 3)
		for i := 1; i < n; i++ {
			v = uint64(rng.Intn(8))
			total += v
			Eval.SaturatingAdder(sum, sum, levels(v, 3))
		}
		if got, want := Uint(sum), min(total, 7); got != want {
			t.Fatalf("chain of %d operands summing to %d = %d, want %d", n, total, got, want)
		}
	}
}

// TestShiftRight: the barrel shifter with a 3-bit control clears the
// bus once the shift reaches its width.
func TestShiftRight(t *testing.T) {
	out := make([]Wire, 4)
	for v := uint64(0); v < 16; v++ {
		for n := uint64(0); n < 8; n++ {
			Eval.BarrelShiftRight(out, levels(v, 4), levels(n, 3))
			if got := Uint(out); got != v>>n {
				t.Fatalf("BarrelShiftRight(%d,%d) = %d, want %d", v, n, got, v>>n)
			}
		}
	}
}

// TestBarrelShiftRightExhaustive verifies the mux-stack barrel shifter
// over every 4-bit value and 2-bit shift amount — the configuration used
// by the CEM circuit's divide-by-1/2/4 shifters — shifting in place.
func TestBarrelShiftRightExhaustive(t *testing.T) {
	for v := uint64(0); v < 16; v++ {
		for s := uint64(0); s < 4; s++ {
			bus := levels(v, 4)
			Eval.BarrelShiftRight(bus, bus, levels(s, 2))
			if got := Uint(bus); got != v>>s {
				t.Fatalf("barrel %d>>%d = %d, want %d", v, s, got, v>>s)
			}
		}
	}
}

func TestEqualAndLessThanExhaustive(t *testing.T) {
	for width := 1; width <= 5; width++ {
		for a := uint64(0); a < 1<<uint(width); a++ {
			for b := uint64(0); b < 1<<uint(width); b++ {
				ab, bb := levels(a, width), levels(b, width)
				if Eval.Equal(ab, bb) != Level(a == b) {
					t.Fatalf("Equal(%d,%d) over %d bits wrong", a, b, width)
				}
				if Eval.LessThan(ab, bb) != Level(a < b) {
					t.Fatalf("LessThan(%d,%d) over %d bits wrong", a, b, width)
				}
			}
		}
	}
}
