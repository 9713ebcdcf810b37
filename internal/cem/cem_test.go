package cem

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/logic"
)

// TestShiftTruthTable pins Fig. 3(c): availability >=4 divides by 4,
// availability 2..3 divides by 2, otherwise by 1.
func TestShiftTruthTable(t *testing.T) {
	want := map[int]uint{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2}
	for avail, s := range want {
		if got := Shift(avail); got != s {
			t.Errorf("Shift(%d) = %d, want %d", avail, got, s)
		}
	}
}

func TestContribution(t *testing.T) {
	cases := []struct{ req, avail, want int }{
		{0, 0, 0},
		{7, 0, 7}, // nothing available: full requirement is unmet
		{7, 1, 7},
		{7, 2, 3},
		{7, 3, 3},
		{7, 4, 1},
		{7, 7, 1},
		{4, 4, 1},
		{3, 2, 1},
		{1, 4, 0},
	}
	for _, c := range cases {
		if got := Contribution(c.req, c.avail); got != c.want {
			t.Errorf("Contribution(%d,%d) = %d, want %d", c.req, c.avail, got, c.want)
		}
	}
}

func TestContributionClampsOutOfSpecInputs(t *testing.T) {
	if got := Contribution(100, 0); got != 7 {
		t.Errorf("Contribution(100,0) = %d, want clamped 7", got)
	}
	if got := Contribution(-3, 0); got != 0 {
		t.Errorf("Contribution(-3,0) = %d, want 0", got)
	}
}

// TestErrorZeroWhenWellMatched: a configuration offering at least 4x the
// per-type requirement of 1 instruction drives every term to zero... the
// floor division by 4 zeroes requirements up to 3.
func TestErrorSmallRequirementsVanish(t *testing.T) {
	req := arch.Counts{3, 0, 3, 0, 0}
	avail := arch.Counts{4, 4, 4, 4, 4}
	if got := Error(req, avail); got != 0 {
		t.Errorf("Error = %d, want 0", got)
	}
}

func TestErrorFullMismatch(t *testing.T) {
	// Seven FP multiplies against a machine with no FPMDU at all.
	req := arch.Counts{0, 0, 0, 0, 7}
	avail := arch.Counts{7, 7, 7, 7, 0}
	if got := Error(req, avail); got != 7 {
		t.Errorf("Error = %d, want 7", got)
	}
}

// TestErrorRanksConfigurationsSensibly: the steering property — an
// FP-heavy queue must score the floating configuration better than the
// integer configuration.
func TestErrorRanksConfigurationsSensibly(t *testing.T) {
	basis := config.DefaultBasis()
	ffu := config.FFUCounts()
	fpQueue := arch.Counts{1, 0, 1, 3, 2}  // mostly FP
	intQueue := arch.Counts{4, 1, 2, 0, 0} // mostly integer

	intAvail := basis[0].Counts().Add(ffu)
	fpAvail := basis[2].Counts().Add(ffu)

	if Error(fpQueue, fpAvail) >= Error(fpQueue, intAvail) {
		t.Errorf("FP queue: floating config error %d not below integer config error %d",
			Error(fpQueue, fpAvail), Error(fpQueue, intAvail))
	}
	if Error(intQueue, intAvail) >= Error(intQueue, fpAvail) {
		t.Errorf("integer queue: integer config error %d not below floating config error %d",
			Error(intQueue, intAvail), Error(intQueue, fpAvail))
	}
}

// TestErrorBoundedByQueueSize: with a legal queue (total required <= 7)
// the metric never exceeds 7 even before saturation, because each term is
// at most its requirement.
func TestErrorBoundedByQueueSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		var req, avail arch.Counts
		remaining := arch.QueueSize
		for t := range req {
			v := rng.Intn(remaining + 1)
			req[t] = v
			remaining -= v
			avail[t] = rng.Intn(8)
		}
		if got := Error(req, avail); got > arch.QueueSize {
			t.Fatalf("Error(%v,%v) = %d exceeds queue size", req, avail, got)
		}
	}
}

// TestErrorMonotoneInAvailability: adding available units of some type
// never increases the error.
func TestErrorMonotoneInAvailability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		var req, avail arch.Counts
		for i := range req {
			req[i] = rng.Intn(8)
			avail[i] = rng.Intn(7)
		}
		before := Error(req, avail)
		ty := rng.Intn(arch.NumUnitTypes)
		avail[ty]++
		after := Error(req, avail)
		if after > before {
			t.Fatalf("error rose from %d to %d when %v availability grew (req=%v avail=%v)",
				before, after, arch.UnitType(ty), req, avail)
		}
	}
}

// TestExactDividerAtLeastAsStrict: for a single type the exact divider's
// term floor(req/avail) is never larger than the shifter term, because
// the shifter divides by a power of two <= avail. Summed, exact <=
// approximate.
func TestExactNeverAboveApproximate(t *testing.T) {
	for r := 0; r < 8; r++ {
		for a := 0; a < 8; a++ {
			req := arch.Counts{r, 0, 0, 0, 0}
			avail := arch.Counts{a, 7, 7, 7, 7}
			if e, x := Error(req, avail), ErrorExact(req, avail); x > e {
				t.Errorf("req=%d avail=%d: exact %d > approx %d", r, a, x, e)
			}
		}
	}
}

func TestErrorExactSpotValues(t *testing.T) {
	cases := []struct {
		req, avail arch.Counts
		want       int
	}{
		{arch.Counts{6, 0, 0, 0, 0}, arch.Counts{3, 0, 0, 0, 0}, 2}, // 6/3
		{arch.Counts{7, 0, 0, 0, 0}, arch.Counts{5, 0, 0, 0, 0}, 1}, // 7/5
		{arch.Counts{5, 0, 0, 0, 0}, arch.Counts{0, 0, 0, 0, 0}, 5}, // nothing available
		{arch.Counts{5, 0, 0, 0, 0}, arch.Counts{1, 0, 0, 0, 0}, 5}, // one unit: serialized
	}
	for _, c := range cases {
		if got := ErrorExact(c.req, c.avail); got != c.want {
			t.Errorf("ErrorExact(%v,%v) = %d, want %d", c.req, c.avail, got, c.want)
		}
	}
}

// TestShiftControlMatchesShift proves the Fig. 3(c) gate wiring equals
// the behavioural shift amount for all 3-bit quantities.
func TestShiftControlMatchesShift(t *testing.T) {
	for q := 0; q < 8; q++ {
		var in [arch.CountBits]logic.Wire
		logic.SetUint(in[:], uint64(q))
		shift := ShiftControl(logic.Eval, in)
		if got := uint(logic.Uint(shift[:])); got != Shift(q) {
			t.Errorf("ShiftControl(%d) = %d, want %d", q, got, Shift(q))
		}
	}
}

// TestCEMCircuitEquivalence proves the gate-level Fig. 3(b) network
// equals the behavioural metric. Per-type inputs are only 3 bits each, so
// the per-type path is checked exhaustively; the summed path is checked
// over randomized full count vectors.
func TestCEMCircuitEquivalence(t *testing.T) {
	// Per-type exhaustive: isolate one type.
	for r := 0; r < 8; r++ {
		for a := 0; a < 8; a++ {
			req := arch.Counts{0, 0, r, 0, 0}
			avail := arch.Counts{7, 7, a, 7, 7}
			if got, want := CircuitError(req, avail), Error(req, avail); got != want {
				t.Fatalf("single-type req=%d avail=%d: circuit %d != behaviour %d", r, a, got, want)
			}
		}
	}
	// Randomised full vectors (legal queue totals so no saturation
	// ambiguity, then unrestricted totals to check saturation too).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20000; trial++ {
		var req, avail arch.Counts
		for i := range req {
			req[i] = rng.Intn(8)
			avail[i] = rng.Intn(8)
		}
		got, want := CircuitError(req, avail), Error(req, avail)
		// When the true sum exceeds 7 both sides saturate, but the
		// circuit's tree may saturate earlier at intermediate stages;
		// both then pin to 7, so equality still holds.
		if got != want {
			t.Fatalf("req=%v avail=%v: circuit %d != behaviour %d", req, avail, got, want)
		}
	}
}

// TestHardwiredShiftEqualsLiveShift: the predefined configurations'
// hard-wired divisors must produce the same result as routing their
// static counts through the live Fig. 3(c) control logic — the property
// that lets one CEM design serve both the static and the current
// configuration.
func TestHardwiredShiftEqualsLiveShift(t *testing.T) {
	basis := config.DefaultBasis()
	ffu := config.FFUCounts()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 1000; trial++ {
		var req arch.Counts
		for i := range req {
			req[i] = rng.Intn(8)
		}
		for _, cfg := range basis {
			avail := cfg.Counts().Add(ffu)
			// "Hard-wired": precompute shifts, apply manually.
			sum := 0
			for t := range req {
				v := req[t]
				if v > 7 {
					v = 7
				}
				sum += v >> Shift(avail[t])
			}
			if sum > 7 {
				sum = 7
			}
			if got := Error(req, avail); got != sum {
				t.Fatalf("config %s: live %d != hardwired %d", cfg.Name, got, sum)
			}
		}
	}
}

// TestApproximationGapBounded is the property behind trusting the
// barrel-shifter CEM at all: over the full 3-bit per-term space the
// shifter term is never below the exact quotient (it divides by a power
// of two <= avail) and overshoots it by at most 1 — so a 5-term sum can
// misrank configurations by at most a handful of error units, never
// wildly.
func TestApproximationGapBounded(t *testing.T) {
	for req := 0; req < 8; req++ {
		for avail := 0; avail < 8; avail++ {
			approx := Contribution(req, avail)
			exact := req
			if avail > 1 {
				exact = req / avail
			}
			gap := approx - exact
			if gap < 0 || gap > 1 {
				t.Errorf("req=%d avail=%d: approx %d, exact %d, gap %d outside [0,1]",
					req, avail, approx, exact, gap)
			}
		}
	}
}

// TestErrorExactMatchesReferenceMath pins ErrorExact to independent
// integer math over the full multi-type space of legal demand vectors
// (sum <= QueueSize) against every 3-bit availability pattern on a
// fixed-stride sample — exhaustive in the demand dimension, dense in
// the availability one.
func TestErrorExactMatchesReferenceMath(t *testing.T) {
	ref := func(required, available arch.Counts) int {
		sum := 0
		for ty := range required {
			r, a := required[ty], available[ty]
			if r > 7 {
				r = 7
			}
			if r < 0 {
				r = 0
			}
			switch {
			case a <= 1:
				sum += r
			default:
				sum += r / a
			}
		}
		if sum > 7 {
			sum = 7
		}
		return sum
	}
	var walk func(ty, left int, req arch.Counts)
	walk = func(ty, left int, req arch.Counts) {
		if ty == arch.NumUnitTypes {
			// Availability patterns: all-equal levels plus a mixed ramp,
			// shifted through every rotation.
			for level := 0; level < 8; level++ {
				avail := arch.Counts{level, level, level, level, level}
				if got, want := ErrorExact(req, avail), ref(req, avail); got != want {
					t.Fatalf("ErrorExact(%v,%v) = %d, want %d", req, avail, got, want)
				}
				for rot := 0; rot < arch.NumUnitTypes; rot++ {
					var mixed arch.Counts
					for i := range mixed {
						mixed[i] = (i + rot + level) % 8
					}
					if got, want := ErrorExact(req, mixed), ref(req, mixed); got != want {
						t.Fatalf("ErrorExact(%v,%v) = %d, want %d", req, mixed, got, want)
					}
				}
			}
			return
		}
		for n := 0; n <= left; n++ {
			req[ty] = n
			walk(ty+1, left-n, req)
		}
	}
	walk(0, arch.QueueSize, arch.Counts{})
}
