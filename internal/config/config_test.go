package config

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

func TestNewPacksUnitsContiguously(t *testing.T) {
	c, err := New("t", arch.IntALU, arch.IntMDU, arch.FPALU)
	if err != nil {
		t.Fatal(err)
	}
	want := [arch.NumRFUSlots]arch.Encoding{
		arch.EncIntALU,
		arch.EncIntMDU, arch.EncCont,
		arch.EncFPALU, arch.EncCont, arch.EncCont,
		arch.EncEmpty, arch.EncEmpty,
	}
	if c.Layout != want {
		t.Errorf("layout = %v, want %v", c.Layout, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewRejectsOverflow(t *testing.T) {
	if _, err := New("t", arch.FPALU, arch.FPALU, arch.FPALU); err == nil {
		t.Error("9 slots of FP units accepted into an 8-slot fabric")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on overflow")
		}
	}()
	MustNew("t", arch.FPMDU, arch.FPMDU, arch.FPMDU)
}

func TestCounts(t *testing.T) {
	c := MustNew("t", arch.IntALU, arch.IntALU, arch.IntMDU, arch.LSU, arch.FPALU)
	want := arch.Counts{2, 1, 1, 1, 0}
	if got := c.Counts(); got != want {
		t.Errorf("Counts = %v, want %v", got, want)
	}
}

func TestUnitsPlacement(t *testing.T) {
	c := MustNew("t", arch.LSU, arch.FPMDU, arch.IntMDU)
	units := c.Units()
	want := []PlacedUnit{
		{arch.LSU, 0, 1},
		{arch.FPMDU, 1, 3},
		{arch.IntMDU, 4, 2},
	}
	if len(units) != len(want) {
		t.Fatalf("Units = %v, want %v", units, want)
	}
	for i := range want {
		if units[i] != want[i] {
			t.Errorf("unit %d = %v, want %v", i, units[i], want[i])
		}
	}
}

func TestValidateRejectsMalformedLayouts(t *testing.T) {
	cases := []struct {
		name   string
		layout [arch.NumRFUSlots]arch.Encoding
	}{
		{"orphan continuation", [arch.NumRFUSlots]arch.Encoding{arch.EncCont}},
		{"missing continuation", [arch.NumRFUSlots]arch.Encoding{arch.EncIntMDU, arch.EncIntALU}},
		{"span overrun", [arch.NumRFUSlots]arch.Encoding{0, 0, 0, 0, 0, 0, arch.EncFPALU, arch.EncCont}},
		{"invalid code", [arch.NumRFUSlots]arch.Encoding{6}},
	}
	for _, c := range cases {
		cfg := Configuration{Name: c.name, Layout: c.layout}
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed layout %v", c.name, c.layout)
		}
	}
}

// TestDefaultBasisInvariants pins DESIGN.md §4: each steering
// configuration is structurally valid and fills exactly the 8-slot
// fabric.
func TestDefaultBasisInvariants(t *testing.T) {
	basis := DefaultBasis()
	wantCounts := []arch.Counts{
		{4, 1, 2, 0, 0},
		{2, 1, 4, 0, 0},
		{1, 0, 1, 1, 1},
	}
	for i, cfg := range basis {
		if err := cfg.Validate(); err != nil {
			t.Errorf("basis[%d]: %v", i, err)
		}
		if got := cfg.Counts(); got != wantCounts[i] {
			t.Errorf("basis[%d] counts = %v, want %v", i, got, wantCounts[i])
		}
		if got := cfg.Counts().Slots(); got != arch.NumRFUSlots {
			t.Errorf("basis[%d] uses %d slots, want %d", i, got, arch.NumRFUSlots)
		}
		for _, e := range cfg.Layout {
			if e == arch.EncEmpty {
				t.Errorf("basis[%d] leaves a slot empty", i)
				break
			}
		}
	}
}

// TestBasisCoversAllUnitTypes checks the basis plus FFUs offers every
// unit type somewhere — the forward-progress property of §3.2 relies on
// the FFUs alone, but a useful basis should cover FP and integer mixes.
func TestBasisCoversAllUnitTypes(t *testing.T) {
	var total arch.Counts
	for _, cfg := range DefaultBasis() {
		total = total.Add(cfg.Counts())
	}
	for _, ty := range arch.UnitTypes() {
		if total[ty] == 0 {
			t.Errorf("no steering configuration provides %v", ty)
		}
	}
}

func TestFFUCounts(t *testing.T) {
	want := arch.Counts{1, 1, 1, 1, 1}
	if got := FFUCounts(); got != want {
		t.Errorf("FFUCounts = %v, want %v", got, want)
	}
}

func TestNewAllocationVector(t *testing.T) {
	v := NewAllocationVector()
	for i, e := range v.Slots {
		if e != arch.EncEmpty {
			t.Errorf("slot %d = %v, want empty", i, e)
		}
	}
	for i, ty := range arch.UnitTypes() {
		if v.FFUs[i] != arch.Encode(ty) {
			t.Errorf("FFU %d = %v, want %v", i, v.FFUs[i], arch.Encode(ty))
		}
	}
	if got := v.RFUCounts(); got != (arch.Counts{}) {
		t.Errorf("reset RFUCounts = %v, want none", got)
	}
}

func TestEntriesOrderAndLength(t *testing.T) {
	v := NewAllocationVector()
	v.Slots[0] = arch.EncLSU
	e := v.Entries()
	if len(e) != arch.NumRFUSlots+arch.NumFFUs {
		t.Fatalf("Entries length %d", len(e))
	}
	if e[0] != arch.EncLSU {
		t.Error("Entries does not start with the reconfigurable portion")
	}
	if e[arch.NumRFUSlots] != arch.EncIntALU {
		t.Error("fixed portion not appended after slots")
	}
}

func TestDiffAndDistance(t *testing.T) {
	v := NewAllocationVector()
	target := DefaultBasis()[0]
	// Empty fabric differs from a full configuration in every slot.
	if got := v.Distance(target); got != arch.NumRFUSlots {
		t.Errorf("Distance from empty = %d, want %d", got, arch.NumRFUSlots)
	}
	// Loading the configuration exactly zeroes the distance.
	v.Slots = target.Layout
	if got := v.Distance(target); got != 0 {
		t.Errorf("Distance after load = %d, want 0", got)
	}
	// A single changed slot counts once, whichever slot it is.
	for i := range v.Slots {
		v.Slots[i] = arch.EncEmpty
		if got := v.Distance(target); got != 1 {
			t.Errorf("Distance with slot %d emptied = %d, want 1", i, got)
		}
		v.Slots[i] = target.Layout[i]
	}
}

func TestRFUAndTotalCounts(t *testing.T) {
	v := NewAllocationVector()
	v.Slots = DefaultBasis()[2].Layout // floating config
	rfu := v.RFUCounts()
	if rfu != (arch.Counts{1, 0, 1, 1, 1}) {
		t.Errorf("RFUCounts = %v", rfu)
	}
	if total := rfu.Add(FFUCounts()); total != (arch.Counts{2, 1, 2, 2, 2}) {
		t.Errorf("RFU plus FFU counts = %v", total)
	}
}

// TestDistanceIsMetricLike property-checks symmetry-like behaviour of the
// slot diff: distance to self is zero and distance is bounded by the slot
// count.
func TestDistanceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	basis := DefaultBasis()
	for trial := 0; trial < 500; trial++ {
		v := NewAllocationVector()
		for i := range v.Slots {
			v.Slots[i] = arch.Encoding(rng.Intn(8))
		}
		for _, cfg := range basis {
			d := v.Distance(cfg)
			if d < 0 || d > arch.NumRFUSlots {
				t.Fatalf("Distance out of bounds: %d", d)
			}
		}
		self := Configuration{Layout: v.Slots}
		if v.Distance(self) != 0 {
			t.Fatal("Distance to own layout nonzero")
		}
	}
}

func TestStringRendering(t *testing.T) {
	c := MustNew("demo", arch.IntALU, arch.IntMDU)
	if got := c.String(); got != "demo: [IntALU IntMDU cont empty empty empty empty empty]" {
		t.Errorf("Configuration.String = %q", got)
	}
	v := NewAllocationVector()
	got := v.String()
	want := "RFU[empty empty empty empty empty empty empty empty] FFU[IntALU IntMDU LSU FPALU FPMDU]"
	if got != want {
		t.Errorf("AllocationVector.String = %q", got)
	}
}

// TestClassify: the empty layout is "(empty)" before any basis match —
// even against a basis holding an empty configuration — a basis layout
// takes its configuration's name, and anything else is "hybrid".
func TestClassify(t *testing.T) {
	basis := DefaultBasis()
	var empty [arch.NumRFUSlots]arch.Encoding
	if got := Classify(empty, basis); got != "(empty)" {
		t.Errorf("empty layout = %q, want (empty)", got)
	}
	withEmpty := basis
	withEmpty[1] = Configuration{Name: "blank"}
	if got := Classify(empty, withEmpty); got != "(empty)" {
		t.Errorf("empty layout against a blank basis entry = %q, want (empty)", got)
	}
	for _, cfg := range basis {
		if got := Classify(cfg.Layout, basis); got != cfg.Name {
			t.Errorf("layout of %s = %q", cfg.Name, got)
		}
	}
	hybrid := basis[0].Layout
	hybrid[0], hybrid[1] = basis[2].Layout[0], basis[2].Layout[1]
	if hybrid == basis[0].Layout || hybrid == basis[2].Layout {
		t.Fatal("test layout is not a hybrid")
	}
	if got := Classify(hybrid, basis); got != "hybrid" {
		t.Errorf("mixed layout = %q, want hybrid", got)
	}
}

// TestLayoutDistanceCountsSlots checks the packed-word distance against
// a slot-by-slot count over random encodings, every code 0–7 included,
// and that PackLayout keeps slot i in bits 3i–3i+2.
func TestLayoutDistanceCountsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		var a, b [arch.NumRFUSlots]arch.Encoding
		for s := range a {
			a[s] = arch.Encoding(rng.Intn(8))
			b[s] = a[s]
			if rng.Intn(2) == 0 {
				b[s] = arch.Encoding(rng.Intn(8))
			}
		}
		want := 0
		for s := range a {
			if a[s] != b[s] {
				want++
			}
			if got := arch.Encoding(PackLayout(a) >> (3 * s) & 7); got != a[s] {
				t.Fatalf("PackLayout(%v) slot %d = %d", a, s, got)
			}
		}
		if got := LayoutDistance(PackLayout(a), PackLayout(b)); got != want {
			t.Fatalf("LayoutDistance(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}
