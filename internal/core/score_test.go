package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rfu"
)

// TestMissPathMatchesCEM is the steering miss path's unit twin. For
// every basis the studies use, both CEM variants and a spread of
// dead-slot masks, the predefined candidates' errors read from the term
// tables equal cem.Error (or cem.ErrorExact) over the candidate's units
// that avoid dead slots plus the FFUs, and their distances equal a
// slot-by-slot count against the live layout. The current
// configuration's error is cem's over the fabric's effective counts.
func TestMissPathMatchesCEM(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, nb := range experiments.Bases {
		for _, exact := range []bool{false, true} {
			for _, dead := range []uint8{0, 0x01, 0x80, 0x0f, 0xf0, 0x24, 0x5a, 0xff} {
				f := rfu.New(0)
				for i := 0; i < 6; i++ {
					ty, slot := arch.UnitType(rng.Intn(arch.NumUnitTypes)), rng.Intn(arch.NumRFUSlots)
					if f.CanReconfigure(ty, slot) {
						f.Reconfigure(ty, slot)
					}
				}
				f.SetExternalMasks(dead, dead)
				m := core.NewManager(f, nb.Basis)
				m.ExactCEM = exact
				errorOf := cem.Error
				if exact {
					errorOf = cem.ErrorExact
				}
				var avail [3]arch.Counts
				var dist [3]int
				for i, c := range nb.Basis {
					avail[i] = survivingCounts(c, dead)
					for s := range c.Layout {
						if c.Layout[s] != f.Allocation().Slots[s] {
							dist[i]++
						}
					}
				}
				check := func(d arch.Counts) {
					sel := m.ScoreMiss(d)
					if want := errorOf(d, f.EffectiveTotalCounts()); sel.Errors[0] != want {
						t.Fatalf("%s exact=%v dead=%#x demand %v: current error %d, want %d", nb.Name, exact, dead, d, sel.Errors[0], want)
					}
					for i := range avail {
						if want := errorOf(d, avail[i]); sel.Errors[i+1] != want || sel.Distances[i+1] != dist[i] {
							t.Fatalf("%s exact=%v dead=%#x demand %v: candidate %d error/distance %d/%d, want %d/%d",
								nb.Name, exact, dead, d, i+1, sel.Errors[i+1], sel.Distances[i+1], want, dist[i])
						}
					}
					if want := core.MinimalErrorSelect(sel.Errors, sel.Distances); sel.Choice != want {
						t.Fatalf("%s demand %v: choice %d, want %d", nb.Name, d, sel.Choice, want)
					}
				}
				// Every clamped demand, then counts past the 3-bit range.
				for k := 0; k < 1<<(arch.NumUnitTypes*arch.CountBits); k++ {
					var d arch.Counts
					for ty := range d {
						d[ty] = k >> (ty * arch.CountBits) & 7
					}
					check(d)
				}
				for i := 0; i < 200; i++ {
					var d arch.Counts
					for ty := range d {
						d[ty] = rng.Intn(80)
					}
					check(d)
				}
			}
		}
	}
}

// survivingCounts is a configuration's availability once the units
// whose spans cross a dead slot are gone: its other units plus the FFUs.
func survivingCounts(c config.Configuration, dead uint8) arch.Counts {
	n := config.FFUCounts()
	for _, u := range c.Units() {
		alive := true
		for s := u.Slot; s < u.Slot+u.Span; s++ {
			alive = alive && dead&(1<<s) == 0
		}
		if alive {
			n[u.Type]++
		}
	}
	return n
}
