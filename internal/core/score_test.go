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
// dead-slot masks, the predefined candidates' errors scored over the
// fabric view equal cem.Error (or cem.ErrorExact) over the candidate's
// units that avoid dead slots plus the FFUs, and their distances equal
// a slot-by-slot count against the live layout. The current
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

// FuzzSteeringManager holds the steering manager's fabric view and
// cache to references. A shape byte picks the reconfiguration
// latency, the configuration-bus width and ExactCEM. Each two-byte
// operation then sets or clears a demand count, busies a unit, rewrites
// a span behind the managers' backs, strikes a slot with a transient or
// permanent fault, sets HoldTarget or MinResidency, or ticks; a Step
// follows every operation. After each Step the cached manager and an
// uncached twin on a twin fabric must agree on the selection, the stats
// (cache counters aside), the allocation and the timer masks, and the
// selection must equal one scored from scratch on the fabric the Step
// saw: cem over the effective counts and over each basis
// configuration's surviving units, and distances counted against the
// allocation. ClassifyAllocation must name the allocation the Step left
// as config.Classify does.
func FuzzSteeringManager(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 27, 5, 9, 2, 3, 4, 8, 10, 36, 1, 45, 7})
	f.Add(uint8(17), []byte{18, 6, 0, 7, 12, 2, 5, 3, 8, 70, 9, 0, 6, 2, 7, 9, 8, 3, 22, 4})
	f.Add(uint8(33), []byte{4, 1, 14, 6, 8, 65, 13, 2, 8, 70, 27, 255, 3, 0, 8, 12, 10, 5, 8, 66})
	// An empty slot dies: only the dead mask moves, not the allocation.
	f.Add(uint8(0), []byte{5, 2, 8, 100, 9, 48})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		latency := []int{0, 1, 4, 8, 16}[shape%5]
		busWidth := int(shape/5) % 3
		exact := shape/15%2 == 1
		errorOf := cem.Error
		if exact {
			errorOf = cem.ErrorExact
		}
		basis := config.DefaultBasis()
		fm, fr := rfu.New(latency), rfu.New(latency)
		fm.SetConfigBusWidth(busWidth)
		fr.SetConfigBusWidth(busWidth)
		m, ref := core.NewManager(fm, basis), core.NewManager(fr, basis)
		ref.DisableCache = true
		m.ExactCEM, ref.ExactCEM = exact, exact
		var d arch.Counts
		for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
			ty, arg := arch.UnitType(ops[0]/9%arch.NumUnitTypes), int(ops[1])
			switch op := ops[0] % 9; op {
			case 0:
				d[ty] = arg % 81
				if arg == 255 {
					d[ty] = 300
				}
			case 1:
				d[ty] = 0
			case 2:
				_, okM := fm.Acquire(ty, 1+arg%8)
				_, okR := fr.Acquire(ty, 1+arg%8)
				if okM != okR {
					t.Fatalf("step %d: fabrics disagree on acquiring %v", step, ty)
				}
			case 3:
				if slot := arg % arch.NumRFUSlots; fm.CanReconfigure(ty, slot) {
					fm.Reconfigure(ty, slot)
					fr.Reconfigure(ty, slot)
				}
			case 4, 5:
				slot := arg % arch.NumRFUSlots
				if fm.InjectFault(slot, op == 5) != fr.InjectFault(slot, op == 5) {
					t.Fatalf("step %d: fabrics disagree on striking slot %d", step, slot)
				}
			case 6:
				m.HoldTarget = arg % arch.NumConfigs
				ref.HoldTarget = m.HoldTarget
			case 7:
				m.MinResidency = arg % 8
				ref.MinResidency = m.MinResidency
			case 8:
				for i := arg; i > 0; i-- {
					fm.Tick()
					fr.Tick()
				}
			}

			// What a from-scratch selection unit sees before the Step
			// loads anything.
			_, dead := fm.HealthMasks()
			alloc, effective := fm.Allocation(), fm.EffectiveTotalCounts()

			a, b := m.Step(d), ref.Step(d)
			if *a != *b {
				t.Fatalf("step %d, demand %v: selection %+v, uncached %+v", step, d, *a, *b)
			}
			sm, sr := m.Stats(), ref.Stats()
			sm.CacheHits, sm.CacheMisses, sr.CacheHits, sr.CacheMisses = 0, 0, 0, 0
			if sm != sr {
				t.Fatalf("step %d: stats %+v, uncached %+v", step, sm, sr)
			}
			tm := fm.TimerMasks()
			tr := fr.TimerMasks()
			if fm.Allocation() != fr.Allocation() || tm != tr {
				t.Fatalf("step %d: allocation %v timers %#x, uncached %v timers %#x",
					step, fm.Allocation().Slots, tm, fr.Allocation().Slots, tr)
			}

			if want := errorOf(d, effective); a.Errors[0] != want || a.Distances[0] != 0 {
				t.Fatalf("step %d, demand %v: current error/distance %d/%d, want %d/0",
					step, d, a.Errors[0], a.Distances[0], want)
			}
			for i, c := range basis {
				want, dist := errorOf(d, survivingCounts(c, dead)), alloc.Distance(c)
				if a.Errors[i+1] != want || a.Distances[i+1] != dist {
					t.Fatalf("step %d, demand %v, dead %#x: candidate %d error/distance %d/%d, want %d/%d",
						step, d, dead, i+1, a.Errors[i+1], a.Distances[i+1], want, dist)
				}
			}
			if want := core.MinimalErrorSelect(a.Errors, a.Distances); a.Choice != want {
				t.Fatalf("step %d: choice %d, want %d", step, a.Choice, want)
			}
			if got, want := m.ClassifyAllocation(), config.Classify(fm.Allocation().Slots, basis); got != want {
				t.Fatalf("step %d: allocation %v classified %q, want %q", step, fm.Allocation().Slots, got, want)
			}
		}
	})
}
