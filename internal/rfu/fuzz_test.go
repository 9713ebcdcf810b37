package rfu

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/arch"
	"repro/internal/avail"
	"repro/internal/config"
	"repro/internal/fault"
)

// The reference model below re-derives every answer from the fabric's
// per-slot values (encodings, timers, health) by walking slots, the way
// the fabric answered before its head boards and masks became the only
// derived copy. FuzzFabric holds the boards to it.

// refHeadOf returns the head slot of the unit covering slot i, or -1
// when the slot is empty or mid-reconfiguration: a backward walk over
// the encodings.
func refHeadOf(f *Fabric, i int) int {
	for s := i; s >= 0; s-- {
		switch e := f.alloc.Slots[s]; {
		case e == arch.EncCont:
			continue
		case e == arch.EncEmpty:
			return -1
		default:
			if t, ok := arch.DecodeUnit(e); ok && s+arch.SlotCost(t) > i {
				return s
			}
			return -1
		}
	}
	return -1
}

// refSpan returns the slots [lo, hi) of the unit headed at head.
func refSpan(f *Fabric, head int) (int, int) {
	t, _ := arch.DecodeUnit(f.alloc.Slots[head])
	return head, head + arch.SlotCost(t)
}

// refSlotBad reports whether slot s is non-healthy or leased out.
func refSlotBad(f *Fabric, s int) bool {
	return f.health[s] != HealthHealthy || f.extUnavail&(1<<uint(s)) != 0
}

// refSlotUsable: every slot of the covering unit's span, or the slot
// alone when no unit covers it, is healthy and not leased out.
func refSlotUsable(f *Fabric, s int) bool {
	lo, hi := s, s+1
	if head := refHeadOf(f, s); head >= 0 {
		lo, hi = refSpan(f, head)
	}
	for k := lo; k < hi; k++ {
		if refSlotBad(f, k) {
			return false
		}
	}
	return true
}

// refCanReconfigure is CanReconfigure as a walk over the span's slots,
// resolving each to its covering unit; extBusy is the sibling-busy mask.
func refCanReconfigure(f *Fabric, t arch.UnitType, start int, extBusy uint16) bool {
	lo, hi := start, start+arch.SlotCost(t)
	if hi > arch.NumRFUSlots {
		return false
	}
	if f.busWidth > 0 && f.latency > 0 && f.busLoad() >= f.busWidth {
		return false
	}
	for s := lo; s < hi; s++ {
		if f.reconfigLeft(s) > 0 || f.extUnavail&(1<<uint(s)) != 0 || extBusy&(1<<uint(s)) != 0 {
			return false
		}
		if h := f.health[s]; h == HealthDetected || h == HealthRepairing || h == HealthDead {
			return false
		}
		head := refHeadOf(f, s)
		if head < 0 {
			continue
		}
		if f.busyLeft(head) > 0 {
			return false
		}
		hlo, hhi := refSpan(f, head)
		for k := hlo; k < hhi; k++ {
			if f.reconfigLeft(k) > 0 {
				return false
			}
		}
	}
	return true
}

// refOverlapping counts, per type, the units of the decoded allocation
// whose span meets slot s.
func refOverlapping(f *Fabric, s int) arch.Counts {
	var n arch.Counts
	for _, u := range (config.Configuration{Layout: f.alloc.Slots}).Units() {
		if u.Slot <= s && s < u.Slot+u.Span {
			n[u.Type]++
		}
	}
	return n
}

// refSpanBusy reports whether the unit covering slot s is executing.
func refSpanBusy(f *Fabric, s int) bool {
	if f.busyLeft(s) > 0 {
		return true
	}
	head := refHeadOf(f, s)
	return head >= 0 && f.busyLeft(head) > 0
}

// checkFabric compares every board-derived answer with the reference.
func checkFabric(t *testing.T, step int, f *Fabric, extBusy uint16) {
	t.Helper()
	if err := (config.Configuration{Layout: f.alloc.Slots}).Validate(); err != nil {
		t.Fatalf("step %d: allocation vector invalid: %v", step, err)
	}
	alloc, sigs := f.Allocation().Entries(), availabilitySignals(f)
	set := f.AvailableSet()
	for _, ty := range arch.UnitTypes() {
		if got, want := set&(1<<uint(ty)) != 0, avail.Available(ty, alloc, sigs); got != want {
			t.Fatalf("step %d: AvailableSet bit %v = %v, reference %v (layout %v)", step, ty, got, want, f.alloc.Slots)
		}
	}

	var unavail, dead uint8
	var busyT, reconfT uint32
	var wantBusy, wantUnits, wantFFU, wantEff arch.Counts
	for s := 0; s < arch.NumRFUSlots; s++ {
		if refSlotBad(f, s) {
			unavail |= 1 << uint(s)
		}
		if f.health[s] == HealthDead || f.extDead&(1<<uint(s)) != 0 {
			dead |= 1 << uint(s)
		}
		if f.busyLeft(s) > 0 {
			busyT |= 1 << uint(s)
		}
		if f.reconfigLeft(s) > 0 {
			reconfT |= 1 << uint(s)
		}
		if ty, ok := arch.DecodeUnit(f.alloc.Slots[s]); ok {
			wantUnits[ty]++
			if f.busyLeft(s) > 0 {
				wantBusy[ty]++
			}
			if refSlotUsable(f, s) {
				wantEff[ty]++
			}
		}
	}
	for i := 0; i < arch.NumFFUs; i++ {
		if f.ffuLeft(i) > 0 {
			wantFFU[i]++
		}
	}
	if u, d := f.HealthMasks(); u != unavail || d != dead {
		t.Fatalf("step %d: HealthMasks = %08b/%08b, reference %08b/%08b", step, u, d, unavail, dead)
	}
	masked := 0
	for _, h := range f.health {
		if h != HealthHealthy {
			masked++
		}
	}
	if got := f.MaskedSlots(); got != masked {
		t.Fatalf("step %d: MaskedSlots = %d, reference %d", step, got, masked)
	}
	if got := f.TimerMasks(); got != busyT|reconfT<<16 {
		t.Fatalf("step %d: TimerMasks = %#x, per-slot timers %#x", step, got, busyT|reconfT<<16)
	}
	if got, want := f.EffectiveTotalCounts(), wantEff.Add(config.FFUCounts()); got != want {
		t.Fatalf("step %d: EffectiveTotalCounts = %v, reference %v", step, got, want)
	}
	if b, u, ffu := f.UnitStates(); b != wantBusy || u != wantUnits || ffu != wantFFU {
		t.Fatalf("step %d: UnitStates = %v/%v/%v, reference %v/%v/%v", step, b, u, ffu, wantBusy, wantUnits, wantFFU)
	}

	busySlots := f.BusySlots()
	for s := 0; s < arch.NumRFUSlots; s++ {
		if got, want := f.Overlapping(1<<uint(s)), refOverlapping(f, s); got != want {
			t.Fatalf("step %d: Overlapping(slot %d) = %v, reference %v (layout %v)", step, s, got, want, f.alloc.Slots)
		}
		if got, want := busySlots&(1<<uint(s)) != 0, refSpanBusy(f, s); got != want {
			t.Fatalf("step %d: BusySlots bit %d = %v, reference %v", step, s, got, want)
		}
		for _, ty := range arch.UnitTypes() {
			if got, want := f.CanReconfigure(ty, s), refCanReconfigure(f, ty, s, extBusy); got != want {
				t.Fatalf("step %d: CanReconfigure(%v, %d) = %v, reference %v (layout %v)", step, ty, s, got, want, f.alloc.Slots)
			}
		}
	}
}

// FuzzFabric drives a fabric through arbitrary Reconfigure, Load,
// Acquire, ExtendBusy, Tick, Advance, InjectFault, SetExternalMasks,
// SetExternalSlotBusy, SetConfigBusWidth and SetFFUsEnabled sequences,
// with random upsets armed on some inputs, and after every operation
// checks the answers read from the head boards and masks against the
// slot-walking reference above: availability (Eq. 1), usability,
// effective counts, unit states, health and timer masks, the covering-
// unit query, the busy spans and every CanReconfigure answer. It also
// holds NextEvent to the nearest per-timer countdown and BusyCycles to
// a count of the executing units over every cycle that passed.
func FuzzFabric(f *testing.F) {
	// A three-slot FPALU, a fault on its last slot, then rewrites over
	// its head and across its span.
	f.Add([]byte{2, 0, 1, 0, 3, 5, 5, 5, 5, 5, 4, 1, 5, 2, 0, 0, 0, 0, 4, 0, 0, 1, 1, 4, 2})
	// IntMDU, LSU and FPALU under a sibling-busy mask on the FPALU head
	// and a leased LSU slot, then a rewrite of the FPALU's continuation.
	f.Add([]byte{0, 0, 1, 0, 1, 2, 3, 5, 5, 7, 1, 8, 6, 4, 0xff, 0, 0, 0, 4, 7, 0, 4, 0})
	// Random upsets with repair and salvage on a width-1 bus, and the
	// top two slots leased out halfway.
	f.Add([]byte{3, 5, 8, 1, 1, 0, 3, 1, 0, 2, 0, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2,
		6, 0xc0, 0xff, 0xff, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2})
	// An IntMDU executing on its RFU (the FFU taken first): no span
	// over either of its slots may be rewritten.
	f.Add([]byte{0, 0, 1, 0, 1, 5, 5, 5, 5, 5, 5, 2, 1, 3, 2, 1, 3})
	// FP units under random upsets with a one-cycle scrub: a repair in
	// flight on a unit's far slot blocks a rewrite of its head.
	f.Add([]byte("1\xc1y01010\"1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		fab := New(int(next() % 4))
		if arm := next(); arm&1 != 0 {
			fab.EnableFaults(fault.Plan{Seed: int64(arm), TransientRate: 0.02,
				PermanentRate: 0.01, ScrubInterval: 1 + int(arm>>1)%8})
		}
		var extBusy uint16
		checkFabric(t, -1, fab, extBusy)
		busyCycles := 0
		// executing counts the units whose busy countdown runs.
		executing := func() int {
			n := 0
			for s := 0; s < arch.NumRFUSlots; s++ {
				if fab.busyLeft(s) > 0 {
					n++
				}
			}
			for i := 0; i < arch.NumFFUs; i++ {
				if fab.ffuLeft(i) > 0 {
					n++
				}
			}
			return n
		}
		for step := 0; len(data) > 0; step++ {
			op, arg := next(), next()
			switch op % 10 {
			case 0:
				ty, s := arch.UnitType(arg%arch.NumUnitTypes), int(next()%arch.NumRFUSlots)
				if fab.CanReconfigure(ty, s) {
					fab.Reconfigure(ty, s)
				}
			case 1:
				// A random valid layout: each byte places a unit where it
				// fits or leaves the slot empty.
				var cfg config.Configuration
				for s := 0; s < arch.NumRFUSlots; {
					b := next()
					ty := arch.UnitType(b % arch.NumUnitTypes)
					if b%7 >= arch.NumUnitTypes || s+arch.SlotCost(ty) > arch.NumRFUSlots {
						s++
						continue
					}
					cfg.Layout[s] = arch.Encode(ty)
					for k := 1; k < arch.SlotCost(ty); k++ {
						cfg.Layout[s+k] = arch.EncCont
					}
					s += arch.SlotCost(ty)
				}
				fab.Load(cfg.Units())
			case 2:
				fab.Acquire(arch.UnitType(arg%arch.NumUnitTypes), 1+int(next()%6))
			case 3:
				// Extend a running unit: a busy fixed unit on an odd
				// argument, else a busy RFU head.
				if m := uint16(fab.ffuBusyMask); arg&1 != 0 && m != 0 {
					fab.ExtendBusy(UnitRef{FFU: true, Idx: bits.TrailingZeros16(m)}, int(next()%4))
				} else if m := fab.busyMask; m != 0 {
					fab.ExtendBusy(UnitRef{Idx: bits.TrailingZeros16(m)}, int(next()%4))
				}
			case 4:
				if next := fab.NextEvent(); arg&8 != 0 && next > 1 {
					n := min(1+int(arg>>4), next-1)
					busyCycles += n * executing()
					fab.Advance(n)
					break
				}
				for n := 1 + int(arg%3); n > 0; n-- {
					busyCycles += executing()
					fab.Tick()
				}
			case 5:
				fab.InjectFault(int(arg%arch.NumRFUSlots), next()&1 != 0)
			case 6:
				leased := arg & next()
				fab.SetExternalMasks(leased, leased&next())
			case 7:
				if arg&1 == 0 {
					extBusy = 0
					fab.SetExternalSlotBusy(nil)
				} else {
					extBusy = uint16(next())
					mask := extBusy
					fab.SetExternalSlotBusy(func() uint16 { return mask })
				}
			case 8:
				fab.SetConfigBusWidth(int(arg % 3))
			case 9:
				fab.SetFFUsEnabled(arg&1 == 0)
			}
			checkFabric(t, step, fab, extBusy)
			if got := fab.BusyCycles(); got != busyCycles {
				t.Fatalf("step %d: BusyCycles = %d, executing units counted over the cycles %d", step, got, busyCycles)
			}
			want := math.MaxInt
			for s := 0; s < arch.NumRFUSlots; s++ {
				for _, left := range []int{fab.busyLeft(s), fab.reconfigLeft(s)} {
					if left > 0 {
						want = min(want, left)
					}
				}
			}
			for i := 0; i < arch.NumFFUs; i++ {
				if left := fab.ffuLeft(i); left > 0 {
					want = min(want, left)
				}
			}
			if fab.FaultsEnabled() {
				want = 1
			}
			if got := fab.NextEvent(); got != want {
				t.Fatalf("step %d: NextEvent = %d, nearest countdown %d", step, got, want)
			}
		}
	})
}
