// Package config models processor configurations: the contents of the
// eight reconfigurable slots as a typed slot layout, the predefined
// steering basis of Table 1, and the resource allocation vector the
// configuration loader maintains (§3.2 of the paper).
package config

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/arch"
)

// Configuration is a named assignment of functional units to the
// reconfigurable slots. Multi-slot units occupy a contiguous span: the
// first slot holds the unit's encoding and the rest hold arch.EncCont.
type Configuration struct {
	Name   string
	Layout [arch.NumRFUSlots]arch.Encoding
}

// New builds a configuration by packing the given units into slots in
// order. It returns an error when the units do not fit the fabric.
func New(name string, units ...arch.UnitType) (Configuration, error) {
	c := Configuration{Name: name}
	slot := 0
	for _, u := range units {
		cost := arch.SlotCost(u)
		if slot+cost > arch.NumRFUSlots {
			return Configuration{}, fmt.Errorf("config %q: units need more than %d slots", name, arch.NumRFUSlots)
		}
		c.Layout[slot] = arch.Encode(u)
		for k := 1; k < cost; k++ {
			c.Layout[slot+k] = arch.EncCont
		}
		slot += cost
	}
	return c, nil
}

// MustNew is New for static configuration tables; it panics on error.
func MustNew(name string, units ...arch.UnitType) Configuration {
	c, err := New(name, units...)
	if err != nil {
		panic(err)
	}
	return c
}

// Counts returns how many units of each type the configuration provides
// in the reconfigurable fabric (continuation slots are not counted).
func (c Configuration) Counts() arch.Counts {
	var n arch.Counts
	for _, e := range c.Layout {
		if t, ok := arch.DecodeUnit(e); ok {
			n[t]++
		}
	}
	return n
}

// Units returns the units of the configuration in slot order, with the
// starting slot of each.
func (c Configuration) Units() []PlacedUnit {
	return c.AppendUnits(nil)
}

// AppendUnits appends the units of the configuration in slot order to
// dst and returns the extended slice. Callers on the per-cycle path pass
// a reusable scratch slice (dst[:0]) to avoid allocating; a nil dst
// behaves like Units.
func (c Configuration) AppendUnits(dst []PlacedUnit) []PlacedUnit {
	for slot := 0; slot < arch.NumRFUSlots; {
		t, ok := arch.DecodeUnit(c.Layout[slot])
		if !ok {
			slot++
			continue
		}
		dst = append(dst, PlacedUnit{Type: t, Slot: slot, Span: arch.SlotCost(t)})
		slot += arch.SlotCost(t)
	}
	return dst
}

// Validate checks the structural invariants of the layout: every unit
// head is followed by exactly SlotCost-1 continuation slots, and no
// continuation slot appears without a head.
func (c Configuration) Validate() error {
	slot := 0
	for slot < arch.NumRFUSlots {
		e := c.Layout[slot]
		switch {
		case e == arch.EncEmpty:
			slot++
		case e == arch.EncCont:
			return fmt.Errorf("config %q: orphan continuation at slot %d", c.Name, slot)
		default:
			t, ok := arch.DecodeUnit(e)
			if !ok {
				return fmt.Errorf("config %q: invalid encoding %d at slot %d", c.Name, e, slot)
			}
			span := arch.SlotCost(t)
			if slot+span > arch.NumRFUSlots {
				return fmt.Errorf("config %q: %v at slot %d overruns the fabric", c.Name, t, slot)
			}
			for k := 1; k < span; k++ {
				if c.Layout[slot+k] != arch.EncCont {
					return fmt.Errorf("config %q: %v at slot %d missing continuation at slot %d", c.Name, t, slot, slot+k)
				}
			}
			slot += span
		}
	}
	return nil
}

// String renders the layout, e.g. "int: [IntALU IntALU IntALU IntALU IntMDU cont LSU LSU]".
func (c Configuration) String() string {
	parts := make([]string, len(c.Layout))
	for i, e := range c.Layout {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s: [%s]", c.Name, strings.Join(parts, " "))
}

// PlacedUnit is one unit of a configuration with its slot placement.
type PlacedUnit struct {
	Type arch.UnitType
	Slot int // first slot of the unit's span
	Span int // number of slots occupied
}

// DefaultBasis returns the three predefined steering configurations used
// throughout the experiments (DESIGN.md §4, calibrated from the paper's
// Table 1):
//
//	1 "integer":  4×IntALU + 1×IntMDU + 2×LSU  (8 slots)
//	2 "memory":   2×IntALU + 1×IntMDU + 4×LSU  (8 slots)
//	3 "floating": 1×IntALU + 1×LSU + 1×FPALU + 1×FPMDU (8 slots)
//
// The configuration manager additionally scores the *current*
// configuration (config 0), which is whatever hybrid the loader has
// produced and is not part of the basis.
func DefaultBasis() [3]Configuration {
	return [3]Configuration{
		MustNew("integer",
			arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU,
			arch.IntMDU, arch.LSU, arch.LSU),
		MustNew("memory",
			arch.IntALU, arch.IntALU, arch.IntMDU,
			arch.LSU, arch.LSU, arch.LSU, arch.LSU),
		MustNew("floating",
			arch.IntALU, arch.LSU, arch.FPALU, arch.FPMDU),
	}
}

// FFUCounts returns the unit mix of the fixed functional units: one of
// each type (Fig. 1).
func FFUCounts() arch.Counts {
	var n arch.Counts
	for t := range n {
		n[t] = 1
	}
	return n
}

// Classify names a slot layout: "(empty)" when every slot is empty, the
// name of the basis configuration it equals, or "hybrid".
func Classify(slots [arch.NumRFUSlots]arch.Encoding, basis [3]Configuration) string {
	if slots == ([arch.NumRFUSlots]arch.Encoding{}) { // every slot arch.EncEmpty
		return "(empty)"
	}
	for _, cfg := range basis {
		if slots == cfg.Layout {
			return cfg.Name
		}
	}
	return "hybrid"
}

// AllocationVector is the configuration loader's record of what is
// configured where (§3.2): one 3-bit encoding per reconfigurable slot
// followed by one per fixed functional unit. The fixed portion never
// changes; it exists because the availability circuit of Fig. 7 consults
// both portions.
type AllocationVector struct {
	Slots [arch.NumRFUSlots]arch.Encoding
	FFUs  [arch.NumFFUs]arch.Encoding
}

// NewAllocationVector returns the reset-state vector: all reconfigurable
// slots empty, fixed units one per type.
func NewAllocationVector() AllocationVector {
	var v AllocationVector
	for i, t := range arch.UnitTypes() {
		v.FFUs[i] = arch.Encode(t)
	}
	return v
}

// Entries returns the full vector — reconfigurable slots first, then
// fixed units — as the flat sequence Eq. 1 ranges over.
func (v AllocationVector) Entries() []arch.Encoding {
	out := make([]arch.Encoding, 0, arch.NumRFUSlots+arch.NumFFUs)
	out = append(out, v.Slots[:]...)
	out = append(out, v.FFUs[:]...)
	return out
}

// RFUCounts returns the unit mix currently configured in the
// reconfigurable fabric.
func (v AllocationVector) RFUCounts() arch.Counts {
	return Configuration{Layout: v.Slots}.Counts()
}

// Distance is the number of reconfigurable slots whose encoding differs
// from the target configuration — the XOR step the loader performs when
// a new configuration is chosen (§3.2). The minimal error selector uses
// it to break ties toward the configuration needing the least
// reconfiguration.
func (v AllocationVector) Distance(target Configuration) int {
	return LayoutDistance(PackLayout(v.Slots), PackLayout(target.Layout))
}

// PackLayout packs a slot layout into one word, arch.EncodingBits per slot
// with slot 0 in the low bits: the form the fabric keeps its allocation
// in and the managers key their tables on.
func PackLayout(slots [arch.NumRFUSlots]arch.Encoding) uint32 {
	var w uint32
	for i, e := range slots {
		w |= uint32(e) << (uint(i) * arch.EncodingBits)
	}
	return w
}

// LayoutDistance counts the slots in which two packed layouts differ:
// each differing slot leaves a non-zero 3-bit field in a^b, which the
// two shifts fold into that field's low bit.
func LayoutDistance(a, b uint32) int {
	const lowBits = 0o11111111 // bit 0 of each slot's field
	x := a ^ b
	return bits.OnesCount32((x | x>>1 | x>>2) & lowBits)
}

// String renders both portions of the vector.
func (v AllocationVector) String() string {
	parts := make([]string, 0, arch.NumRFUSlots+arch.NumFFUs)
	for _, e := range v.Slots {
		parts = append(parts, e.String())
	}
	ffu := make([]string, 0, arch.NumFFUs)
	for _, e := range v.FFUs {
		ffu = append(ffu, e.String())
	}
	return fmt.Sprintf("RFU[%s] FFU[%s]", strings.Join(parts, " "), strings.Join(ffu, " "))
}
