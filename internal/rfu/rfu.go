// Package rfu models the execution fabric of Fig. 1: five fixed
// functional units (one per type) plus eight reconfigurable slots that
// partial reconfiguration rewrites at unit granularity. The fabric tracks,
// per slot, what is configured (the resource allocation vector of §3.2),
// whether the unit headed there is busy executing, and whether the slot is
// mid-reconfiguration; it exposes the per-type availability lines the
// availability circuit of Fig. 7 computes and enforces the paper's rule
// that only idle RFUs are ever reconfigured.
package rfu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/trace"
)

// UnitRef identifies one functional-unit instance: a fixed unit (by type)
// or a reconfigurable unit (by head slot).
type UnitRef struct {
	FFU bool
	Idx int // unit type ordinal for FFUs, head slot index for RFUs
}

// String renders the reference for traces.
func (r UnitRef) String() string {
	if r.FFU {
		return fmt.Sprintf("FFU(%v)", arch.UnitType(r.Idx))
	}
	return fmt.Sprintf("RFU(slot %d)", r.Idx)
}

// Fabric is the execution fabric. The zero value is unusable; use New.
type Fabric struct {
	alloc config.AllocationVector

	target [arch.NumRFUSlots]arch.Encoding // per slot, the encoding its reconfiguration installs

	latency     int  // cycles to reconfigure one span
	ffuDisabled bool // X4 ablation: hide the fixed units
	// busWidth caps how many spans may reconfigure concurrently,
	// modelling the configuration bus of Fig. 1 (0 = unlimited).
	busWidth int

	// Statistics.
	reconfigurations int // spans rewritten
	reconfigCycles   int // slot-cycles spent reconfiguring
	// busyCycles is the slot+FFU cycles of execution claimed so far,
	// the running timers' remainders included; BusyCycles subtracts
	// those.
	busyCycles int

	// Packed hot-path masks, maintained incrementally at the (rare)
	// mutation sites so the per-cycle availability, acquire and timer
	// paths work on bits instead of walking every slot. They are the
	// fabric's only derived copy of its slot state: busyMask/reconfigMask
	// carry the slots with running execution/reconfiguration timers,
	// ffuBusyMask the busy fixed units, heads[t] the head slots whose
	// encoding names a unit of type t (so a unit's span is its head bit
	// shifted over its slot cost; see overlap), and healthOKMask the
	// slots whose covering unit may serve work. allocVersion counts
	// allocation-vector rewrites so downstream consumers (core.Manager's
	// fabric view) can memoize derived views.
	busyMask     uint16
	reconfigMask uint16
	ffuBusyMask  uint8
	heads        [arch.NumUnitTypes]uint16
	healthOKMask uint16
	allocVersion uint64
	// layout is alloc.Slots packed by config.PackLayout, kept with the
	// head boards so layout-keyed consumers read one word.
	layout uint32

	// due holds each timer's end as a tick of now's clock (see the
	// timer indices): per reconfigurable slot the end of execution,
	// tracked at head slots, and the end of reconfiguration; per fixed
	// unit the end of execution. A timer runs while its bit is set in
	// busyMask, reconfigMask or ffuBusyMask, and a running timer is
	// filed under its end in wheel[end%wheelSize] (a mirror's
	// reconfiguration timers belong to its master and are not filed).
	// now counts Ticks; a deadline wheelSize or more ticks ahead shares
	// its word with nearer ones and stays filed until its own tick.
	due   [numTimers]int
	wheel [wheelSize]uint32
	now   int

	obs *trace.Observer

	// Fault injection & degraded mode (see health.go). injector is nil
	// unless EnableFaults armed it; healthOKMask starts all-set so the
	// hot-path masks cost one load when faults are off.
	injector       *fault.Injector
	health         [arch.NumRFUSlots]SlotHealth
	permanent      [arch.NumRFUSlots]bool // stuck fault underneath the corruption
	unavailMask    uint8                  // packed non-healthy slots (incl. external leases)
	deadMask       uint8                  // packed permanently retired slots (incl. external)
	scrubCountdown int
	fstats         FaultStats

	// Cluster hooks (see internal/cluster). External masks overlay
	// slots leased to sibling cores onto the health view; the bus-load
	// and busy-slots callbacks extend the configuration-bus occupancy
	// and span-drain checks across sibling fabrics sharing the physical
	// resources. A mirror fabric reflects a master's configuration
	// (merged-mode gang sharing) while keeping private execution ports.
	// All are zero/nil by default, so a scalar fabric pays nothing.
	extUnavail  uint8
	extDead     uint8
	extBusLoad  func() int
	extSlotBusy func() uint16
	mirror      bool
}

// New returns an empty fabric (no RFU units configured) whose span
// reconfigurations take latency cycles. A zero latency models free
// reconfiguration; negative latencies panic.
func New(latency int) *Fabric {
	if latency < 0 {
		panic("rfu: negative reconfiguration latency")
	}
	f := &Fabric{alloc: config.NewAllocationVector(), latency: latency}
	f.healthOKMask = 1<<arch.NumRFUSlots - 1
	return f
}

// The fabric's timer indices, bit positions of the wheel words: slot
// s's execution timer is busyTimer+s, its reconfiguration timer
// reconfigTimer+s, and fixed unit t's execution timer ffuTimer+t.
const (
	busyTimer     = 0
	reconfigTimer = busyTimer + arch.NumRFUSlots
	ffuTimer      = reconfigTimer + arch.NumRFUSlots
	numTimers     = ffuTimer + arch.NumFFUs
)

// wheelSize is the deadline wheel's length in ticks, a power of two
// above every default execution latency.
const wheelSize = 64

// file starts timer k toward tick end, after now.
func (f *Fabric) file(k, end int) {
	f.due[k] = end
	f.wheel[end&(wheelSize-1)] |= 1 << uint(k)
}

// unfile stops running timer k.
func (f *Fabric) unfile(k int) {
	f.wheel[f.due[k]&(wheelSize-1)] &^= 1 << uint(k)
}

// refreshAlloc rebuilds the per-type head boards and the packed layout
// word and bumps the version counter. Call after any alloc.Slots
// mutation.
func (f *Fabric) refreshAlloc() {
	f.heads = [arch.NumUnitTypes]uint16{}
	var layout uint32 // config.PackLayout, folded into the head walk
	for s, e := range f.alloc.Slots {
		layout |= uint32(e) << (uint(s) * arch.EncodingBits)
		if t, ok := arch.DecodeUnit(e); ok {
			f.heads[t] |= 1 << uint(s)
		}
	}
	f.layout = layout
	f.allocVersion++
}

// overlap is the fabric's covering-unit query, read from the head
// boards: slots is the union of the whole spans of the configured units
// that overlap any slot of m, and n counts those units per type.
func (f *Fabric) overlap(m uint16) (slots uint16, n arch.Counts) {
	// A head at h covers h..h+cost-1, so it overlaps m when it lies in
	// m or up to cost-1 slots below a slot of m (spans are at most
	// three slots).
	reach := [4]uint16{0, m, m | m>>1, m | m>>1 | m>>2}
	for t, heads := range f.heads {
		cost := arch.SlotCost(arch.UnitType(t))
		if hit := heads & reach[cost]; hit != 0 {
			n[t] = bits.OnesCount16(hit)
			for k := 0; k < cost; k++ {
				slots |= hit << uint(k)
			}
		}
	}
	return slots, n
}

// spans returns the whole spans of the configured units overlapping m.
func (f *Fabric) spans(m uint16) uint16 {
	slots, _ := f.overlap(m)
	return slots
}

// Overlapping counts, per type, the configured units that overlap any
// slot of m — the units a rewrite of those slots destroys.
func (f *Fabric) Overlapping(m uint16) arch.Counts {
	_, n := f.overlap(m)
	return n
}

// BusySlots returns the slots of every executing unit's span. Busy is
// tracked at head slots, so the spans cover the continuations.
func (f *Fabric) BusySlots() uint16 { return f.busyMask | f.spans(f.busyMask) }

// idleHeads returns the slots that are not executing, not
// reconfiguring and healthy; a head board masked with it gives the
// units of that type that can accept work this cycle.
func (f *Fabric) idleHeads() uint16 {
	return ^f.busyMask &^ f.reconfigMask & f.healthOKMask
}

// AllocVersion returns a counter that changes whenever the allocation
// vector does — the memoization key for derived views of the layout.
func (f *Fabric) AllocVersion() uint64 { return f.allocVersion }

// LayoutWord returns the live slot layout packed by config.PackLayout.
func (f *Fabric) LayoutWord() uint32 { return f.layout }

// TimerMasks packs the slots with running execution (low half) and
// reconfiguration (high half) timers. On a fabric without faults or
// cluster hooks, they and the allocation vector decide every
// CanReconfigure answer, so tests compare twin fabrics by them.
func (f *Fabric) TimerMasks() uint32 {
	return uint32(f.busyMask) | uint32(f.reconfigMask)<<16
}

// ReconfigLatency returns the per-span reconfiguration latency.
func (f *Fabric) ReconfigLatency() int { return f.latency }

// Allocation returns the current resource allocation vector.
func (f *Fabric) Allocation() config.AllocationVector { return f.alloc }

// SetConfigBusWidth caps concurrent span reconfigurations, modelling the
// configuration bus of Fig. 1: width 1 serialises all configuration
// loading through one bus; 0 (the default) is unlimited.
func (f *Fabric) SetConfigBusWidth(w int) {
	if w < 0 {
		panic("rfu: negative config bus width")
	}
	f.busWidth = w
}

// activeSpans counts spans currently occupying the configuration bus:
// steering rewrites (the reconfiguring slots whose pending target is a
// unit encoding) and fault repairs, which rewrite one slot each and
// compete for the same bus.
func (f *Fabric) activeSpans() int {
	n := 0
	for m := f.reconfigMask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros16(m)
		if f.target[s] != arch.EncCont || f.health[s] == HealthRepairing {
			n++
		}
	}
	return n
}

// ActiveSpans exposes the configuration-bus occupancy — the cluster
// layer sums it across sibling fabrics to enforce one shared bus.
func (f *Fabric) ActiveSpans() int { return f.activeSpans() }

// busLoad is the bus occupancy this fabric must respect: its own active
// spans plus whatever a cluster-installed hook reports for siblings
// sharing the physical configuration bus.
func (f *Fabric) busLoad() int {
	n := f.activeSpans()
	if f.extBusLoad != nil {
		n += f.extBusLoad()
	}
	return n
}

// SetExternalBusLoad installs a hook reporting configuration-bus
// occupancy by sibling fabrics; it is added to this fabric's own active
// spans in every bus-capacity check. nil (the default) disables it.
func (f *Fabric) SetExternalBusLoad(fn func() int) { f.extBusLoad = fn }

// SetExternalSlotBusy installs a hook returning the slots sibling cores
// are executing on in the shared fabric (their BusySlots). Reconfiguration,
// repair and salvage treat a sibling-busy slot like a locally busy one:
// its frames are not rewritten until the work drains. nil disables it.
func (f *Fabric) SetExternalSlotBusy(fn func() uint16) { f.extSlotBusy = fn }

// extBusy returns the sibling-busy slots, or none without the hook.
func (f *Fabric) extBusy() uint16 {
	if f.extSlotBusy == nil {
		return 0
	}
	return f.extSlotBusy()
}

// SetMirror marks the fabric as a configuration mirror: Tick still
// advances its private execution (RFU busy, FFU) timers, but the
// reconfiguration countdowns and the fault machinery belong to the
// master fabric it reflects (see MirrorFrom). Merged-mode cluster
// cores run on mirrors of core 0's fabric. Only a fabric's own
// reconfiguration timers are filed, so the fabric must not be
// reconfiguring (the cluster switches modes on idle fabrics).
func (f *Fabric) SetMirror(on bool) {
	if f.reconfigMask != 0 {
		panic("rfu: SetMirror on a reconfiguring fabric")
	}
	f.mirror = on
}

// MirrorFrom copies the master fabric's configuration state — the
// allocation vector and in-flight reconfiguration timers — into this
// mirror, so a gang-shared core sees the master's layout while keeping
// its own execution ports. Call once per cycle after the master ticks.
func (f *Fabric) MirrorFrom(src *Fabric) {
	if f.alloc.Slots != src.alloc.Slots {
		f.alloc.Slots = src.alloc.Slots
		f.refreshAlloc()
		if f.injector != nil || f.extUnavail != 0 {
			f.recomputeHealthOK()
		}
	}
	// The master's deadlines are on its own clock; carry the
	// countdowns over to this one's.
	for k := reconfigTimer; k < reconfigTimer+arch.NumRFUSlots; k++ {
		f.due[k] = src.due[k] - src.now + f.now
	}
	f.target = src.target
	f.reconfigMask = src.reconfigMask
}

// SetFFUsEnabled hides or restores the fixed functional units — the X4
// ablation studying the paper's claim that FFUs guarantee forward
// progress. With FFUs disabled only configured RFUs execute instructions.
func (f *Fabric) SetFFUsEnabled(enabled bool) { f.ffuDisabled = !enabled }

// Install loads a full configuration immediately, bypassing the
// reconfiguration latency — used to preset static-baseline machines
// before time starts. The fabric must be completely idle.
func (f *Fabric) Install(cfg config.Configuration) {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("rfu: install of invalid configuration: %v", err))
	}
	if !f.Idle() {
		panic("rfu: install on a non-idle fabric")
	}
	f.alloc.Slots = cfg.Layout
	f.refreshAlloc()
	if f.injector != nil || f.extUnavail != 0 {
		f.recomputeHealthOK()
	}
}

// AvailableSet returns the per-type availability lines packed into a
// bitset (bit t set when a unit of type t can accept work this cycle,
// Eq. 1 over the live allocation vector and availability signals): one
// mask test of each type's head board against the idle slots.
// TestFabricAvailabilityMatchesEquation1 holds it to the reference
// avail.Available.
func (f *Fabric) AvailableSet() uint8 {
	var out uint8
	idle := f.idleHeads()
	for t, heads := range f.heads {
		if heads&idle != 0 {
			out |= 1 << uint(t)
		}
	}
	if !f.ffuDisabled {
		out |= ^f.ffuBusyMask & (1<<arch.NumFFUs - 1)
	}
	return out
}

// Acquire claims an idle unit of type t for busyCycles cycles of
// execution, preferring a fixed unit so the reconfigurable fabric stays
// eligible for steering. It returns ok=false when no unit of the type is
// available.
func (f *Fabric) Acquire(t arch.UnitType, busyCycles int) (UnitRef, bool) {
	if busyCycles < 1 {
		panic("rfu: acquire with non-positive busy time")
	}
	if f.ffuBusyMask>>uint(t)&1 == 0 && !f.ffuDisabled {
		f.busyCycles += busyCycles
		f.file(ffuTimer+int(t), f.now+busyCycles)
		f.ffuBusyMask |= 1 << uint(t)
		return UnitRef{FFU: true, Idx: int(t)}, true
	}
	if m := f.heads[t] & f.idleHeads(); m != 0 {
		s := bits.TrailingZeros16(m)
		f.busyCycles += busyCycles
		f.file(busyTimer+s, f.now+busyCycles)
		f.busyMask |= 1 << uint(s)
		return UnitRef{Idx: s}, true
	}
	return UnitRef{}, false
}

// ExtendBusy lengthens a claimed unit's remaining execution time — used
// when an instruction's latency grows in flight (e.g. a cache miss).
func (f *Fabric) ExtendBusy(r UnitRef, extra int) {
	if extra < 0 {
		panic("rfu: negative busy extension")
	}
	k, mask := busyTimer+r.Idx, uint(f.busyMask)
	if r.FFU {
		k, mask = ffuTimer+r.Idx, uint(f.ffuBusyMask)
	}
	if mask>>uint(r.Idx)&1 == 0 {
		panic(fmt.Sprintf("rfu: ExtendBusy of idle %v", r))
	}
	f.unfile(k)
	f.file(k, f.due[k]+extra)
	f.busyCycles += extra
}

// spanOf returns the slot span [start, start+n) a unit of type t would
// occupy at head slot start.
func spanOf(t arch.UnitType, start int) (int, int) {
	return start, start + arch.SlotCost(t)
}

// CanReconfigure reports whether the span a unit of type t would occupy
// at head slot start is reconfigurable right now: the span lies in the
// fabric and every slot it touches — including all slots of any existing
// unit overlapping the span — is idle and not already reconfiguring.
// This is the paper's "only reconfigure RFUs that are not busy" rule at
// span granularity.
func (f *Fabric) CanReconfigure(t arch.UnitType, start int) bool {
	lo, hi := spanOf(t, start)
	if lo < 0 || hi > arch.NumRFUSlots {
		return false
	}
	if f.busWidth > 0 && f.latency > 0 && f.busLoad() >= f.busWidth {
		return false // configuration bus fully occupied
	}
	m := spanMask(lo, hi)
	// A slot mid-reconfiguration is already being rewritten. Slots
	// leased to a sibling core are that core's property; this core's
	// steering never rewrites them. A sibling core executing on a slot
	// holds it like local busy execution does: the span drains before
	// any rewrite.
	if m&(uint16(f.extUnavail)|f.reconfigMask|f.extBusy()) != 0 {
		return false
	}
	// Slots the controller knows are bad — flagged by the scrub,
	// mid-repair, or permanently dead — are off limits to steering; the
	// repair path owns them. Undetected corruption does not block a
	// rewrite (the controller cannot see it), and the rewrite
	// incidentally heals transient upsets.
	for s := lo; s < hi; s++ {
		if h := f.health[s]; h == HealthDetected || h == HealthRepairing || h == HealthDead {
			return false
		}
	}
	// Every overlapped unit must be idle, and destroying it must not
	// leave a busy remnant — spans are destroyed whole. Nor may
	// destruction strand an in-flight repair on one of the unit's slots
	// outside the new span: that repair would later re-install its
	// golden-copy continuation encoding into the blanked region,
	// orphaning it. Wait for the unit's bus transactions to drain first.
	covered := f.spans(m)
	return covered&(f.busyMask|f.reconfigMask) == 0
}

// spanMask returns the slot mask of the span [lo, hi).
func spanMask(lo, hi int) uint16 { return (1<<uint(hi-lo) - 1) << uint(lo) }

// Reconfigure begins rewriting the span at head slot start to hold a unit
// of type t. Any existing unit overlapping the span is removed whole (its
// slots outside the new span become empty). The new unit becomes
// available after the fabric's reconfiguration latency; with a zero
// latency it is available immediately. Callers must check CanReconfigure
// first; violations panic.
//
// Reconfigure is idempotent in effect: if the span already holds exactly
// a unit of type t, it reports false and does nothing ("the RFU will not
// be reconfigured if it already implements the specified functional
// unit", §3.2).
func (f *Fabric) Reconfigure(t arch.UnitType, start int) bool {
	if !f.CanReconfigure(t, start) {
		panic(fmt.Sprintf("rfu: illegal reconfiguration of %v at slot %d", t, start))
	}
	lo, hi := spanOf(t, start)
	if f.alloc.Slots[lo] == arch.Encode(t) {
		return false // already implements the unit
	}
	// Remove overlapped units whole.
	for m := f.spans(spanMask(lo, hi)); m != 0; m &= m - 1 {
		f.alloc.Slots[bits.TrailingZeros16(m)] = arch.EncEmpty
	}
	// Install the new span.
	for s := lo; s < hi; s++ {
		f.alloc.Slots[s] = arch.EncEmpty
		f.target[s] = arch.EncCont
		if f.latency > 0 {
			f.file(reconfigTimer+s, f.now+f.latency)
		}
	}
	if f.latency > 0 {
		f.reconfigMask |= spanMask(lo, hi)
	}
	f.target[lo] = arch.Encode(t)
	f.reconfigurations++
	f.reconfigCycles += (hi - lo) * f.latency
	f.obs.Emit(trace.Event{Kind: trace.KindReconfig, A: int32(lo), B: int32(hi - lo),
		C: int32(f.latency), Str: t.String()})
	if f.latency == 0 {
		for s := lo; s < hi; s++ {
			f.alloc.Slots[s] = f.target[s]
			if f.injector != nil {
				f.installHealth(s)
			}
		}
	}
	f.refreshAlloc()
	if f.injector != nil || f.extUnavail != 0 {
		f.recomputeHealthOK()
	}
	return true
}

// Load is the configuration loader of §3.2: it steers the fabric toward
// units by rewriting every span that differs from the live allocation,
// provided CanReconfigure admits it now, and deferring it otherwise. A
// unit already in place is skipped. It returns the span rewrites
// started, the slots they cover, and the slots deferred.
func (f *Fabric) Load(units []config.PlacedUnit) (started, loading, deferred int) {
	for _, u := range units {
		if f.alloc.Slots[u.Slot] == arch.Encode(u.Type) {
			continue // already implements the specified unit
		}
		if !f.CanReconfigure(u.Type, u.Slot) {
			deferred += u.Span
			continue
		}
		if f.Reconfigure(u.Type, u.Slot) {
			started++
			loading += u.Span
		}
	}
	return started, loading, deferred
}

// Tick advances one cycle: execution busy timers and reconfiguration
// timers count down, spans whose reconfiguration completes install
// their new encodings, and — when a fault injector is armed — the fault
// state machine runs (scrub, repair, salvage, new upsets). It reports
// whether any of that changed the fabric. The timers that end are the
// ones filed in the new tick's wheel word whose deadline is not a whole
// wheel turn or more away.
func (f *Fabric) Tick() bool {
	f.now++
	var ended uint32
	if w := &f.wheel[f.now&(wheelSize-1)]; *w != 0 {
		for m := *w; m != 0; m &= m - 1 {
			if k := bits.TrailingZeros32(m); f.due[k] <= f.now {
				ended |= 1 << uint(k)
			}
		}
		*w &^= ended
	}
	if ended != 0 {
		f.busyMask &^= uint16(ended >> busyTimer)
		f.ffuBusyMask &^= uint8(ended >> ffuTimer)
		if done := uint16(ended>>reconfigTimer) & f.reconfigMask; done != 0 {
			f.complete(done)
		}
	}
	if !f.mirror && f.injector != nil {
		f.faultTick()
		return true
	}
	return ended != 0
}

// complete installs the target encodings of the slots in done, whose
// reconfiguration timers ended.
func (f *Fabric) complete(done uint16) {
	f.reconfigMask &^= done
	installed := false
	for m := done; m != 0; m &= m - 1 {
		s := bits.TrailingZeros16(m)
		f.alloc.Slots[s] = f.target[s]
		if f.injector != nil {
			f.installHealth(s)
			installed = true
		}
	}
	f.refreshAlloc()
	if installed || f.extUnavail != 0 {
		f.recomputeHealthOK()
	}
}

// NextEvent returns how many Ticks ahead the next timer ends (1 is the
// next Tick), or math.MaxInt when none runs. With a fault injector
// armed every Tick is an event.
func (f *Fabric) NextEvent() int {
	if f.injector != nil && !f.mirror {
		return 1
	}
	running := uint32(f.busyMask)<<busyTimer | uint32(f.ffuBusyMask)<<ffuTimer
	if !f.mirror {
		running |= uint32(f.reconfigMask) << reconfigTimer
	}
	next := math.MaxInt
	for m := running; m != 0; m &= m - 1 {
		next = min(next, f.due[bits.TrailingZeros32(m)]-f.now)
	}
	return next
}

// Advance counts n Ticks in which no timer ends: n must be below
// NextEvent. Executing units stay busy through them, so BusyCycles
// grows by n for each.
func (f *Fabric) Advance(n int) {
	if next := f.NextEvent(); n >= next {
		panic(fmt.Sprintf("rfu: Advance(%d) passes a deadline %d ticks ahead", n, next))
	}
	f.now += n
}

// Idle reports whether the whole reconfigurable fabric is quiescent: no
// slot executing and none reconfiguring. The fixed units do not count —
// they are never reconfigured.
func (f *Fabric) Idle() bool { return f.busyMask|f.reconfigMask == 0 }

// SetObserver installs the event stream receiving span rewrites and
// fault transitions (nil disables; each site then costs one branch).
func (f *Fabric) SetObserver(o *trace.Observer) { f.obs = o }

// Observer returns the installed event stream (nil when none): the
// configuration managers bound to the fabric emit their selections,
// decisions and speculations on it.
func (f *Fabric) Observer() *trace.Observer { return f.obs }

// ReconfiguringSlots counts slots currently mid-reconfiguration — the
// sampler's in-flight reconfiguration gauge.
func (f *Fabric) ReconfiguringSlots() int { return bits.OnesCount16(f.reconfigMask) }

// UnitStates summarises the fabric for the sampler: per-type counts of
// busy RFU heads, configured RFU heads, and busy FFUs.
func (f *Fabric) UnitStates() (rfuBusy, rfuUnits, ffuBusy arch.Counts) {
	for t, heads := range f.heads {
		rfuUnits[t] = bits.OnesCount16(heads)
		rfuBusy[t] = bits.OnesCount16(heads & f.busyMask)
		ffuBusy[t] = int(f.ffuBusyMask >> uint(t) & 1)
	}
	return
}

// Statistics accessors.

// Reconfigurations returns the number of span rewrites started.
func (f *Fabric) Reconfigurations() int { return f.reconfigurations }

// ReconfigurationCycles returns total slot-cycles spent reconfiguring.
func (f *Fabric) ReconfigurationCycles() int { return f.reconfigCycles }

// BusyCycles returns total unit-cycles spent executing: the cycles
// claimed, less what the running timers have left.
func (f *Fabric) BusyCycles() int {
	n := f.busyCycles
	for m := uint32(f.busyMask)<<busyTimer | uint32(f.ffuBusyMask)<<ffuTimer; m != 0; m &= m - 1 {
		n -= f.due[bits.TrailingZeros32(m)] - f.now
	}
	return n
}
