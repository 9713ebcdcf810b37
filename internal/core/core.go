// Package core implements the paper's primary contribution: the
// configuration manager of §3 — the four-stage configuration selection
// unit of Fig. 2 (unit decoders, resource requirement encoders,
// configuration error metric generators, minimal error selection) and the
// configuration loader of §3.2 that steers the reconfigurable fabric
// toward the selected configuration by partially reconfiguring only the
// RFUs that differ and are idle.
package core

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/rfu"
	"repro/internal/trace"
)

// UnitDecoder is stage 1 of the selection unit: it turns one queued
// instruction's required unit type into the one-hot vector of Fig. 2.
func UnitDecoder(t arch.UnitType) [arch.NumUnitTypes]bool {
	var v [arch.NumUnitTypes]bool
	v[t] = true
	return v
}

// EncodeRequirements is stage 2: it sums the one-hot vectors of all
// queued instructions into the per-type three-bit requirement counts.
// With at most arch.QueueSize instructions the counts cannot overflow.
func EncodeRequirements(units []arch.UnitType) arch.Counts {
	var c arch.Counts
	for _, t := range units {
		oneHot := UnitDecoder(t)
		for ty, set := range oneHot {
			if set {
				c[ty]++
			}
		}
	}
	return c
}

// Selection is the outcome of one pass through the selection unit.
type Selection struct {
	// Choice identifies the winning configuration: 0 is the current
	// configuration, 1..3 the predefined steering configurations — the
	// unit's two-bit output.
	Choice int
	// Errors holds the four configuration error metrics, indexed like
	// Choice.
	Errors [arch.NumConfigs]int
	// Distances holds each candidate's reconfiguration distance from
	// the current allocation (zero for the current configuration).
	Distances [arch.NumConfigs]int
	// Required is the encoded requirement vector the metrics scored.
	Required arch.Counts
}

// Current reports whether the selection kept the current configuration.
func (s *Selection) Current() bool { return s.Choice == 0 }

// key builds the lexicographic comparison key the minimal-error selector
// orders candidates by: error first, then reconfiguration distance (the
// paper's tie-break toward least reconfiguration, which also makes the
// current configuration — distance zero — win every tie), then candidate
// index for determinism.
func key(err, distance, index int) int {
	return err<<6 | distance<<2 | index
}

// MinimalErrorSelect is stage 4: it returns the index of the candidate
// with the smallest (error, distance, index) key. Errors must be 3-bit
// values and distances at most arch.NumRFUSlots; out-of-range inputs
// panic, as they indicate a wiring error.
func MinimalErrorSelect(errors, distances [arch.NumConfigs]int) int {
	best := -1
	bestKey := 0
	for i := 0; i < arch.NumConfigs; i++ {
		if errors[i] < 0 || errors[i] > 7 || distances[i] < 0 || distances[i] > arch.NumRFUSlots {
			panic(fmt.Sprintf("core: selection inputs out of range: err=%d dist=%d", errors[i], distances[i]))
		}
		k := key(errors[i], distances[i], i)
		if best < 0 || k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// Widths of the fields of the selector's comparison key: the candidate
// index (least significant), its reconfiguration distance and its 3-bit
// error (most significant), so an unsigned comparison of keys orders
// candidates as key does.
const (
	IndexBits    = 2
	DistanceBits = 4
	KeyBits      = IndexBits + DistanceBits + arch.CountBits
)

// RequirementEncoder is stage 2 of Fig. 2 for one unit type: it counts
// the unit decoders' one-hot lines for that type with a chain of 3-bit
// saturating adders, each line widened to a 3-bit operand.
func RequirementEncoder(n *logic.Netlist, lines [arch.QueueSize]logic.Wire) [arch.CountBits]logic.Wire {
	zero := n.Const(false)
	sum := [arch.CountBits]logic.Wire{lines[0], zero, zero}
	for _, line := range lines[1:] {
		term := [arch.CountBits]logic.Wire{line, zero, zero}
		n.SaturatingAdder(sum[:], sum[:], term[:])
	}
	return sum
}

// Selector is stage 4 of Fig. 2: a comparator chain over the candidates'
// comparison keys keeps the smallest and forwards its index. Candidate
// i's number is hard-wired: the selector ties key i's index field (its
// low IndexBits) and the index it forwards to i's constant bits, so only
// the distance and error fields are inputs.
func Selector(n *logic.Netlist, keys [arch.NumConfigs][KeyBits]logic.Wire) [IndexBits]logic.Wire {
	var index [arch.NumConfigs][IndexBits]logic.Wire
	for i := range index {
		for b := range index[i] {
			index[i][b] = n.Const(i>>b&1 == 1)
		}
		copy(keys[i][:], index[i][:])
	}
	best, bestIndex := keys[0], index[0]
	for i := 1; i < arch.NumConfigs; i++ {
		smaller := n.LessThan(keys[i][:], best[:])
		for b := range best {
			best[b] = n.Mux2(smaller, best[b], keys[i][b])
		}
		for b := range bestIndex {
			bestIndex[b] = n.Mux2(smaller, bestIndex[b], index[i][b])
		}
	}
	return bestIndex
}

// SelectionInputs are the signals entering stages 2-4 of the selection
// unit.
type SelectionInputs struct {
	// Lines[t][k] is queue entry k's unit-decoder line for type t.
	Lines [arch.NumUnitTypes][arch.QueueSize]logic.Wire
	// Quantity[t] is the current configuration's 3-bit count of
	// available type-t units, the live input of its shift control.
	Quantity [arch.NumUnitTypes][arch.CountBits]logic.Wire
	// Shift[i-1][t] holds predefined configuration i's hard-wired shift
	// control bits for type t.
	Shift [arch.NumConfigs - 1][arch.NumUnitTypes][2]logic.Wire
	// Distance[i] is candidate i's reconfiguration distance, from the
	// configuration loader.
	Distance [arch.NumConfigs][DistanceBits]logic.Wire
}

// SelectionCircuit is the selection unit of Fig. 2, stages 2-4: five
// requirement encoders feed four CEM generators — the current
// configuration's driven by live shift-control logic, the predefined
// ones by hard-wired control bits — whose errors, with each candidate's
// distance and hard-wired index, form the keys the minimal-error selector
// compares.
// It returns the winner's index.
func SelectionCircuit(n *logic.Netlist, in *SelectionInputs) [IndexBits]logic.Wire {
	var required [arch.NumUnitTypes][arch.CountBits]logic.Wire
	for t := range required {
		required[t] = RequirementEncoder(n, in.Lines[t])
	}
	var keys [arch.NumConfigs][KeyBits]logic.Wire
	for i := range keys {
		var shift [arch.NumUnitTypes][2]logic.Wire
		if i == 0 {
			for t := range shift {
				shift[t] = cem.ShiftControl(n, in.Quantity[t])
			}
		} else {
			shift = in.Shift[i-1]
		}
		err := cem.Generator(n, required, shift)
		copy(keys[i][IndexBits:], in.Distance[i][:])
		copy(keys[i][IndexBits+DistanceBits:], err[:])
	}
	return Selector(n, keys)
}

// CircuitMinimalErrorSelect evaluates Selector over each candidate's
// key: the gate-level form of MinimalErrorSelect, which tests prove it
// equivalent to.
func CircuitMinimalErrorSelect(errors, distances [arch.NumConfigs]int) int {
	var keys [arch.NumConfigs][KeyBits]logic.Wire
	for i := range keys {
		logic.SetUint(keys[i][:], uint64(key(errors[i], distances[i], i)))
	}
	best := Selector(logic.Eval, keys)
	return int(logic.Uint(best[:]))
}

// Stats counts the manager's activity for the experiment harness.
type Stats struct {
	// Selections[i] counts selection passes (Step or Select) that
	// candidate i won.
	Selections [arch.NumConfigs]int
	// DeferredSlots counts slot rewrites skipped because the span was
	// busy — the partial-reconfiguration deferrals of §3.2.
	DeferredSlots int
	// HybridCycles counts selection passes on which the live allocation
	// matched none of the predefined layouts — evidence of the hybrid
	// configurations the paper's approach produces.
	HybridCycles int
	// SuppressedLoads counts selections that wanted a new configuration
	// but were held back by the residency timer.
	SuppressedLoads int
	// HeldLoads counts selections that wanted a new configuration but
	// were held back by an active speculative prefetch (HoldTarget).
	HeldLoads int
	// CacheHits and CacheMisses count steering-cache lookups: a hit
	// replays a previously computed selection for the same packed
	// (demand, allocation) key, a miss runs the CEM generators.
	CacheHits   int
	CacheMisses int
	// PrefetchIssued counts speculative span rewrites the prefetch
	// policy (internal/predict) started on otherwise-unused
	// configuration-bus spans; the remaining Prefetch* fields count how
	// its speculations ended. PrefetchWastedSpans is the bus bandwidth
	// charged to mispredicted or cancelled speculations — spans loaded
	// for a configuration that never served demand.
	PrefetchIssued       int
	PrefetchConfirmed    int
	PrefetchMispredicted int
	PrefetchCancelled    int
	PrefetchWastedSpans  int
	// PhaseChanges counts workload phase boundaries the prefetch
	// policy's demand-history detector flagged.
	PhaseChanges int
}

// Steering-cache geometry: a small direct-mapped table indexed by a
// multiplicative hash of the packed key. 512 entries is comfortably
// larger than the working set of distinct (demand, allocation) pairs a
// phase exhibits (the demand vector alone has ≤ 8^5 values, but steady
// state visits a handful).
const (
	steerCacheBits = 9
	steerCacheSize = 1 << steerCacheBits
)

// steerEntry is one direct-mapped cache line. key holds the packed key
// plus one so that the zero value means "empty"; the payload is the
// choice and the four errors. The hit path copies Required from the
// live input and the distances from the fabric view, which the key's
// slot half fixes.
type steerEntry struct {
	key    uint64
	choice uint8
	errs   [arch.NumConfigs]uint8
}

// The steering key packs everything Select's outputs depend on into one
// 55-bit word: the five demand counts clamped to the 3-bit range the CEM
// actually sees (bits 0–14, packDemandKey), then the slot half
// (packSlotKey): the live allocation's slot encodings (bits 15–38) and
// the fabric's fault masks — the non-healthy slots (bits 39–46) and the
// permanently dead slots (bits 47–54). Both masks are zero without fault
// injection, so fault-free keys are unchanged. Availability counts,
// distances and hence the choice are pure functions of these, so keying
// on the allocation vector and masks also subsumes invalidation: a
// reconfiguration, an upset or a repair changes the inputs and thereby
// selects a different key — which is what keeps cached steering
// bit-identical to uncached steering under any fault stream.

// packDemandKey packs the demand half of the steering key (bits 0–14).
func packDemandKey(required arch.Counts) uint64 {
	var k uint64
	for t := range required {
		c := required[t]
		if c < 0 {
			c = 0
		} else if c > 7 {
			c = 7
		}
		k |= uint64(c) << (uint(t) * arch.CountBits)
	}
	return k
}

// packSlotKey packs the slot half of the steering key: the packed
// allocation (config.PackLayout, bits 15–38) and the fault masks (bits
// 39–54).
func packSlotKey(layout uint32, unavail, dead uint8) uint64 {
	const demandBits = uint(arch.NumUnitTypes * arch.CountBits)
	const slotBits = demandBits + arch.NumRFUSlots*arch.EncodingBits
	return uint64(layout)<<demandBits | uint64(unavail)<<slotBits | uint64(dead)<<(slotBits+arch.NumRFUSlots)
}

// tableIndex maps a packed key to one of 1<<bits lines of a
// direct-mapped table by Fibonacci (multiplicative) hashing, which
// spreads the low-entropy packed bits.
func tableIndex(key uint64, bits uint) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - bits))
}

// Manager is the configuration manager: selection unit plus loader, bound
// to a fabric and a steering basis.
type Manager struct {
	basis [3]config.Configuration
	// basisWord holds each basis layout packed by config.PackLayout.
	basisWord [3]uint32
	fabric    *rfu.Fabric
	// ExactCEM switches the error metric generators to the paper's
	// "more accurate divider" variant (the X3 ablation). It is fixed
	// before first use: set it before the first Select or Step, since
	// the steering cache holds entries computed under one metric. The
	// cache is the only state that depends on the metric; the fabric
	// view holds availabilities, not scores.
	ExactCEM bool
	// MinResidency suppresses loading a new configuration until at
	// least this many cycles have passed since the last load — a
	// residency timer that damps per-cycle selection thrash on short
	// loops whose demand oscillates within one loop body (the X11
	// study). Zero (the paper's design) reloads every cycle the
	// selection changes.
	MinResidency int
	// DisableCache bypasses the steering cache so every Select runs the
	// CEM generators — used by the equivalence tests and ablations.
	DisableCache bool
	// HoldTarget, when non-zero, names the basis configuration (1..3) a
	// speculative prefetch has committed to: loads toward any other
	// configuration are suppressed (and counted in Stats.HeldLoads)
	// until the speculation resolves. Selection, statistics and naming
	// run unchanged, so the reactive selector still exposes what it
	// would have done — that is the evidence speculations are resolved
	// against. Loads toward the held target itself always proceed.
	HoldTarget int

	sinceLoad int
	// deferred is the slots the latest Step's load deferred.
	deferred int
	stats    Stats

	// cache is the direct-mapped steering cache.
	cache [steerCacheSize]steerEntry
	// basisUnits holds each basis configuration's placement list,
	// computed once at NewManager so Load never rebuilds it.
	basisUnits [3][]config.PlacedUnit

	// sel is the latest selection pass, which Step fills and returns by
	// reference.
	sel Selection

	// view is the selection unit's view of the fabric, rebuilt only
	// when the allocation or the health masks change.
	view fabricView
}

// fabricView is everything the selection unit reads from the fabric,
// as Fig. 2 draws it: the four CEM generators are identical and differ
// only in their availability input, so the view holds one availability
// vector per candidate, plus the candidates' reconfiguration distances,
// the allocation's class and the slot half of the steering key. All of
// it is a function of the allocation and the health masks.
type fabricView struct {
	valid         bool
	version       uint64
	unavail, dead uint8
	// key is the slot half of the steering key (packSlotKey).
	key uint64
	// avail holds each candidate's availability, indexed like
	// Selection.Choice: the current configuration's fault-masked units,
	// then each predefined configuration's units that avoid dead slots,
	// all including the FFUs.
	avail [arch.NumConfigs]arch.Counts
	// dists holds each candidate's reconfiguration distance from the
	// live allocation (zero for the current configuration).
	dists [arch.NumConfigs]int
	// class names the allocation (see ClassifyAllocation); hybrid is
	// set when it is neither empty nor a predefined layout.
	class  string
	hybrid bool
}

// NewManager binds a configuration manager to a fabric, steering with the
// given predefined configurations. Invalid basis configurations panic.
func NewManager(fabric *rfu.Fabric, basis [3]config.Configuration) *Manager {
	m := &Manager{basis: basis, fabric: fabric}
	for i, c := range basis {
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("core: invalid steering configuration: %v", err))
		}
		m.basisWord[i] = config.PackLayout(c.Layout)
		m.basisUnits[i] = c.AppendUnits(nil)
	}
	return m
}

// Basis returns the manager's predefined steering configurations.
func (m *Manager) Basis() [3]config.Configuration { return m.basis }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// LastSelection returns the latest selection pass, from Step or Select
// (the zero Selection before the first).
func (m *Manager) LastSelection() Selection { return m.sel }

// NotePrefetch accumulates speculative-prefetch deltas into the stats.
// The stats live here rather than in the predict package so prefetch
// accounting rides the same Stats value every report path already
// consumes.
func (m *Manager) NotePrefetch(issued, confirmed, mispredicted, cancelled, wastedSpans, phaseChanges int) {
	m.stats.PrefetchIssued += issued
	m.stats.PrefetchConfirmed += confirmed
	m.stats.PrefetchMispredicted += mispredicted
	m.stats.PrefetchCancelled += cancelled
	m.stats.PrefetchWastedSpans += wastedSpans
	m.stats.PhaseChanges += phaseChanges
}

// Select runs the selection unit over the requirement counts of the
// unscheduled queue instructions and returns the chosen configuration.
// Availability counts include the FFUs for every candidate ("…relative
// to each of the four configurations including the FFUs", §3.1).
// The pass counts in Stats.Selections and becomes the LastSelection.
func (m *Manager) Select(required arch.Counts) Selection {
	m.selectInto(&m.sel, required, m.liveView())
	m.stats.Selections[m.sel.Choice]++
	return m.sel
}

// selectInto is Select writing into sel, over the current fabric view
// v.
func (m *Manager) selectInto(sel *Selection, required arch.Counts, v *fabricView) {
	if m.DisableCache {
		m.score(sel, required, v)
		return
	}
	key := packDemandKey(required) | v.key
	e := &m.cache[tableIndex(key, steerCacheBits)]
	if e.key == key+1 {
		m.stats.CacheHits++
		sel.Required = required
		sel.Choice = int(e.choice)
		for i := range sel.Errors {
			sel.Errors[i] = int(e.errs[i])
		}
		sel.Distances = v.dists
		return
	}
	m.stats.CacheMisses++
	m.score(sel, required, v)
	e.key = key + 1
	e.choice = uint8(sel.Choice)
	for i := range sel.Errors {
		e.errs[i] = uint8(sel.Errors[i])
	}
}

// liveView returns the fabric view, rebuilding it when the
// allocation or the health masks changed since it was built.
func (m *Manager) liveView() *fabricView {
	v := &m.view
	unavail, dead := m.fabric.HealthMasks()
	if !v.valid || m.fabric.AllocVersion() != v.version || unavail != v.unavail || dead != v.dead {
		m.rebuildView(v, unavail, dead)
	}
	return v
}

// rebuildView fills v from the live fabric: the slot key, the four
// candidates' availabilities and distances, and then the class, which
// reads the distances. The current configuration scores the degraded
// unit mix (fault-masked units are not available capacity), and each
// predefined candidate loses the units whose spans cross permanently
// dead slots. Transiently faulty slots do not discount the predefined
// candidates: loading a configuration rewrites their frames, restoring
// them.
func (m *Manager) rebuildView(v *fabricView, unavail, dead uint8) {
	layout := m.fabric.LayoutWord()
	v.valid, v.version, v.unavail, v.dead = true, m.fabric.AllocVersion(), unavail, dead
	v.key = packSlotKey(layout, unavail, dead)
	v.avail[0] = m.fabric.EffectiveTotalCounts()
	for i, w := range m.basisWord {
		v.avail[i+1] = m.basisAvail(i, dead)
		v.dists[i+1] = config.LayoutDistance(layout, w)
	}
	// The cases in config.Classify's order: empty, the first basis
	// layout matched (distance zero), hybrid.
	v.class, v.hybrid = "(empty)", false
	if layout != 0 {
		v.class, v.hybrid = "hybrid", true
		for i, d := range v.dists[1:] {
			if d == 0 {
				v.class, v.hybrid = m.basis[i].Name, false
				break
			}
		}
	}
}

// errorOf runs one CEM generator.
func (m *Manager) errorOf(required, available arch.Counts) int {
	if m.ExactCEM {
		return cem.ErrorExact(required, available)
	}
	return cem.Error(required, available)
}

// score runs the selection unit over the fabric view v: one CEM
// generator per candidate, each over that candidate's availability,
// then the minimal-error selector.
func (m *Manager) score(sel *Selection, required arch.Counts, v *fabricView) {
	sel.Required = required
	for i, avail := range v.avail {
		sel.Errors[i] = m.errorOf(required, avail)
	}
	sel.Distances = v.dists
	sel.Choice = MinimalErrorSelect(sel.Errors, sel.Distances)
}

// basisAvail returns basis configuration i's availability counts (unit
// mix plus FFUs, the hard-wired CEM inputs of Fig. 3(b)) with dead
// slots excluded: a unit whose span covers a dead slot cannot be placed
// there anymore.
func (m *Manager) basisAvail(i int, dead uint8) arch.Counts {
	c := config.FFUCounts()
	for _, u := range m.basisUnits[i] {
		if dead>>uint(u.Slot)&(1<<uint(u.Span)-1) == 0 {
			c[u.Type]++
		}
	}
	return c
}

// Load steers the fabric toward the selected configuration through the
// fabric's loader (rfu.Fabric.Load): when a predefined configuration
// won, every unit span of its layout that differs from the live
// allocation is rewritten if its slots are idle, and deferred
// otherwise. Keeping the current configuration loads nothing. sel must
// come from this manager on the live allocation (Select or Step); its
// distance is the decision record's differing-slot count. It returns
// the number of span rewrites started and of slots deferred.
func (m *Manager) Load(sel *Selection) (started, deferred int) {
	if sel.Current() {
		return 0, 0
	}
	from := ""
	if m.fabric.Observer().Wants(trace.KindDecision) {
		from = m.ClassifyAllocation() // the pre-load allocation
	}
	started, loading, deferred := m.fabric.Load(m.basisUnits[sel.Choice-1])
	m.stats.DeferredSlots += deferred
	if started > 0 {
		m.EmitDecision(from, sel.Choice, sel.Distances[sel.Choice], started, loading, deferred)
	}
	return started, deferred
}

// EmitDecision logs a configuration switch toward basis choice (1..3)
// that the loader started: from names the allocation before the switch
// (see ClassifyAllocation), diff counts the slot encodings that
// differed, spans and loading the span rewrites started and the slots
// they cover, deferred the busy slots skipped. The loading stall is
// loading times the fabric's reconfiguration latency.
func (m *Manager) EmitDecision(from string, choice, diff, spans, loading, deferred int) {
	m.fabric.Observer().Emit(trace.Event{Kind: trace.KindDecision, Str: from, A: int32(choice),
		B: trace.Pack4([4]int{diff, spans, loading, deferred}),
		C: int32(loading * m.fabric.ReconfigLatency())})
}

// EmitSelection logs one selection-unit pass. The event is built only
// when a sink wants it.
func (m *Manager) EmitSelection(sel *Selection) {
	if obs := m.fabric.Observer(); obs.Wants(trace.KindSelection) {
		obs.Emit(trace.Event{Kind: trace.KindSelection, A: int32(sel.Choice), B: trace.Pack4(sel.Errors)})
	}
}

// ClassifyAllocation names the live allocation as config.Classify
// does: "(empty)", a basis configuration's name, or "hybrid". It reads
// the fabric view, so the name is derived only when the allocation
// changed.
func (m *Manager) ClassifyAllocation() string { return m.liveView().class }

// Step performs one cycle of configuration management: encode the queue's
// requirements, select, and load (subject to the residency timer). It
// returns the selection for tracing; the manager owns it, and the next
// Step overwrites it.
func (m *Manager) Step(required arch.Counts) *Selection {
	sel := &m.sel
	v := m.liveView()
	m.selectInto(sel, required, v)
	m.stats.Selections[sel.Choice]++
	m.EmitSelection(sel)
	if v.hybrid {
		m.stats.HybridCycles++
	}
	m.sinceLoad++
	m.deferred = 0
	if sel.Current() {
		return sel
	}
	if m.suppressed() {
		m.stats.SuppressedLoads++
		return sel
	}
	if m.held() {
		// An active speculative prefetch holds the configuration: a
		// claw-back load here would revert half-converted spans and
		// freeze them for another full reconfiguration latency.
		m.stats.HeldLoads++
		return sel
	}
	started, deferred := m.Load(sel)
	if started > 0 {
		m.sinceLoad = 0
	} else {
		m.deferred = deferred
	}
	return sel
}

// suppressed reports whether the residency timer holds back a load.
func (m *Manager) suppressed() bool { return m.sinceLoad <= m.MinResidency }

// held reports whether a speculative prefetch holds back a load toward
// the latest selection.
func (m *Manager) held() bool { return m.HoldTarget != 0 && m.sel.Choice != m.HoldTarget }

// Manage runs one Step; with NextEvent and Skip it makes the manager a
// cpu.Manager.
func (m *Manager) Manage(required arch.Counts) { m.Step(required) }

// NextEvent returns how many Steps ahead the first one falls that may
// not repeat the latest Step on the same demand and an unchanged
// fabric: the one whose residency timer expires when the latest load
// was suppressed, otherwise none (math.MaxInt).
func (m *Manager) NextEvent() int {
	if m.sel.Current() || !m.suppressed() {
		return math.MaxInt
	}
	return m.MinResidency - m.sinceLoad + 1
}

// Skip accounts for n repeats of the latest Step, on the same demand
// and an unchanged fabric, all before NextEvent: each one selects what
// it selected from the steering cache (or the CEM generators with the
// cache off), and then keeps the configuration, is suppressed or held,
// or defers the same slots.
func (m *Manager) Skip(n int) {
	m.SkipSelect(n)
	if m.view.hybrid {
		m.stats.HybridCycles += n
	}
	switch {
	case m.sel.Current():
	case m.suppressed():
		m.stats.SuppressedLoads += n
	case m.held():
		m.stats.HeldLoads += n
	default:
		m.stats.DeferredSlots += n * m.deferred
	}
	m.sinceLoad += n
}

// SkipSelect accounts for n repeats of the latest selection pass, on
// the same demand and an unchanged fabric: each one is a steering-cache
// hit (with the cache on) won by the same candidate.
func (m *Manager) SkipSelect(n int) {
	if !m.DisableCache {
		m.stats.CacheHits += n
	}
	m.stats.Selections[m.sel.Choice] += n
}
