// Package baseline provides the configuration-management strategies the
// steering manager (package core) is compared against in the
// experiments, each loading through rfu.Fabric.Load:
//
//   - FullReconfig: the predecessor approach of reference [7], which
//     swaps whole configurations and therefore must wait for the entire
//     fabric to drain before reconfiguring;
//   - Random: a control that loads a random steering configuration at a
//     fixed period.
//
// The oracle is core.Manager with ExactCEM set, and the static machines
// are fabrics preloaded with rfu.Fabric.Install and no manager.
package baseline

import (
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rfu"
)

// FullReconfig models the architecture of reference [7] without partial
// reconfiguration: a chosen configuration is loaded in one piece, which
// requires every reconfigurable slot to be idle, and replaces the whole
// fabric.
type FullReconfig struct {
	fabric *rfu.Fabric
	m      *core.Manager
	// pending is the configuration currently being swapped in. A swap
	// begins only on a drained fabric but its spans may stream over
	// several cycles when the configuration bus is narrow; selection is
	// frozen until the swap completes.
	pending *config.Configuration

	// unitsScratch is the reusable placement buffer for stream.
	unitsScratch []config.PlacedUnit
}

// NewFullReconfig builds the whole-configuration-swap policy over a
// fabric, selecting among the given basis configurations.
func NewFullReconfig(fabric *rfu.Fabric, basis [3]config.Configuration) *FullReconfig {
	return &FullReconfig{fabric: fabric, m: core.NewManager(fabric, basis)}
}

// Manage selects like the steering manager but loads atomically: a swap
// starts only when a predefined configuration wins and the fabric is
// fully drained, then the whole layout is rewritten — streamed across
// cycles when the configuration bus limits concurrent spans.
func (f *FullReconfig) Manage(required arch.Counts) {
	if f.pending != nil {
		f.stream()
		return
	}
	sel := f.m.Select(required)
	f.m.EmitSelection(&sel)
	if sel.Current() {
		return
	}
	if !f.fabric.Idle() {
		return
	}
	diff := sel.Distances[sel.Choice]
	if diff == 0 {
		return
	}
	target := f.m.Basis()[sel.Choice-1]
	f.m.EmitDecision(f.m.ClassifyAllocation(), sel.Choice, diff, 0, diff, 0)
	f.pending = &target
	f.stream()
}

// NextEvent reports that the policy has no deadline of its own
// (math.MaxInt): a pending swap streams on the fabric's deadlines, and
// otherwise a Manage call on the same demand and an unchanged fabric
// repeats the selection pass and its outcome.
func (f *FullReconfig) NextEvent() int { return math.MaxInt }

// Skip accounts for n repeats of the latest Manage call: n selection
// passes when no swap is pending, and nothing while one streams.
func (f *FullReconfig) Skip(n int) {
	if f.pending == nil {
		f.m.SkipSelect(n)
	}
}

// Manager returns the selection manager, whose counters and latest
// selection describe the policy's selection passes.
func (f *FullReconfig) Manager() *core.Manager { return f.m }

// stream pushes the pending swap's remaining spans through the
// configuration bus, completing the swap when the layout matches.
func (f *FullReconfig) stream() {
	target := *f.pending
	f.unitsScratch = target.AppendUnits(f.unitsScratch[:0])
	f.fabric.Load(f.unitsScratch)
	if f.fabric.Allocation().Slots == target.Layout {
		f.pending = nil
	}
}

// randomPeriod is the number of cycles between the random policy's
// loads.
const randomPeriod = 64

// Random loads a random steering configuration every randomPeriod
// cycles — the control showing that steering's wins come from
// matching, not from reconfiguration activity itself.
type Random struct {
	fabric *rfu.Fabric
	basis  [3]config.Configuration
	rng    *rand.Rand

	cycle        int
	unitsScratch []config.PlacedUnit
}

// NewRandom builds the random policy with a deterministic seed.
func NewRandom(fabric *rfu.Fabric, seed int64) *Random {
	return &Random{
		fabric: fabric,
		basis:  config.DefaultBasis(),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Manage loads a random configuration when the period elapses,
// reconfiguring whatever spans are idle (partial, like steering, but
// without looking at the queue).
func (r *Random) Manage(arch.Counts) {
	r.cycle++
	if r.cycle%randomPeriod != 0 {
		return
	}
	target := r.basis[r.rng.Intn(len(r.basis))]
	r.unitsScratch = target.AppendUnits(r.unitsScratch[:0])
	r.fabric.Load(r.unitsScratch)
}

// NextEvent returns how many Manage calls ahead the next period
// boundary falls, the next call that draws and loads.
func (r *Random) NextEvent() int { return randomPeriod - r.cycle%randomPeriod }

// Skip accounts for n Manage calls that fall before the next period
// boundary: they only count cycles.
func (r *Random) Skip(n int) { r.cycle += n }
