// Package baseline provides the configuration-management strategies the
// steering manager is compared against in the experiments:
//
//   - Steering: the paper's manager (package core) adapted to the
//     processor's Policy interface;
//   - Static: never reconfigures — a conventional fixed-unit superscalar
//     whose RFU contents are installed before time starts;
//   - FullReconfig: the predecessor approach of reference [7], which
//     swaps whole configurations and therefore must wait for the entire
//     fabric to drain before reconfiguring;
//   - Oracle: an idealised upper bound that scores candidates with the
//     exact divider and is intended to run on a zero-latency fabric;
//   - Random: a control that loads a random steering configuration at a
//     fixed period.
package baseline

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rfu"
	"repro/internal/trace"
)

// Steering adapts the paper's configuration manager to cpu.Manager.
type Steering struct {
	M *core.Manager
}

// NewSteering builds the paper's steering policy over a fabric with the
// default basis.
func NewSteering(fabric *rfu.Fabric) *Steering {
	return NewSteeringBasis(fabric, config.DefaultBasis())
}

// NewSteeringBasis builds the steering policy with a custom basis.
func NewSteeringBasis(fabric *rfu.Fabric, basis [3]config.Configuration) *Steering {
	return &Steering{M: core.NewManager(fabric, basis)}
}

// Manage runs one selection/load cycle of the steering manager.
func (s *Steering) Manage(required arch.Counts) { s.M.Step(required) }

// SetObserver forwards the event stream to the manager.
func (s *Steering) SetObserver(o *trace.Observer) { s.M.SetObserver(o) }

// Static is the no-reconfiguration baseline; the machine keeps whatever
// the fabric was preloaded with (see rfu.Fabric.Install).
type Static struct{}

// Manage does nothing.
func (Static) Manage(arch.Counts) {}

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

	// Swaps counts whole-fabric reconfigurations completed.
	Swaps int
	// Blocked counts cycles a wanted swap waited for the fabric to
	// drain.
	Blocked int

	// unitsScratch is the reusable placement buffer for stream.
	unitsScratch []config.PlacedUnit
}

// NewFullReconfig builds the whole-configuration-swap policy with the
// default basis.
func NewFullReconfig(fabric *rfu.Fabric) *FullReconfig {
	return NewFullReconfigBasis(fabric, config.DefaultBasis())
}

// NewFullReconfigBasis builds the whole-configuration-swap policy with a
// custom basis.
func NewFullReconfigBasis(fabric *rfu.Fabric, basis [3]config.Configuration) *FullReconfig {
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
		f.Blocked++
		return
	}
	target := f.m.Basis()[sel.Choice-1]
	if f.fabric.Allocation().Slots == target.Layout {
		return
	}
	diff := f.fabric.Allocation().Distance(target)
	f.m.EmitDecision(f.m.ClassifyAllocation(), sel.Choice, diff, 0, diff, 0)
	f.pending = &target
	f.stream()
}

// SetObserver forwards the event stream to the selection manager:
// selections, steering-cache activity and whole-fabric swap decisions
// are logged (nil disables).
func (f *FullReconfig) SetObserver(o *trace.Observer) { f.m.SetObserver(o) }

// stream pushes the pending swap's remaining spans through the
// configuration bus, completing the swap when the layout matches.
func (f *FullReconfig) stream() {
	target := *f.pending
	f.unitsScratch = target.AppendUnits(f.unitsScratch[:0])
	for _, u := range f.unitsScratch {
		if f.fabric.Allocation().Slots[u.Slot] == arch.Encode(u.Type) {
			continue
		}
		if f.fabric.CanReconfigure(u.Type, u.Slot) {
			f.fabric.Reconfigure(u.Type, u.Slot)
		}
	}
	if f.fabric.Allocation().Slots == target.Layout {
		f.pending = nil
		f.Swaps++
	}
}

// Oracle is the idealised selector: exact-divider error metrics over the
// same basis, intended for a zero-reconfiguration-latency fabric, giving
// an upper bound on what configuration matching can achieve.
type Oracle struct {
	m *core.Manager
}

// NewOracle builds the oracle policy.
func NewOracle(fabric *rfu.Fabric) *Oracle {
	return NewOracleBasis(fabric, config.DefaultBasis())
}

// NewOracleBasis builds the oracle policy with a custom basis.
func NewOracleBasis(fabric *rfu.Fabric, basis [3]config.Configuration) *Oracle {
	m := core.NewManager(fabric, basis)
	m.ExactCEM = true
	return &Oracle{m: m}
}

// Manage runs one exact-metric selection/load cycle.
func (o *Oracle) Manage(required arch.Counts) { o.m.Step(required) }

// SetObserver forwards the event stream to the manager.
func (o *Oracle) SetObserver(obs *trace.Observer) { o.m.SetObserver(obs) }

// Random loads a random steering configuration every Period cycles — the
// control showing that steering's wins come from matching, not from
// reconfiguration activity itself.
type Random struct {
	fabric *rfu.Fabric
	basis  [3]config.Configuration
	rng    *rand.Rand
	// Period is the number of cycles between random loads (default 64).
	Period int

	cycle        int
	unitsScratch []config.PlacedUnit
}

// NewRandom builds the random policy with a deterministic seed.
func NewRandom(fabric *rfu.Fabric, seed int64) *Random {
	return &Random{
		fabric: fabric,
		basis:  config.DefaultBasis(),
		rng:    rand.New(rand.NewSource(seed)),
		Period: 64,
	}
}

// Manage loads a random configuration when the period elapses,
// reconfiguring whatever spans are idle (partial, like steering, but
// without looking at the queue).
func (r *Random) Manage(arch.Counts) {
	r.cycle++
	if r.Period <= 0 || r.cycle%r.Period != 0 {
		return
	}
	target := r.basis[r.rng.Intn(len(r.basis))]
	r.unitsScratch = target.AppendUnits(r.unitsScratch[:0])
	for _, u := range r.unitsScratch {
		if r.fabric.Allocation().Slots[u.Slot] == arch.Encode(u.Type) {
			continue
		}
		if r.fabric.CanReconfigure(u.Type, u.Slot) {
			r.fabric.Reconfigure(u.Type, u.Slot)
		}
	}
}
