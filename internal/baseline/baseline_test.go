package baseline

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rfu"
)

func fpDemand() arch.Counts {
	return core.EncodeRequirements([]arch.UnitType{
		arch.FPALU, arch.FPALU, arch.FPMDU, arch.FPMDU, arch.LSU,
	})
}

func intDemand() arch.Counts {
	return core.EncodeRequirements([]arch.UnitType{
		arch.IntALU, arch.IntALU, arch.IntALU, arch.IntALU, arch.IntMDU,
	})
}

func TestFullReconfigSwapsWholeFabricWhenIdle(t *testing.T) {
	f := rfu.New(0)
	p := NewFullReconfig(f, config.DefaultBasis())
	p.Manage(intDemand())
	if f.Allocation().Slots != config.DefaultBasis()[0].Layout {
		t.Fatalf("fabric = %v, want integer layout", f.Allocation().Slots)
	}
	if p.pending != nil {
		t.Error("swap still pending on a zero-latency fabric")
	}
	p.Manage(fpDemand())
	if f.Allocation().Slots != config.DefaultBasis()[2].Layout {
		t.Errorf("fabric = %v, want floating layout", f.Allocation().Slots)
	}
}

// TestFullReconfigBlocksOnBusyFabric pins the contrast with steering: a
// single busy RFU prevents the whole swap.
func TestFullReconfigBlocksOnBusyFabric(t *testing.T) {
	f := rfu.New(0)
	p := NewFullReconfig(f, config.DefaultBasis())
	p.Manage(intDemand()) // load integer layout
	// Busy one RFU IntALU.
	f.Acquire(arch.IntALU, 10) // FFU
	ref, _ := f.Acquire(arch.IntALU, 10)
	if ref.FFU {
		t.Fatal("setup: expected RFU")
	}
	before := f.Allocation().Slots
	p.Manage(fpDemand())
	if f.Allocation().Slots != before {
		t.Error("full-reconfig policy changed a busy fabric")
	}
	if p.pending != nil {
		t.Error("swap began on a busy fabric")
	}
}

// TestFullReconfigStreamsOverNarrowBus pins the regression the fuzzer
// caught: with a width-1 configuration bus a whole-fabric swap must
// stream spans across cycles instead of panicking, and must still
// complete exactly once.
func TestFullReconfigStreamsOverNarrowBus(t *testing.T) {
	f := rfu.New(2)
	f.SetConfigBusWidth(1)
	p := NewFullReconfig(f, config.DefaultBasis())
	p.Manage(intDemand())
	for cycle := 0; cycle < 100 && p.pending != nil; cycle++ {
		f.Tick()
		p.Manage(intDemand())
	}
	if p.pending != nil || f.Allocation().Slots != config.DefaultBasis()[0].Layout {
		t.Fatalf("swap never completed over the narrow bus: %v", f.Allocation().Slots)
	}
	// Selection stays frozen mid-swap: switch demand to FP while a new
	// swap is in flight and check the integer target still completes
	// before any floating span appears.
	g := rfu.New(4)
	g.SetConfigBusWidth(1)
	q := NewFullReconfig(g, config.DefaultBasis())
	q.Manage(intDemand()) // swap begins
	if q.pending == nil {
		t.Fatal("setup: swap completed in one cycle over the narrow bus")
	}
	for cycle := 0; cycle < 200 && q.pending != nil; cycle++ {
		g.Tick()
		q.Manage(fpDemand()) // demand flips mid-swap
	}
	if q.pending != nil {
		t.Fatal("in-flight swap never completed")
	}
	if g.Allocation().Slots != config.DefaultBasis()[0].Layout {
		t.Errorf("mid-swap demand change corrupted the target: %v", g.Allocation().Slots)
	}
}

func TestRandomReconfiguresOnPeriod(t *testing.T) {
	f := rfu.New(0)
	r := NewRandom(f, 7)
	for i := 0; i < randomPeriod-1; i++ {
		r.Manage(arch.Counts{})
	}
	if f.Reconfigurations() != 0 {
		t.Error("random policy reconfigured before its period")
	}
	r.Manage(arch.Counts{})
	if f.Reconfigurations() == 0 {
		t.Error("random policy never reconfigured at its period")
	}
	// The loaded layout is one of the basis configurations.
	slots := f.Allocation().Slots
	found := false
	for _, cfg := range config.DefaultBasis() {
		if slots == cfg.Layout {
			found = true
		}
	}
	if !found {
		t.Errorf("random layout %v matches no basis configuration", slots)
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	run := func(seed int64) [arch.NumRFUSlots]arch.Encoding {
		f := rfu.New(0)
		r := NewRandom(f, seed)
		for i := 0; i < 50*randomPeriod; i++ {
			r.Manage(arch.Counts{})
		}
		return f.Allocation().Slots
	}
	if run(3) != run(3) {
		t.Error("same seed produced different fabrics")
	}
}
