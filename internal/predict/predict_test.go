package predict

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/rfu"
)

// Demand vectors that steer the reactive selector decisively toward the
// integer and floating-point basis configurations.
var (
	intDemand = arch.Counts{5, 1, 1, 0, 0}
	fpDemand  = arch.Counts{1, 0, 1, 3, 2}
)

func newTestManager(latency int) (*Manager, *rfu.Fabric) {
	f := rfu.New(latency)
	return NewManager(f, config.DefaultBasis(), Config{}), f
}

// run drives the manager the way cpu.Processor does: the fabric ticks
// (completing in-flight reconfigurations) before the manager runs.
func run(pm *Manager, f *rfu.Fabric, demand arch.Counts, cycles int) {
	for i := 0; i < cycles; i++ {
		f.Tick()
		pm.Manage(demand)
	}
}

// alternate runs whole int/fp phases of `period` cycles each.
func alternate(pm *Manager, f *rfu.Fabric, phases, period int) {
	for p := 0; p < phases; p++ {
		d := intDemand
		if p%2 == 1 {
			d = fpDemand
		}
		run(pm, f, d, period)
	}
}

func TestConfigDefaults(t *testing.T) {
	pm, _ := newTestManager(8)
	if pm.depth != DefaultHistoryDepth {
		t.Errorf("depth = %d, want %d", pm.depth, DefaultHistoryDepth)
	}
	if pm.confPct != int(DefaultConfidence*100) {
		t.Errorf("confPct = %d, want %d", pm.confPct, int(DefaultConfidence*100))
	}
	pm2, _ := rfu.New(8), 0
	_ = pm2
	m := NewManager(rfu.New(8), config.DefaultBasis(), Config{HistoryDepth: 8, Confidence: 0.9})
	if m.depth != 8 || m.confPct != 90 {
		t.Errorf("custom config: depth %d confPct %d, want 8 90", m.depth, m.confPct)
	}
}

// TestRingAverageTracksRecentDemand pins the demand-history ring: the
// running sum covers exactly the last `depth` samples, and ceilDemand
// rounds the average up.
func TestRingAverageTracksRecentDemand(t *testing.T) {
	f := rfu.New(8)
	pm := NewManager(f, config.DefaultBasis(), Config{HistoryDepth: 4})
	// Fill past capacity with one vector, then overwrite with another:
	// after depth pushes of the new vector the old one must be gone.
	run(pm, f, arch.Counts{7, 0, 0, 0, 0}, 10)
	run(pm, f, arch.Counts{1, 2, 0, 0, 0}, 4)
	if got := pm.ceilDemand(); got != (arch.Counts{1, 2, 0, 0, 0}) {
		t.Errorf("ceilDemand = %v after ring overwrite, want {1 2 0 0 0}", got)
	}
	if pm.ringN != 4 {
		t.Errorf("ringN = %d, want capped at 4", pm.ringN)
	}
	// Rounding up: average 1.25 must ceil to 2.
	pm2 := NewManager(rfu.New(8), config.DefaultBasis(), Config{HistoryDepth: 4})
	for _, v := range []int{1, 1, 1, 2} {
		pm2.observe(arch.Counts{v, 0, 0, 0, 0})
	}
	if got := pm2.ceilDemand(); got[arch.IntALU] != 2 {
		t.Errorf("ceilDemand[IntALU] = %d for avg 1.25, want 2", got[arch.IntALU])
	}
}

// TestObserveClampsDemand pins the 3-bit clamp on history entries.
func TestObserveClampsDemand(t *testing.T) {
	pm, _ := newTestManager(8)
	pm.observe(arch.Counts{100, -5, 7, 0, 0})
	if pm.lastDemand != (arch.Counts{7, 0, 7, 0, 0}) {
		t.Errorf("lastDemand = %v, want clamped {7 0 7 0 0}", pm.lastDemand)
	}
}

// TestPhaseDetectorCountsBoundaries drives a demand shift large enough
// to separate the short-horizon ring average from the long-horizon EWMA
// and checks it is detected — and that steady demand is not.
func TestPhaseDetectorCountsBoundaries(t *testing.T) {
	pm, f := newTestManager(8)
	run(pm, f, intDemand, 400)
	if n := pm.m.Stats().PhaseChanges; n > 1 {
		t.Errorf("steady demand produced %d phase changes, want <= 1 (startup)", n)
	}
	before := pm.m.Stats().PhaseChanges
	run(pm, f, fpDemand, 400)
	if n := pm.m.Stats().PhaseChanges; n != before+1 {
		t.Errorf("int->fp shift produced %d new phase changes, want exactly 1", n-before)
	}
}

// TestMarkovLearnsSettledTransitions pins settled-transition learning:
// a long alternation must fill markov[int][fp] and markov[fp][int], and
// a basis only counts after being held settleCycles.
func TestMarkovLearnsSettledTransitions(t *testing.T) {
	pm, f := newTestManager(8)
	alternate(pm, f, 6, 200)
	if pm.markov[1][3] == 0 {
		t.Errorf("markov[int][fp] = 0 after alternation, want > 0 (table %v)", pm.markov)
	}
	if pm.markov[3][1] == 0 {
		t.Errorf("markov[fp][int] = 0 after alternation, want > 0 (table %v)", pm.markov)
	}
	// predict from the int row must name fp with high confidence.
	pm.settledBasis = 1
	next, confPct, ok := pm.predict()
	if !ok || next != 3 {
		t.Fatalf("predict from int = (%d, %d%%, %v), want (3, _, true)", next, confPct, ok)
	}
	if confPct < pm.confPct {
		t.Errorf("confidence %d%% below threshold %d%%", confPct, pm.confPct)
	}
}

// TestEntryProfileSampled pins the phase-entry demand profiles: after a
// few settled visits the profile of each basis reflects the demand seen
// right after switching to it, not the (served) steady state.
func TestEntryProfileSampled(t *testing.T) {
	pm, f := newTestManager(8)
	alternate(pm, f, 6, 200)
	if !pm.profileSeen[1] || !pm.profileSeen[3] {
		t.Fatalf("profiles seen = int:%v fp:%v, want both", pm.profileSeen[1], pm.profileSeen[3])
	}
	d, seen := arch.Counts{}, false
	pm.specTarget = 3
	d, seen = pm.predictedDemand()
	if !seen {
		t.Fatal("predictedDemand for fp not seen")
	}
	if d[arch.FPALU] == 0 {
		t.Errorf("fp entry profile has no FPALU demand: %v", d)
	}
}

// TestSpeculationLifecycle runs the full loop at a latency where
// anticipation engages: the predictor must issue speculative spans and
// confirm speculations, and the hold must be released by the end.
func TestSpeculationLifecycle(t *testing.T) {
	pm, f := newTestManager(16)
	alternate(pm, f, 16, 150)
	st := pm.m.Stats()
	if st.PrefetchIssued == 0 {
		t.Fatalf("no speculative spans issued over 16 phases (stats %+v)", st)
	}
	if st.PrefetchConfirmed == 0 {
		t.Errorf("no speculation confirmed (stats %+v)", st)
	}
	resolved := st.PrefetchConfirmed + st.PrefetchMispredicted + st.PrefetchCancelled
	if resolved == 0 {
		t.Errorf("no speculation resolved (stats %+v)", st)
	}
	if !pm.specActive && pm.m.HoldTarget != 0 {
		t.Errorf("hold %d left engaged with no active speculation", pm.m.HoldTarget)
	}
	// Wasted spans are only charged on mispredicts and cancels, so they
	// can never exceed what was issued.
	if st.PrefetchWastedSpans > st.PrefetchIssued {
		t.Errorf("wasted %d > issued %d", st.PrefetchWastedSpans, st.PrefetchIssued)
	}
}

// TestHoldEngagesOnlyWithSpans pins the commitment rule: a speculation
// that has not issued any span must not hold the reactive selector.
func TestHoldEngagesOnlyWithSpans(t *testing.T) {
	pm, _ := newTestManager(16)
	pm.specActive = true
	pm.specTarget = 3
	pm.specSpans = 0
	if pm.m.HoldTarget != 0 {
		t.Fatalf("HoldTarget = %d with zero-span speculation, want 0", pm.m.HoldTarget)
	}
}

// TestStreakResolvesMispredict pins the live-evidence path: a held
// speculation the reactive selector keeps voting against must resolve
// as mispredicted and release the hold.
func TestStreakResolvesMispredict(t *testing.T) {
	pm, f := newTestManager(8)
	// Teach the manager an int phase first so the selector has a settled
	// state, then force a bogus speculation against live fp demand.
	run(pm, f, intDemand, 100)
	pm.specActive = true
	pm.specTarget = 2 // memory — not what fp demand wants
	pm.specSpans = 1
	pm.specStart = pm.cycle
	pm.m.HoldTarget = 2
	before := pm.m.Stats().PrefetchMispredicted
	run(pm, f, fpDemand, 200)
	if got := pm.m.Stats().PrefetchMispredicted; got != before+1 {
		t.Errorf("mispredicts = %d, want %d (streak must fire)", got, before+1)
	}
	if pm.m.HoldTarget == 2 {
		t.Error("hold still engaged after streak mispredict")
	}
	if st := pm.m.Stats(); st.PrefetchWastedSpans == 0 {
		t.Error("mispredict charged no wasted spans")
	}
}

// TestTTLCancelsStaleSpeculation pins the cancel path: a speculation
// that nothing ever resolves dies at its TTL.
func TestTTLCancelsStaleSpeculation(t *testing.T) {
	pm, f := newTestManager(8)
	pm.specActive = true
	pm.specTarget = 3
	pm.specStart = 0
	before := pm.m.Stats().PrefetchCancelled
	// No phase length measured yet, so the fallback TTL applies. Zero
	// demand keeps the selector current, so neither settle nor streak
	// can resolve first.
	run(pm, f, arch.Counts{}, specTTLFallback+2)
	if got := pm.m.Stats().PrefetchCancelled; got != before+1 {
		t.Errorf("cancelled = %d, want %d (TTL must fire)", got, before+1)
	}
}

// TestManageDoesNotAllocate guards the cycle path: prediction must stay
// allocation-free once warmed up. One run over a 500-cycle window
// counts every malloc; AllocsPerRun's per-run average would round an
// allocation made less than once per cycle down to zero.
func TestManageDoesNotAllocate(t *testing.T) {
	pm, f := newTestManager(16)
	alternate(pm, f, 4, 150) // warm up: ring full, speculations flowing
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			f.Tick()
			pm.Manage(intDemand)
		}
	})
	if allocs != 0 {
		t.Errorf("Manage allocates %.0f times in 500 cycles, want 0", allocs)
	}
}

// TestRingAverageExact checks the detector's multiply-shift average
// against the division it replaces over its whole domain: every ring
// fill level n up to MaxHistoryDepth and every sum a ring of n clamped
// 3-bit demands can hold.
func TestRingAverageExact(t *testing.T) {
	for n := 1; n <= MaxHistoryDepth; n++ {
		recip := reciprocal(n)
		for sum := 0; sum <= 7*n; sum++ {
			if got, want := ringAverage(sum, recip), sum<<fpShift/n; got != want {
				t.Fatalf("ring of %d, sum %d: average %d, want %d", n, sum, got, want)
			}
		}
	}
}

// TestNewManagerRejectsDeepRing: a ring deeper than the detector's
// exactness bound panics rather than averaging inexactly.
func TestNewManagerRejectsDeepRing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewManager accepted a ring deeper than MaxHistoryDepth")
		}
	}()
	NewManager(rfu.New(8), config.DefaultBasis(), Config{HistoryDepth: MaxHistoryDepth + 1})
}
