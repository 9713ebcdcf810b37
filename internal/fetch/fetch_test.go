package fetch

import (
	"testing"

	"repro/internal/isa"
)

func newTestUnit(src string) *Unit {
	prog := isa.MustAssemble(src)
	return NewUnit(prog, NewPredictor(64), NewTraceCache(16))
}

func TestPredictorSaturatingCounters(t *testing.T) {
	p := NewPredictor(16)
	pc := uint32(5)
	if p.PredictTaken(pc) {
		t.Error("reset state predicts taken; want weakly not-taken")
	}
	p.UpdateTaken(pc, true)
	if !p.PredictTaken(pc) {
		t.Error("one taken update should flip a weakly-not-taken counter")
	}
	// Saturate taken, then require two not-taken updates to flip.
	for i := 0; i < 5; i++ {
		p.UpdateTaken(pc, true)
	}
	p.UpdateTaken(pc, false)
	if !p.PredictTaken(pc) {
		t.Error("single not-taken flipped a saturated counter")
	}
	p.UpdateTaken(pc, false)
	p.UpdateTaken(pc, false)
	if p.PredictTaken(pc) {
		t.Error("counter did not train toward not-taken")
	}
}

func TestPredictorBTB(t *testing.T) {
	p := NewPredictor(16)
	if _, ok := p.PredictTarget(7); ok {
		t.Error("cold BTB hit")
	}
	p.UpdateTarget(7, 42)
	target, ok := p.PredictTarget(7)
	if !ok || target != 42 {
		t.Errorf("BTB = %d,%v want 42,true", target, ok)
	}
	// Aliasing entry with a different tag must miss.
	if _, ok := p.PredictTarget(7 + 16); ok {
		t.Error("aliased BTB entry hit with wrong tag")
	}
}

func TestPredictorAccuracyAccounting(t *testing.T) {
	p := NewPredictor(16)
	p.RecordOutcome(true)
	p.RecordOutcome(true)
	p.RecordOutcome(false)
	acc, n := p.Accuracy()
	if n != 3 || acc < 0.66 || acc > 0.67 {
		t.Errorf("accuracy = %v over %d", acc, n)
	}
}

// TestGshareLearnsCorrelatedPattern: a branch whose outcome copies the
// previous branch's direction alternating each iteration is perfectly
// history-correlated: gshare learns it (distinct counters per history)
// while bimodal's single alternating counter cannot exceed chance.
func TestGshareLearnsCorrelatedPattern(t *testing.T) {
	accuracy := func(p *Predictor) float64 {
		correct, total := 0, 0
		for i := 0; i < 200; i++ {
			b := i%2 == 0
			p.UpdateTaken(100, b) // leading branch writes the history
			if i >= 100 {         // measure after warmup
				if p.PredictTaken(200) == b {
					correct++
				}
				total++
			}
			p.UpdateTaken(200, b) // correlated branch
		}
		return float64(correct) / float64(total)
	}
	gshare := accuracy(NewGsharePredictor(256, 4))
	bimodal := accuracy(NewPredictor(256))
	if gshare < 0.95 {
		t.Errorf("gshare accuracy %.2f on a perfectly correlated pattern", gshare)
	}
	if bimodal > 0.7 {
		t.Errorf("bimodal accuracy %.2f, expected near chance on alternation", bimodal)
	}
	if gshare <= bimodal {
		t.Errorf("gshare %.2f not above bimodal %.2f", gshare, bimodal)
	}
}

func TestBimodalIgnoresHistory(t *testing.T) {
	p := NewPredictor(64)
	pc := uint32(9)
	p.UpdateTaken(pc, true)
	p.UpdateTaken(pc, true)
	for i := 0; i < 8; i++ {
		p.UpdateTaken(3, i%2 == 0) // churn other branches
	}
	if !p.PredictTaken(pc) {
		t.Error("bimodal prediction changed with unrelated history")
	}
}

func TestPredictorRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewPredictor(3)
}

func TestTraceCacheFillLookup(t *testing.T) {
	tc := NewTraceCache(8)
	if tc.Lookup(10) {
		t.Error("cold lookup hit")
	}
	tc.Fill(10)
	if !tc.Lookup(10) {
		t.Fatal("filled line missed")
	}
	tc.Fill(18) // same set: replaces the line starting at 10
	if tc.Lookup(10) {
		t.Error("evicted line hit")
	}
	rate, n := tc.HitRate()
	if n != 3 || rate != 1.0/3 {
		t.Errorf("hit rate %v over %d", rate, n)
	}
}

func TestFetchSequentialGroup(t *testing.T) {
	u := newTestUnit(`
		add r1, r1, r1
		add r2, r2, r2
		add r3, r3, r3
		halt
	`)
	group := u.AppendFetch(nil)
	if len(group) != u.MemWidth {
		t.Fatalf("first group size %d, want mem width %d", len(group), u.MemWidth)
	}
	if group[0].PC != 0 || group[1].PC != 1 {
		t.Errorf("group PCs %d,%d", group[0].PC, group[1].PC)
	}
	if group[0].PredNext != 1 {
		t.Errorf("sequential PredNext = %d", group[0].PredNext)
	}
}

func TestFetchStopsAtHalt(t *testing.T) {
	u := newTestUnit(`
		halt
		add r1, r1, r1
	`)
	group := u.AppendFetch(nil)
	if len(group) != 1 || group[0].Inst.Op != isa.HALT {
		t.Fatalf("group = %v", group)
	}
	if u.PC() != 0 {
		t.Errorf("fetch did not park on HALT: pc=%d", u.PC())
	}
	// Subsequent fetches supply nothing until a redirect (the HALT may
	// have been wrong-path and be flushed).
	if group = u.AppendFetch(nil); group != nil {
		t.Errorf("parked fetch group = %v, want nil", group)
	}
	u.Redirect(1)
	if group = u.AppendFetch(nil); len(group) != 1 || group[0].Inst.Op != isa.ADD {
		t.Errorf("post-redirect group = %v", group)
	}
}

func TestFetchFollowsJAL(t *testing.T) {
	u := newTestUnit(`
		j target
		add r1, r1, r1
		add r2, r2, r2
	target:
		halt
	`)
	group := u.AppendFetch(nil)
	if len(group) != 1 {
		t.Fatalf("group size %d, want 1 (cut at taken jump)", len(group))
	}
	if group[0].PredNext != 3 {
		t.Errorf("JAL prediction = %d, want 3", group[0].PredNext)
	}
	if u.PC() != 3 {
		t.Errorf("fetch pc after jump = %d, want 3", u.PC())
	}
}

func TestFetchConditionalPrediction(t *testing.T) {
	u := newTestUnit(`
	loop:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	// Cold counters predict not-taken: fetch falls through.
	u.AppendFetch(nil) // pcs 0,1
	if u.PC() != 2 {
		t.Fatalf("cold fetch pc = %d, want fall-through 2", u.PC())
	}
	// Train the branch taken and redirect to the loop head.
	for i := 0; i < 2; i++ {
		u.pred.UpdateTaken(1, true)
	}
	u.Redirect(0)
	group := u.AppendFetch(nil)
	if len(group) != 2 {
		t.Fatalf("trained group size %d", len(group))
	}
	if group[1].PredNext != 0 {
		t.Errorf("trained branch prediction = %d, want taken to 0", group[1].PredNext)
	}
	if u.PC() != 0 {
		t.Errorf("fetch pc after predicted-taken = %d, want 0", u.PC())
	}
}

func TestFetchJALRUsesBTB(t *testing.T) {
	u := newTestUnit(`
		jalr r31, r5, 0
		add r1, r1, r1
		halt
	`)
	// Cold BTB: fall through.
	group := u.AppendFetch(nil)
	if group[0].PredNext != 1 {
		t.Errorf("cold JALR predicted %d, want fall-through 1", group[0].PredNext)
	}
	// Train the BTB to target 2.
	u.pred.UpdateTarget(0, 2)
	u.Redirect(0)
	group = u.AppendFetch(nil)
	if group[0].PredNext != 2 {
		t.Errorf("JALR prediction = %d, want 2", group[0].PredNext)
	}
	if u.PC() != 2 {
		t.Errorf("pc = %d, want 2", u.PC())
	}
}

// TestTraceCacheWidensFetch: the second visit to a straight-line run hits
// the trace cache and fetches TCWidth instructions.
func TestTraceCacheWidensFetch(t *testing.T) {
	u := newTestUnit(`
		add r1, r1, r1
		add r2, r2, r2
		add r3, r3, r3
		add r4, r4, r4
		add r5, r5, r5
		halt
	`)
	first := u.AppendFetch(nil)
	if len(first) != u.MemWidth {
		t.Fatalf("cold fetch width %d", len(first))
	}
	u.Redirect(0)
	second := u.AppendFetch(nil)
	if len(second) != u.TCWidth {
		t.Fatalf("warm fetch width %d, want %d", len(second), u.TCWidth)
	}
}

func TestFetchStallsOutsideProgram(t *testing.T) {
	u := newTestUnit("halt")
	u.Redirect(50)
	if group := u.AppendFetch(nil); group != nil {
		t.Errorf("out-of-range fetch returned %v", group)
	}
}

func TestFetchedCounter(t *testing.T) {
	u := newTestUnit(`
		add r1, r1, r1
		add r2, r2, r2
		halt
	`)
	u.AppendFetch(nil)
	u.AppendFetch(nil)
	if u.Fetched() != 3 {
		t.Errorf("Fetched = %d, want 3", u.Fetched())
	}
}
