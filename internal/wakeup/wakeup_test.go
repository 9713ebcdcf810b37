package wakeup

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
)

// allAvail asserts every unit-availability line.
func allAvail() [arch.NumUnitTypes]bool {
	var a [arch.NumUnitTypes]bool
	for i := range a {
		a[i] = true
	}
	return a
}

// scheduled reports whether row i has been granted execution.
func scheduled(a *Array, i int) bool { return a.scheduled>>uint(i)&1 != 0 }

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAllocateUntilFull(t *testing.T) {
	a := New(arch.QueueSize)
	for i := 0; i < arch.QueueSize; i++ {
		if a.Free() != arch.QueueSize-i {
			t.Fatalf("Free = %d before allocation %d", a.Free(), i)
		}
		a.Allocate(i, arch.IntALU, 0, 1)
		if !a.Used(i) {
			t.Fatalf("allocation %d left row %d unused", i, i)
		}
	}
	if a.Free() != 0 {
		t.Errorf("Free = %d on full array", a.Free())
	}
	defer func() {
		if recover() == nil {
			t.Error("allocation of a used row did not panic")
		}
	}()
	a.Allocate(3, arch.IntALU, 0, 1)
}

func TestAllocateReusesReleasedRows(t *testing.T) {
	a := New(3)
	a.Allocate(0, arch.IntALU, 0, 1)
	a.Allocate(1, arch.LSU, 0, 2)
	a.Grant(0)
	a.Release(0)
	a.Allocate(0, arch.FPALU, 1<<1, 3)
	if a.Unit(0) != arch.FPALU || scheduled(a, 0) || a.ResultAvailable(0) || !a.DependsOn(0, 1) {
		t.Error("reused row carries stale state")
	}
	if got := a.RequiredCounts(); got != (arch.Counts{arch.LSU: 1, arch.FPALU: 1}) {
		t.Errorf("RequiredCounts after reuse = %v", got)
	}
}

func TestAllocateRejectsBadDeps(t *testing.T) {
	a := New(3)
	a.Allocate(0, arch.IntALU, 0, 1)
	for _, c := range []struct {
		row  int
		deps uint64
	}{
		{1, 1 << 2},  // unused producer
		{1, 1 << 5},  // producer outside the array
		{1, 1 << 1},  // self dependency
		{0, 0},       // row already used
		{-1, 0},      // row outside the array
		{3, 1 << 0},  // row outside the array
		{2, 1 << 63}, // producer outside the array
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Allocate(%d, deps %#x) accepted", c.row, c.deps)
				}
			}()
			a.Allocate(c.row, arch.IntALU, c.deps, 1)
		}()
	}
}

// TestRequestGatedOnDependency: a consumer must not request execution
// until its producer's result-available line asserts.
func TestRequestGatedOnDependency(t *testing.T) {
	a := New(4)
	const prod, cons = 0, 1
	a.Allocate(prod, arch.IntMDU, 0, 4)
	a.Allocate(cons, arch.IntALU, 1<<prod, 1)

	av := allAvail()
	reqs := a.Requests(av)
	if len(reqs) != 1 || reqs[0] != prod {
		t.Fatalf("initial requests = %v, want [%d]", reqs, prod)
	}

	a.Grant(prod) // latency 4: timer = 3
	for cycle := 0; cycle < 2; cycle++ {
		a.Tick()
		if a.Request(cons, av) {
			t.Fatalf("consumer requested at cycle %d, before producer result", cycle)
		}
	}
	a.Tick() // timer hits zero: result available
	if !a.ResultAvailable(prod) {
		t.Fatal("producer result not available after latency-1 ticks")
	}
	if !a.Request(cons, av) {
		t.Fatal("consumer not requesting after producer result available")
	}
}

// TestRequestGatedOnUnitAvailability: with the needed unit type
// unavailable the row must stay silent (Fig. 6's resource columns).
func TestRequestGatedOnUnitAvailability(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.FPMDU, 0, 5)
	av := allAvail()
	av[arch.FPMDU] = false
	if a.Request(row, av) {
		t.Error("row requests with its unit unavailable")
	}
	av[arch.FPMDU] = true
	if !a.Request(row, av) {
		t.Error("row silent with its unit available")
	}
}

func TestGrantSingleCycleAssertsImmediately(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.IntALU, 0, 1)
	a.Grant(row)
	if !a.ResultAvailable(row) {
		t.Error("latency-1 instruction did not assert result at grant (§4.1)")
	}
	if a.Request(row, allAvail()) {
		t.Error("scheduled row still requests execution")
	}
}

func TestGrantTimerCountdown(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.FPALU, 0, 3)
	a.Grant(row) // timer = 2
	if a.ResultAvailable(row) {
		t.Fatal("result available immediately for latency 3")
	}
	a.Tick()
	if a.ResultAvailable(row) {
		t.Fatal("result available one cycle early")
	}
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Fatal("result not available after latency-1 ticks")
	}
}

func TestGrantPanicsOnInvalidState(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.IntALU, 0, 1)
	a.Grant(row)
	for name, f := range map[string]func(){
		"double grant":   func() { a.Grant(row) },
		"grant unused":   func() { a.Grant(1) },
		"release unused": func() { a.Release(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReschedule(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.LSU, 0, 2)
	a.Grant(row)
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Fatal("setup: result should be available")
	}
	a.Reschedule(row)
	if scheduled(a, row) || a.ResultAvailable(row) {
		t.Error("reschedule did not reset scheduled/result state")
	}
	if !a.Request(row, allAvail()) {
		t.Error("rescheduled row does not request execution again")
	}
}

// TestExtendTimer models a load discovering a cache miss: the countdown
// grows and the result line stays down until the extended time elapses.
func TestExtendTimer(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.LSU, 0, 2)
	a.Grant(row) // timer = 1
	a.ExtendTimer(row, 3)
	for i := 0; i < 3; i++ {
		a.Tick()
		if a.ResultAvailable(row) && i < 3 {
			t.Fatalf("result asserted %d cycles early", 3-i)
		}
	}
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Error("result not asserted after extended latency")
	}
}

func TestExtendTimerAfterResultRearms(t *testing.T) {
	a := New(2)
	const row = 0
	a.Allocate(row, arch.IntALU, 0, 1)
	a.Grant(row) // immediate result
	a.ExtendTimer(row, 2)
	if a.ResultAvailable(row) {
		t.Fatal("ExtendTimer did not de-assert the result line")
	}
	a.Tick()
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Error("result not re-asserted after extension")
	}
}

// TestReleaseClearsColumns pins §4.1: retiring an instruction clears its
// column in every row, so dependents stop waiting, and newly allocated
// instructions in the freed row are not spuriously depended upon.
func TestReleaseClearsColumns(t *testing.T) {
	a := New(4)
	const prod, cons = 0, 1
	a.Allocate(prod, arch.IntALU, 0, 1)
	a.Allocate(cons, arch.IntALU, 1<<prod, 1)
	a.Grant(prod)
	a.Release(prod)
	if a.DependsOn(cons, prod) {
		t.Error("consumer still depends on a retired producer")
	}
	if !a.Request(cons, allAvail()) {
		t.Error("consumer blocked by a retired producer")
	}
	// A new instruction in the freed row must not look like the old
	// producer.
	a.Allocate(prod, arch.FPMDU, 0, 5)
	if a.DependsOn(cons, prod) {
		t.Error("consumer depends on an unrelated instruction reusing the row")
	}
}

func TestCountsViews(t *testing.T) {
	a := New(arch.QueueSize)
	a.Allocate(0, arch.IntALU, 0, 1)
	a.Allocate(1, arch.IntALU, 1<<0, 1) // dependent: unscheduled but not ready
	a.Allocate(2, arch.LSU, 0, 2)
	a.Allocate(3, arch.FPMDU, 0, 5)
	a.Grant(3) // scheduled: excluded from both views

	req := a.RequiredCounts()
	if req != (arch.Counts{2, 0, 1, 0, 0}) {
		t.Errorf("RequiredCounts = %v", req)
	}
	if ready := a.ReadyMask(); ready != 1<<0|1<<2 {
		t.Errorf("ReadyMask = %#b, want rows 0 and 2", ready)
	}
}

// TestPaperExampleArray reproduces the Fig. 4/5 worked example. The two
// facts the text states explicitly are pinned exactly: the Load (entry 5)
// requires only the LSU and depends on nothing; the Multiply (entry 4)
// requires the IntMDU and depends only on the Subtract (entry 2).
func TestPaperExampleArray(t *testing.T) {
	a := PaperExample()
	if a.Free() != 0 || a.Size() != 7 {
		t.Fatalf("paper example fills %d of %d rows, want 7 of 7", a.Size()-a.Free(), a.Size())
	}
	const load = 4 // entry 5 (1-based in the paper)
	if a.Unit(load) != arch.LSU {
		t.Errorf("Load unit = %v, want LSU", a.Unit(load))
	}
	for j := 0; j < a.Size(); j++ {
		if a.DependsOn(load, j) {
			t.Errorf("Load depends on row %d; the paper says it depends on nothing", j)
		}
	}
	const mul = 3 // entry 4
	const sub = 1 // entry 2
	if a.Unit(mul) != arch.IntMDU {
		t.Errorf("Multiply unit = %v, want IntMDU", a.Unit(mul))
	}
	for j := 0; j < a.Size(); j++ {
		want := j == sub
		if a.DependsOn(mul, j) != want {
			t.Errorf("Multiply dependency on row %d = %v, want %v", j, a.DependsOn(mul, j), want)
		}
	}
	// Unit columns of all seven entries.
	wantUnits := []arch.UnitType{arch.IntALU, arch.IntALU, arch.IntALU,
		arch.IntMDU, arch.LSU, arch.FPMDU, arch.FPALU}
	for i, want := range wantUnits {
		if a.Unit(i) != want {
			t.Errorf("entry %d unit = %v, want %v", i+1, a.Unit(i), want)
		}
	}
}

// TestPaperExampleSchedules drives the example to completion with all
// units available and checks every instruction eventually executes in
// dependency order.
func TestPaperExampleSchedules(t *testing.T) {
	a := PaperExample()
	granted := make(map[int]int) // row -> grant cycle
	av := allAvail()
	for cycle := 0; cycle < 100 && len(granted) < a.Size(); cycle++ {
		for _, r := range a.Requests(av) {
			a.Grant(r)
			granted[r] = cycle
		}
		a.Tick()
	}
	if len(granted) != a.Size() {
		t.Fatalf("only %d of %d instructions granted", len(granted), a.Size())
	}
	for r := 0; r < a.Size(); r++ {
		for j := 0; j < a.Size(); j++ {
			if a.DependsOn(r, j) && granted[j] >= granted[r] {
				t.Errorf("row %d granted at %d, not after its producer %d at %d",
					r, granted[r], j, granted[j])
			}
		}
	}
}

func TestDumpShape(t *testing.T) {
	a := PaperExample()
	out := a.Dump([]string{"Shift", "Sub", "Add", "Mul", "Load", "FPMul", "FPAdd"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 { // header + 7 rows
		t.Fatalf("Dump has %d lines, want 8:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "IntMDU") || !strings.Contains(lines[0], "E7") {
		t.Errorf("Dump header missing columns: %q", lines[0])
	}
	if !strings.HasPrefix(lines[5], "Load") {
		t.Errorf("row labels not applied: %q", lines[5])
	}
}

// TestRowCircuitEquivalence proves the Fig. 6 gate network equals the
// behavioural request predicate over randomized row states.
func TestRowCircuitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20000; trial++ {
		var needUnit, availUnit [arch.NumUnitTypes]bool
		needUnit[rng.Intn(arch.NumUnitTypes)] = true // one-hot, as in the array
		for i := range availUnit {
			availUnit[i] = rng.Intn(2) == 1
		}
		n := arch.QueueSize
		depNeed := make([]bool, n)
		depOK := make([]bool, n)
		for i := 0; i < n; i++ {
			depNeed[i] = rng.Intn(3) == 0
			depOK[i] = rng.Intn(2) == 1
		}
		scheduled := rng.Intn(2) == 1

		want := !scheduled
		for t := range needUnit {
			if needUnit[t] && !availUnit[t] {
				want = false
			}
		}
		for i := range depNeed {
			if depNeed[i] && !depOK[i] {
				want = false
			}
		}
		got := CircuitRequest(needUnit, availUnit, depNeed, depOK, scheduled)
		if got != want {
			t.Fatalf("circuit %v != behaviour %v (unit=%v avail=%v need=%v ok=%v sched=%v)",
				got, want, needUnit, availUnit, depNeed, depOK, scheduled)
		}
	}
}

// TestNoRequestEverViolatesDependencies is a liveness/safety property
// under random operation sequences: whenever a row requests execution all
// of its recorded dependencies have asserted results.
func TestNoRequestEverViolatesDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := New(arch.QueueSize)
	live := map[int]bool{}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0: // allocate a random free row with random deps on live rows
			row := rng.Intn(a.Size())
			if live[row] {
				break
			}
			var deps uint64
			for r := range live {
				if rng.Intn(3) == 0 {
					deps |= 1 << uint(r)
				}
			}
			unit := arch.UnitType(rng.Intn(arch.NumUnitTypes))
			a.Allocate(row, unit, deps, 1+rng.Intn(6))
			live[row] = true
		case 1: // grant a random requester
			av := allAvail()
			reqs := a.Requests(av)
			if len(reqs) > 0 {
				a.Grant(reqs[rng.Intn(len(reqs))])
			}
		case 2: // retire a random completed row
			for r := range live {
				if scheduled(a, r) && a.ResultAvailable(r) {
					a.Release(r)
					delete(live, r)
					break
				}
			}
		case 3:
			a.Tick()
		}
		// Invariant check.
		for _, r := range a.Requests(allAvail()) {
			for j := 0; j < a.Size(); j++ {
				if a.DependsOn(r, j) && !a.ResultAvailable(j) {
					t.Fatalf("step %d: row %d requests with unsatisfied dependency on %d", step, r, j)
				}
			}
		}
	}
}
