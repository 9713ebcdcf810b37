package trace

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// testProg is the program the rendering tests disassemble from.
var testProg = isa.MustAssemble(`
	add r1, r2, r3
	beq r1, r0, 4
	lw r4, 0(r5)
	mul r1, r2, r3
	halt
`)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindFetch: "fetch", KindDispatch: "dispatch", KindIssue: "issue",
		KindRetire: "retire", KindFlush: "flush", KindReconfig: "reconfig",
		KindCycleEnd: "cycle-end", KindDecision: "decision", KindSpecResolve: "spec-resolve",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind format")
	}
}

// TestRingOrderAfterWrap pushes past the capacity, checking after each
// push that the copy holds the newest values oldest first and that the
// pushed count includes the overwritten ones.
func TestRingOrderAfterWrap(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Copy(); got == nil || len(got) != 0 || r.Len() != 0 || r.Pushed() != 0 {
		t.Fatalf("empty ring: copy %v, len %d, pushed %d", got, r.Len(), r.Pushed())
	}
	for n := 1; n <= 11; n++ {
		r.Push(n)
		got := r.Copy()
		first := max(1, n-3)
		if len(got) != n-first+1 || r.Len() != len(got) || r.Pushed() != n {
			t.Fatalf("after %d pushes: copy %v, len %d, pushed %d", n, got, r.Len(), r.Pushed())
		}
		for i, v := range got {
			if v != first+i {
				t.Fatalf("after %d pushes: copy %v, want %d..%d", n, got, first, n)
			}
		}
	}
	got := r.Copy()
	got[0] = -1
	if r.Copy()[0] == -1 {
		t.Error("Copy shares the ring's storage")
	}
}

func TestRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewRing[int](0)
}

func TestBufferBounded(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Record(Event{Cycle: int64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !b.Dropped() {
		t.Error("Dropped = false after eviction")
	}
	evs := b.Events()
	for i, e := range evs {
		if e.Cycle != int64(i+2) {
			t.Errorf("event %d cycle = %d, want %d (oldest-first after eviction)", i, e.Cycle, i+2)
		}
	}
}

func TestBufferUnderLimit(t *testing.T) {
	b := NewBuffer(10)
	b.Record(Event{Cycle: 1})
	b.Record(Event{Cycle: 2})
	evs := b.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || b.Dropped() {
		t.Errorf("events = %v dropped = %v", evs, b.Dropped())
	}
}

func TestBufferPanicsOnBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewBuffer(0)
}

// TestBufferDerivesFetchRow: a dispatch event is stored as a fetch row
// at the fetch cycle it carries, then the dispatch row.
func TestBufferDerivesFetchRow(t *testing.T) {
	b := NewBuffer(10)
	b.Observe(Event{Cycle: 7, Kind: KindDispatch, A: 3, B: 1, C: 5})
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %v, want fetch + dispatch", evs)
	}
	if f := evs[0]; f.Kind != KindFetch || f.Cycle != 5 || f.Seq() != 3 || f.PC() != 1 {
		t.Errorf("fetch row = %+v, want cycle 5 seq 3 pc 1", f)
	}
	if d := evs[1]; d.Kind != KindDispatch || d.Cycle != 7 {
		t.Errorf("dispatch row = %+v, want cycle 7", d)
	}
}

func TestEventString(t *testing.T) {
	issue := Event{Cycle: 12, Kind: KindIssue, A: 3, B: 3, C: 4}
	if got := text(issue, testProg); !strings.Contains(got, "mul") {
		t.Errorf("issue text %q not disassembled from the program", got)
	}
	r := Event{Cycle: 5, Kind: KindReconfig, A: 2, B: 3, Str: "FPALU"}
	if got := text(r, testProg); got != "FPALU at slot 2" {
		t.Errorf("reconfig text %q", got)
	}
	if got := text(Event{Kind: KindRetire, B: 3}, testProg); got != "" {
		t.Errorf("retire text %q, want empty", got)
	}
}

func TestPipeviewMarkers(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindFetch, A: 1, B: 0},
		{Cycle: 1, Kind: KindDispatch, A: 1, B: 0},
		{Cycle: 2, Kind: KindIssue, A: 1, B: 0, C: 3},
		{Cycle: 6, Kind: KindRetire, A: 1, B: 0},
		{Cycle: 0, Kind: KindFetch, A: 2, B: 1},
		{Cycle: 1, Kind: KindDispatch, A: 2, B: 1},
		{Cycle: 3, Kind: KindFlush, A: 2, B: 1},
		{Cycle: 4, Kind: KindReconfig, A: 3, B: 1, Str: "LSU"},
	}
	out := Pipeview(events, testProg, 0, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 instructions + 1 reconfig row
		t.Fatalf("pipeview lines = %d:\n%s", len(lines), out)
	}
	// Row 1: F D I = = . R
	row1 := lines[1]
	chart1 := row1[strings.LastIndex(row1, " ")+1:]
	if chart1 != "FDI==.R.." {
		t.Errorf("row 1 chart = %q, want FDI==.R..", chart1)
	}
	if !strings.Contains(row1, "add r1, r2, r3") {
		t.Errorf("row 1 = %q, want the disassembled instruction", row1)
	}
	row2 := lines[2]
	chart2 := row2[strings.LastIndex(row2, " ")+1:]
	if chart2 != "FD.x....." {
		t.Errorf("row 2 chart = %q, want FD.x.....", chart2)
	}
	// The reconfig happened after both fetches, so it renders last: a
	// seq-less row with a C marker at its cycle.
	row3 := lines[3]
	chart3 := row3[strings.LastIndex(row3, " ")+1:]
	if chart3 != "....C...." {
		t.Errorf("reconfig chart = %q, want ....C....", chart3)
	}
	if !strings.HasPrefix(row3, "-") || !strings.Contains(row3, "LSU at slot 3") {
		t.Errorf("reconfig row = %q, want seq-less row naming the span", row3)
	}
}

func TestPipeviewReconfigInterleavesWithFlushes(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindFetch, A: 1, B: 0},
		{Cycle: 2, Kind: KindRetire, A: 1, B: 0},
		{Cycle: 3, Kind: KindReconfig, A: 0, B: 3, Str: "FPALU"},
		{Cycle: 4, Kind: KindFetch, A: 2, B: 1},
		{Cycle: 5, Kind: KindDispatch, A: 2, B: 1},
		{Cycle: 6, Kind: KindFlush, A: 2, B: 1},
		{Cycle: 7, Kind: KindReconfig, A: 4, B: 1, Str: "LSU"},
		{Cycle: 8, Kind: KindFetch, A: 3, B: 2},
		{Cycle: 9, Kind: KindRetire, A: 3, B: 2},
	}
	out := Pipeview(events, testProg, 0, 9)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // header + 3 instructions + 2 reconfigs
		t.Fatalf("pipeview lines = %d:\n%s", len(lines), out)
	}
	// Chronological order top to bottom: inst 1, reconfig@3, flushed
	// inst 2, reconfig@7, inst 3.
	wantOrder := []string{"add r1", "FPALU at slot 0", "beq r1", "LSU at slot 4", "lw r4"}
	for i, want := range wantOrder {
		if !strings.Contains(lines[i+1], want) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i+1], want)
		}
	}
	chartOf := func(line string) string { return line[strings.LastIndex(line, " ")+1:] }
	if got := chartOf(lines[2]); got != "...C......" {
		t.Errorf("first reconfig chart = %q, want ...C......", got)
	}
	if got := chartOf(lines[3]); got != "....FDx..." {
		t.Errorf("flushed instruction chart = %q, want ....FDx...", got)
	}
	if got := chartOf(lines[4]); got != ".......C.." {
		t.Errorf("second reconfig chart = %q, want .......C..", got)
	}
}

func TestPipeviewReconfigClippedOutsideRange(t *testing.T) {
	events := []Event{
		{Cycle: 5, Kind: KindDispatch, A: 1, B: 3},
		{Cycle: 6, Kind: KindRetire, A: 1, B: 3},
		{Cycle: 50, Kind: KindReconfig, A: 6, B: 1, Str: "IntMDU"},
	}
	out := Pipeview(events, testProg, 0, 10)
	if strings.Contains(out, "IntMDU") {
		t.Error("reconfig outside the cycle range was not clipped")
	}
	if !strings.Contains(out, "mul r1") {
		t.Error("in-range instruction missing")
	}
}

func TestUntilCutsOffAfterCycle(t *testing.T) {
	b := NewBuffer(100)
	b.Until = 5
	for c := 0; c < 10; c++ {
		b.Record(Event{Cycle: int64(c)})
	}
	if b.Len() != 6 { // cycles 0..5 inclusive
		t.Errorf("recorded %d events, want 6", b.Len())
	}
	for _, e := range b.Events() {
		if e.Cycle > 5 {
			t.Errorf("event past cutoff recorded: cycle %d", e.Cycle)
		}
	}
}

func TestPipeviewClipsRange(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindDispatch, A: 1, B: 0},
		{Cycle: 1, Kind: KindRetire, A: 1, B: 0},
		{Cycle: 50, Kind: KindDispatch, A: 2, B: 3},
		{Cycle: 51, Kind: KindRetire, A: 2, B: 3},
	}
	out := Pipeview(events, testProg, 40, 60)
	if strings.Contains(out, "add r1") {
		t.Error("instruction entirely before the range not clipped")
	}
	if !strings.Contains(out, "mul r1") {
		t.Error("in-range instruction missing")
	}
	if Pipeview(events, testProg, 10, 5) != "" {
		t.Error("inverted range did not produce empty output")
	}
}

// countSink counts the events it observes.
type countSink struct {
	kinds Mask
	seen  []Event
}

func (s *countSink) Kinds() Mask     { return s.kinds }
func (s *countSink) Observe(e Event) { s.seen = append(s.seen, e) }

// TestObserverFanOut: each event reaches exactly the sinks consuming its
// kind, stamped with the observer's cycle and core label.
func TestObserverFanOut(t *testing.T) {
	all := &countSink{kinds: ^Mask(0)}
	faults := &countSink{kinds: Kinds(KindFaultInject)}
	o := &Observer{}
	o.Add(all)
	o.Add(faults)
	o.SetCore(3)
	o.SetCycle(42)
	o.Emit(Event{Kind: KindCycleEnd, A: 7})
	o.Emit(Event{Kind: KindFaultInject, A: 5, B: 1})
	o.Emit(Event{Kind: KindRetire})

	if len(all.seen) != 3 || len(faults.seen) != 1 {
		t.Fatalf("all saw %d events, faults saw %d; want 3 and 1", len(all.seen), len(faults.seen))
	}
	if c := all.seen[0]; c.Kind != KindCycleEnd || c.Cycle != 42 || c.A != 7 {
		t.Errorf("cycle event = %+v, want KindCycleEnd at 42 carrying retired 7", c)
	}
	f := faults.seen[0]
	if f.Cycle != 42 || f.Core != 3 || f.A != 5 || f.B != 1 {
		t.Errorf("fault event = %+v, want stamped cycle 42 core 3, slot 5", f)
	}
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	o.SetCore(1)
	o.SetCycle(1)
	o.Emit(Event{Kind: KindRetire})
}

func TestPack4RoundTrip(t *testing.T) {
	v := [4]int{7, 0, 255, 8}
	if got := Unpack4(Pack4(v)); got != v {
		t.Errorf("Unpack4(Pack4(%v)) = %v", v, got)
	}
}
