package span

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// sim drives a recorder through an observer, as a machine would.
type sim struct {
	o *trace.Observer
}

func newSim(r *Recorder) sim {
	o := &trace.Observer{}
	o.Add(r)
	return sim{o}
}

// cycle starts cycle c with retired instructions retired so far: cycle
// c-1 ends, and an event of cycle c (here its own end, with nothing more
// retired) reaches the recorder, as the running processor's would.
func (s sim) cycle(c, retired int) {
	for _, at := range []int{c - 1, c} {
		s.o.SetCycle(at)
		s.o.Emit(trace.Event{Kind: trace.KindCycleEnd, A: int32(retired)})
	}
}

func (s sim) reconfig(slot, width, latency int, unit string) {
	s.o.Emit(trace.Event{Kind: trace.KindReconfig, A: int32(slot), B: int32(width), C: int32(latency), Str: unit})
}

func (s sim) inject(slot int, permanent bool) {
	var b int32
	if permanent {
		b = 1
	}
	s.o.Emit(trace.Event{Kind: trace.KindFaultInject, A: int32(slot), B: b})
}

func (s sim) emit(kind trace.Kind, slot int) {
	s.o.Emit(trace.Event{Kind: kind, A: int32(slot)})
}

func (s sim) specOpen(config string, conf int) {
	s.o.Emit(trace.Event{Kind: trace.KindSpecOpen, Str: config, B: int32(conf)})
}

func (s sim) specResolve(outcome int32, spans int) {
	s.o.Emit(trace.Event{Kind: trace.KindSpecResolve, A: int32(spans), C: outcome})
}

// TestNilRecorderSafe pins the nil-receiver contract of the accessors
// and exports, which report paths call whether or not spans were on.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Finish()
	if got := r.Entries(); got != nil {
		t.Errorf("nil recorder Entries() = %v, want nil", got)
	}
	if got := r.Flight(); got != nil {
		t.Errorf("nil recorder Flight() = %v, want nil", got)
	}
	if r.Triggers() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reported triggers or drops")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
	if err := r.WriteJSONL(&buf); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := r.DumpFlight(&buf, ""); err != nil {
		t.Errorf("nil DumpFlight: %v", err)
	}
}

// TestFaultStormTrigger drives injections past the window threshold and
// checks the trigger fires exactly at the window boundary, records a
// trigger entry, and invokes the OnTrigger dump hook.
func TestFaultStormTrigger(t *testing.T) {
	var hookReasons []string
	r := NewRecorder(Config{
		Window:     64,
		FaultStorm: 2,
		OnTrigger: func(rec *Recorder, reason string) {
			hookReasons = append(hookReasons, reason)
			if rec.Triggers() == 0 {
				t.Error("hook ran before the trigger entry was recorded")
			}
		},
	}, 4)
	s := newSim(r)

	for c := 1; c < 64; c++ {
		s.cycle(c, c)
	}
	// Three injections in the window, threshold 2: one over.
	s.inject(0, false)
	s.inject(1, false)
	s.inject(2, true)
	if r.Triggers() != 0 {
		t.Fatal("trigger fired before the window boundary")
	}
	s.cycle(64, 64)
	if r.Triggers() != 1 {
		t.Fatalf("Triggers() = %d, want 1", r.Triggers())
	}
	if len(hookReasons) != 1 || hookReasons[0] != TriggerFaultStorm {
		t.Fatalf("hook reasons = %v, want [%s]", hookReasons, TriggerFaultStorm)
	}

	var trig *Entry
	for i, e := range r.Entries() {
		if e.Kind == KindTrigger {
			trig = &r.Entries()[i]
		}
	}
	if trig == nil {
		t.Fatal("no trigger entry recorded")
	}
	if trig.Name != TriggerFaultStorm || trig.A != 3 || trig.B != 2 {
		t.Errorf("trigger entry = %+v, want fault-storm value 3 threshold 2", trig)
	}

	// The counter resets per window: two more injections stay under.
	s.inject(0, false)
	s.inject(0, false)
	s.cycle(128, 128)
	if r.Triggers() != 1 {
		t.Errorf("Triggers() = %d after an under-threshold window, want 1", r.Triggers())
	}
}

// TestTriggerNeedsNextCycle: a run cut off at the last cycle of a
// window never starts the next cycle, so that window is not evaluated.
func TestTriggerNeedsNextCycle(t *testing.T) {
	r := NewRecorder(Config{Window: 64, FaultStorm: 1}, 4)
	s := newSim(r)
	s.cycle(62, 62)
	s.inject(0, false)
	s.inject(1, false)
	s.o.SetCycle(63)
	s.o.Emit(trace.Event{Kind: trace.KindCycleEnd, A: 63})
	r.Finish()
	if r.Triggers() != 0 {
		t.Fatalf("Triggers() = %d for a window whose next cycle never ran, want 0", r.Triggers())
	}
}

// TestIPCCollapseTrigger feeds three healthy baseline windows and then a
// collapsed one; the trigger must fire only on the collapsed window.
func TestIPCCollapseTrigger(t *testing.T) {
	r := NewRecorder(Config{Window: 16, IPCCollapsePct: 50}, 4)
	s := newSim(r)

	retired := 0
	window := func(delta int) {
		retired += delta
		s.cycle(16*(r.winIndex+1), retired)
	}
	window(5)   // window 1: pipeline ramp, ignored
	window(100) // windows 2-4: baseline
	window(100)
	window(100)
	if r.Triggers() != 0 {
		t.Fatal("trigger fired during baseline windows")
	}
	window(80) // 80% of baseline: healthy
	if r.Triggers() != 0 {
		t.Fatal("trigger fired on a healthy window")
	}
	window(10) // 10% of baseline, threshold 50%: collapse
	if r.Triggers() != 1 {
		t.Fatalf("Triggers() = %d after collapsed window, want 1", r.Triggers())
	}
	var trig Entry
	for _, e := range r.Entries() {
		if e.Kind == KindTrigger {
			trig = e
		}
	}
	if trig.Name != TriggerIPCCollapse || trig.A != 10 || trig.B != 100 {
		t.Errorf("trigger entry = %+v, want ipc-collapse value 10 baseline 100", trig)
	}
}

// TestFlightRingBounds checks the ring keeps only the newest FlightSize
// entries, oldest first, and the trace buffer counts drops past MaxTrace.
func TestFlightRingBounds(t *testing.T) {
	r := NewRecorder(Config{MaxTrace: 6, FlightSize: 4}, 4)
	s := newSim(r)
	for i := 1; i <= 10; i++ {
		s.cycle(i, i)
		s.reconfig(i%4, 1, i, "IntAdd")
	}
	if got := len(r.Entries()); got != 6 {
		t.Errorf("trace length = %d, want MaxTrace 6", got)
	}
	if got := r.Dropped(); got != 4 {
		t.Errorf("Dropped() = %d, want 4", got)
	}
	flight := r.Flight()
	if len(flight) != 4 {
		t.Fatalf("flight length = %d, want 4", len(flight))
	}
	for i, e := range flight {
		if want := int64(7 + i); e.Start != want {
			t.Errorf("flight[%d].Start = %d, want %d (oldest first)", i, e.Start, want)
		}
	}
}

// TestOpenSpanLifecycles exercises repair, speculation and phase epochs
// through open → close, including Finish closing trailing spans.
func TestOpenSpanLifecycles(t *testing.T) {
	r := NewRecorder(Config{}, 4)
	s := newSim(r)

	s.cycle(10, 10)
	s.emit(trace.KindRepairStart, 2)
	s.specOpen("2xIntAdd", 75)
	s.emit(trace.KindPhaseChange, -1)

	s.cycle(50, 50)
	s.emit(trace.KindRepairEnd, 2)
	s.specResolve(trace.SpecMispredict, 2)
	s.emit(trace.KindPhaseChange, -1)

	s.cycle(90, 90)
	s.specOpen("4xFPMul", 60)        // left open: Finish resolves it as "open"
	s.emit(trace.KindRepairStart, 1) // left open: Finish closes it
	r.Finish()
	r.Finish() // idempotent

	byKind := map[Kind][]Entry{}
	for _, e := range r.Entries() {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}

	repairs := byKind[KindRepair]
	if len(repairs) != 2 {
		t.Fatalf("repair spans = %d, want 2", len(repairs))
	}
	if repairs[0].Slot != 2 || repairs[0].Start != 10 || repairs[0].Dur != 40 || repairs[0].Aux != "repaired" {
		t.Errorf("closed repair span = %+v", repairs[0])
	}
	if repairs[1].Slot != 1 || repairs[1].Aux != OutcomeOpen {
		t.Errorf("trailing repair span = %+v", repairs[1])
	}

	specs := byKind[KindSpec]
	if len(specs) != 2 {
		t.Fatalf("speculation spans = %d, want 2", len(specs))
	}
	if specs[0].Name != "2xIntAdd" || specs[0].Aux != OutcomeMispredict ||
		specs[0].A != 2 || specs[0].B != 75 || specs[0].Dur != 40 {
		t.Errorf("resolved speculation = %+v", specs[0])
	}
	if specs[1].Name != "4xFPMul" || specs[1].Aux != OutcomeOpen {
		t.Errorf("trailing speculation = %+v", specs[1])
	}

	phases := byKind[KindPhase]
	if len(phases) != 2 {
		t.Fatalf("phase spans = %d, want 2", len(phases))
	}
	if phases[0].Start != 10 || phases[0].Dur != 40 || phases[0].A != 1 {
		t.Errorf("first phase = %+v", phases[0])
	}
	if phases[1].Start != 50 || phases[1].Dur != 40 || phases[1].A != 2 {
		t.Errorf("second phase = %+v", phases[1])
	}
}

// TestWriteChromeTrace checks the export is one valid JSON document with
// the lanes and event phases Perfetto expects.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(Config{Window: 64, FaultStorm: 1}, 4)
	s := newSim(r)
	s.cycle(5, 5)
	s.reconfig(2, 2, 16, "FPMul")
	s.inject(1, false)
	s.inject(1, false)
	s.cycle(64, 64) // fault storm → trigger instant
	r.Finish()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Ph    string `json:"ph"`
			TS    int64  `json:"ts"`
			Dur   *int64 `json:"dur"`
			PID   int    `json:"pid"`
			TID   int    `json:"tid"`
			Scope string `json:"s"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var sawReconfig, sawTrigger, sawProcessName bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			sawProcessName = true
		case ev.Cat == "reconfig":
			sawReconfig = true
			if ev.Ph != "X" || ev.Dur == nil || *ev.Dur != 16 {
				t.Errorf("reconfig event = %+v, want complete span dur 16", ev)
			}
			if ev.TID != tidSlotBase+2 || ev.TS != 5 {
				t.Errorf("reconfig lane/ts = tid %d ts %d, want tid %d ts 5", ev.TID, ev.TS, tidSlotBase+2)
			}
		case ev.Cat == "trigger":
			sawTrigger = true
			if ev.Ph != "i" || ev.Scope != "t" {
				t.Errorf("trigger event = %+v, want thread-scoped instant", ev)
			}
		}
	}
	if !sawProcessName || !sawReconfig || !sawTrigger {
		t.Errorf("missing events: process_name=%v reconfig=%v trigger=%v",
			sawProcessName, sawReconfig, sawTrigger)
	}
}

// TestWriteJSONL checks every exported line parses and carries the
// record discriminator.
func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(Config{}, 4)
	s := newSim(r)
	s.cycle(3, 3)
	s.reconfig(0, 1, 8, "IntAdd")
	s.inject(0, true)
	r.Finish()

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	wantRecords := []string{"span", "instant"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if rec["record"] != wantRecords[i] {
			t.Errorf("line %d record = %v, want %q", i, rec["record"], wantRecords[i])
		}
	}
}

// TestDumpFlight checks the anomaly dump document shape.
func TestDumpFlight(t *testing.T) {
	r := NewRecorder(Config{FlightSize: 2}, 4)
	s := newSim(r)
	for i := 1; i <= 5; i++ {
		s.cycle(i, i)
		s.reconfig(0, 1, 4, "IntAdd")
	}
	var buf bytes.Buffer
	if err := r.DumpFlight(&buf, TriggerFaultStorm); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason  string           `json:"reason"`
		Cycle   int64            `json:"cycle"`
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump is not JSON: %v", err)
	}
	if dump.Reason != TriggerFaultStorm || dump.Cycle != 5 {
		t.Errorf("dump header = %+v, want reason %s cycle 5", dump, TriggerFaultStorm)
	}
	if len(dump.Entries) != 2 {
		t.Errorf("dump entries = %d, want ring size 2", len(dump.Entries))
	}
}

// TestServiceRecorder exercises the rssd-side flight ring: ordinals,
// ring bounding, deadline triggers and both export formats.
func TestServiceRecorder(t *testing.T) {
	var nilRec *ServiceRecorder
	if nilRec.NextRequest() != 0 {
		t.Error("nil ServiceRecorder allocated a request ordinal")
	}
	nilRec.Record(1, "execute", "run", -1, time.Now(), time.Now())
	nilRec.TriggerDeadline(1, "run", -1, time.Now(), time.Now())
	if spans, rec, dl := nilRec.Snapshot(); spans != nil || rec != 0 || dl != 0 {
		t.Error("nil ServiceRecorder snapshot not empty")
	}
	var nilBuf bytes.Buffer
	if err := nilRec.WriteJSON(&nilBuf); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}

	r := NewService(3)
	if got := r.NextRequest(); got != 1 {
		t.Fatalf("first request ordinal = %d, want 1", got)
	}
	base := time.Now()
	for i := 0; i < 5; i++ {
		r.Record(uint64(i+1), "execute", "run", -1,
			base.Add(time.Duration(i)*time.Millisecond),
			base.Add(time.Duration(i+1)*time.Millisecond))
	}
	r.TriggerDeadline(6, "job_point", 2, base, base.Add(time.Second))

	spans, recorded, deadlines := r.Snapshot()
	if recorded != 6 || deadlines != 1 {
		t.Errorf("recorded=%d deadlines=%d, want 6 and 1", recorded, deadlines)
	}
	if len(spans) != 3 {
		t.Fatalf("ring snapshot = %d spans, want 3", len(spans))
	}
	last := spans[len(spans)-1]
	if last.Name != "deadline-exceeded" || last.Detail != "deadline" || last.Point != 2 {
		t.Errorf("newest span = %+v, want the deadline trigger", last)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recorded  uint64        `json:"recorded"`
		Deadlines uint64        `json:"deadlines"`
		Spans     []ServiceSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("service dump is not JSON: %v", err)
	}
	if dump.Recorded != 6 || dump.Deadlines != 1 || len(dump.Spans) != 3 {
		t.Errorf("dump = recorded %d deadlines %d spans %d", dump.Recorded, dump.Deadlines, len(dump.Spans))
	}

	buf.Reset()
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("service chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1+3 { // process_name + 3 ring spans
		t.Errorf("chrome events = %d, want 4", len(doc.TraceEvents))
	}
}

// TestServiceChromeTraceGolden compares the rssd Chrome Trace of fixed
// spans, byte for byte, with testdata/service_chrome.golden: request
// stages, job points on their own lanes, a span without a handler kind
// (no "cat") and a deadline instant (no "dur").
func TestServiceChromeTraceGolden(t *testing.T) {
	r := NewService(16)
	at := func(us int) time.Time { return r.epoch.Add(time.Duration(us) * time.Microsecond) }
	r.Record(1, "decode", "run", -1, at(10), at(12))
	r.Record(1, "queue-wait", "run", -1, at(12), at(40))
	r.Record(1, "execute", "run", -1, at(40), at(1040))
	r.Record(1, "encode", "run", -1, at(1040), at(1043))
	r.Record(2, "point", "job_point", 0, at(2000), at(2500))
	r.Record(2, "point", "job_point", 70, at(2000), at(2600))
	r.Record(2, "job", "job", -1, at(1990), at(2700))
	r.Record(1234, "decode", "", -1, at(3000), at(3000))
	r.TriggerDeadline(1235, "run", -1, at(3100), at(4100))

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "service_chrome.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("service chrome trace differs from testdata/service_chrome.golden:\n%s", buf.Bytes())
	}
}
