package span

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The reflection forms the span exports were rendered from before they
// appended records themselves: a Chrome event with an args map, the two
// JSONL row structs, and the flight dump's per-entry raw messages, all
// through json.Marshal. They are the exports' differential reference.

type refChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// refChromeTrace renders events as the old streaming writer did.
func refChromeTrace(t *testing.T, events []refChromeEvent) []byte {
	t.Helper()
	b := []byte(`{"traceEvents":[`)
	for i, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, raw...)
	}
	return append(b, "]}\n"...)
}

func refMeta(pid, tid int, key, value string) refChromeEvent {
	return refChromeEvent{Name: key, Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": value}}
}

func refArgs(e *Entry) map[string]any {
	switch e.Kind {
	case KindReconfig:
		return map[string]any{"slots": e.A, "latency": e.B}
	case KindRepair:
		return map[string]any{"outcome": e.Aux}
	case KindSpec:
		return map[string]any{"outcome": e.Aux, "spansIssued": e.A, "confidencePct": e.B}
	case KindPhase:
		return map[string]any{"phase": e.A}
	case KindFault:
		return map[string]any{"detail": e.Aux}
	case KindTrigger:
		return map[string]any{"value": e.A, "threshold": e.B}
	default:
		return nil
	}
}

func refEntryEvents(entries []Entry, slots, core int) []refChromeEvent {
	pid := corePID(core)
	evs := []refChromeEvent{refMeta(pid, 0, "process_name", coreProcName(core))}
	for k := 0; k < slots; k++ {
		evs = append(evs, refMeta(pid, tidSlotBase+k, "thread_name", slotLaneNames[k&7]))
	}
	evs = append(evs, refMeta(pid, tidSpec, "thread_name", "speculation"),
		refMeta(pid, tidPhase, "thread_name", "phases"),
		refMeta(pid, tidEvents, "thread_name", "events"))
	for i := range entries {
		e := &entries[i]
		ev := refChromeEvent{Name: e.Name, Cat: e.Kind.String(),
			TS: e.Start, PID: pid, TID: tidOf(e), Args: refArgs(e)}
		if e.Kind == KindFault || e.Kind == KindTrigger {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			dur := e.Dur
			ev.Dur = &dur
		}
		evs = append(evs, ev)
	}
	return evs
}

func refServiceEvents(spans []ServiceSpan) []refChromeEvent {
	evs := []refChromeEvent{refMeta(servicePID, 0, "process_name", "rssd")}
	for i := range spans {
		s := &spans[i]
		tid := int(s.Req % 1000 * 64)
		if s.Point >= 0 {
			tid += 1 + s.Point%63
		}
		ev := refChromeEvent{Name: s.Name, Cat: s.Kind, TS: s.StartUs,
			PID: servicePID, TID: tid,
			Args: map[string]any{"req": s.Req, "point": s.Point}}
		if s.Detail == "deadline" {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			dur := s.DurUs
			ev.Dur = &dur
		}
		evs = append(evs, ev)
	}
	return evs
}

type spanRecord struct {
	Record string `json:"record"`
	Core   int    `json:"core"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Detail string `json:"detail"`
	Slot   int    `json:"slot"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

type instantRecord struct {
	Record string `json:"record"`
	Core   int    `json:"core"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Detail string `json:"detail"`
	Cycle  int64  `json:"cycle"`
	Slot   int    `json:"slot"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

func jsonRecord(e *Entry, core int) any {
	if e.Kind == KindFault || e.Kind == KindTrigger {
		return instantRecord{Record: "instant", Core: core, Kind: e.Kind.String(),
			Name: e.Name, Detail: e.Aux, Cycle: e.Start, Slot: int(e.Slot),
			A: int64(e.A), B: int64(e.B)}
	}
	return spanRecord{Record: "span", Core: core, Kind: e.Kind.String(),
		Name: e.Name, Detail: e.Aux, Slot: int(e.Slot),
		Start: e.Start, Dur: e.Dur, A: int64(e.A), B: int64(e.B)}
}

func refJSONL(t *testing.T, entries []Entry, core int) []byte {
	t.Helper()
	var b []byte
	for i := range entries {
		raw, err := json.Marshal(jsonRecord(&entries[i], core))
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, raw...), '\n')
	}
	return b
}

func refDumpFlight(t *testing.T, r *Recorder, reason string) []byte {
	t.Helper()
	d := struct {
		Reason   string            `json:"reason,omitempty"`
		Cycle    int64             `json:"cycle"`
		Triggers int               `json:"triggers"`
		Dropped  int               `json:"dropped"`
		Entries  []json.RawMessage `json:"entries"`
	}{Reason: reason, Cycle: r.now, Triggers: r.Triggers(), Dropped: r.Dropped()}
	flight := r.Flight()
	d.Entries = make([]json.RawMessage, 0, len(flight))
	for i := range flight {
		raw, err := json.Marshal(jsonRecord(&flight[i], r.Core()))
		if err != nil {
			t.Fatal(err)
		}
		d.Entries = append(d.Entries, raw)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkExports records entries (and, wrapped, the flight ring) on a
// recorder labelled core and holds its Chrome trace, JSONL and flight
// dump to the references, and svc's Chrome trace likewise.
func checkExports(t *testing.T, entries []Entry, core int, reason string, svc ServiceSpan) {
	t.Helper()
	r := NewRecorder(Config{MaxTrace: len(entries), FlightSize: 2}, 1+core%9)
	r.core = core
	for _, e := range entries {
		r.record(e)
	}
	r.now = entries[0].Start

	var got bytes.Buffer
	if err := r.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if want := refChromeTrace(t, refEntryEvents(r.Entries(), len(r.repairStart), core)); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("chrome trace:\n got %s\nwant %s", got.Bytes(), want)
	}
	got.Reset()
	if err := r.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if want := refJSONL(t, r.Entries(), core); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("jsonl:\n got %s\nwant %s", got.Bytes(), want)
	}
	got.Reset()
	if err := r.DumpFlight(&got, reason); err != nil {
		t.Fatal(err)
	}
	if want := refDumpFlight(t, r, reason); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flight dump:\n got %s\nwant %s", got.Bytes(), want)
	}

	sr := NewService(2)
	sr.push(svc)
	got.Reset()
	if err := sr.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	spans, _, _ := sr.Snapshot()
	if want := refChromeTrace(t, refServiceEvents(spans)); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("service chrome trace:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// FuzzSpanRecords draws entries of every Kind (an out-of-range one too),
// with escaped strings and extreme numbers, and a ServiceSpan, and holds
// the Chrome, JSONL and flight-dump exports to their references.
func FuzzSpanRecords(f *testing.F) {
	strs := []string{"", "IntALU", "repaired", "fault-storm", `q"\`, "<&>",
		"\xe2\x80\xa8", "\xff\xfe", "\n\t\x01"}
	for k := 0; k <= int(numKinds); k++ {
		s := strs[k%len(strs)]
		f.Add(uint8(k), int16(k-1), int32(k), int32(-k), int64(k*100), int64(k*7),
			s, strs[(k+4)%len(strs)], uint8(k%3), uint64(k*1001), k-1, k%2 == 0)
	}
	f.Add(uint8(255), int16(-32768), int32(-2147483648), int32(2147483647),
		int64(-1)<<63, int64(1)<<62, "x", "", uint8(7), ^uint64(0), -5, true)
	f.Fuzz(func(t *testing.T, kind uint8, slot int16, a, b int32, start, dur int64,
		name, aux string, core uint8, req uint64, point int, deadline bool) {
		e := Entry{Kind: Kind(kind), Slot: slot, A: a, B: b, Start: start, Dur: dur, Name: name, Aux: aux}
		e2 := e
		e2.Kind = Kind(kind + 1)
		e2.Name, e2.Aux = aux, name
		detail := aux
		if deadline {
			detail = "deadline"
		}
		svc := ServiceSpan{Req: req, Name: name, Kind: aux, Point: point,
			StartUs: start, DurUs: dur, Detail: detail}
		checkExports(t, []Entry{e, e2, e}, int(core%8), name, svc)
	})
}
