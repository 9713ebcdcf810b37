package span

import (
	"bufio"
	"encoding/json"
	"io"
)

// Chrome Trace Format export. One simulated cycle maps to one
// microsecond, so Perfetto's time axis reads directly in cycles.
// Simulator lanes live under pid 1 ("rsssim"): one thread per RFU slot
// for reconfiguration and repair spans (which never overlap on a
// slot), plus dedicated threads for speculation, phases and instant
// events. Service spans (pid 2) are exported by
// ServiceRecorder.WriteChromeTrace.

const (
	simPID     = 1
	servicePID = 2

	tidSlotBase = 100 // slot k renders on tid 100+k
	tidSpec     = 20
	tidPhase    = 21
	tidEvents   = 23
)

// chromeEvent is one Chrome Trace event. Args values are static
// strings or small ints.
type chromeEvent struct {
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

// chromeWriter streams a {"traceEvents":[...]} document without
// buffering the whole event list.
type chromeWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func newChromeWriter(w io.Writer) *chromeWriter {
	cw := &chromeWriter{w: bufio.NewWriter(w), first: true}
	_, cw.err = cw.w.WriteString(`{"traceEvents":[`)
	return cw
}

func (cw *chromeWriter) event(ev chromeEvent) {
	if cw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	if !cw.first {
		if cw.err = cw.w.WriteByte(','); cw.err != nil {
			return
		}
	}
	cw.first = false
	_, cw.err = cw.w.Write(b)
}

func (cw *chromeWriter) meta(pid, tid int, key, value string) {
	cw.event(chromeEvent{Name: key, Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": value}})
}

func (cw *chromeWriter) close() error {
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.w.WriteString("]}\n"); err != nil {
		return err
	}
	return cw.w.Flush()
}

// tidOf places an entry on its simulator lane.
func tidOf(e *Entry) int {
	switch e.Kind {
	case KindReconfig, KindRepair:
		return tidSlotBase + int(e.Slot)
	case KindSpec:
		return tidSpec
	case KindPhase:
		return tidPhase
	default:
		return tidEvents
	}
}

// args renders the kind-specific argument map for one entry.
func (e *Entry) args() map[string]any {
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

// corePID maps a cluster core to its Chrome process id: core 0 keeps
// the historical simPID, further cores sit above servicePID so the two
// namespaces never collide in a merged trace.
func corePID(core int) int {
	if core == 0 {
		return simPID
	}
	return 10 + core
}

// coreProcName names core's process lane.
func coreProcName(core int) string {
	if core == 0 {
		return "rsssim"
	}
	return "rsssim core " + string(rune('0'+core))
}

func writeEntries(cw *chromeWriter, entries []Entry, slots, core int) {
	pid := corePID(core)
	cw.meta(pid, 0, "process_name", coreProcName(core))
	for k := 0; k < slots; k++ {
		cw.meta(pid, tidSlotBase+k, "thread_name", slotLaneNames[k&7])
	}
	cw.meta(pid, tidSpec, "thread_name", "speculation")
	cw.meta(pid, tidPhase, "thread_name", "phases")
	cw.meta(pid, tidEvents, "thread_name", "events")
	for i := range entries {
		e := &entries[i]
		ev := chromeEvent{Name: e.Name, Cat: e.Kind.String(),
			TS: e.Start, PID: pid, TID: tidOf(e), Args: e.args()}
		if e.Kind == KindFault || e.Kind == KindTrigger {
			ev.Ph = "i"
			ev.Scope = "t"
		} else {
			ev.Ph = "X"
			dur := e.Dur
			ev.Dur = &dur
		}
		cw.event(ev)
	}
}

// slotLaneNames gives the per-slot lanes stable human names without
// allocating at export time for the common 8-slot fabric.
var slotLaneNames = [8]string{
	"slot 0", "slot 1", "slot 2", "slot 3",
	"slot 4", "slot 5", "slot 6", "slot 7",
}

// WriteChromeTrace renders the full trace as Chrome Trace Format JSON
// (loadable in Perfetto and chrome://tracing). One cycle = 1 µs.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceMulti(w, []*Recorder{r})
}

// WriteChromeTraceMulti renders several recorders — one per cluster
// core — into a single Chrome Trace document, each core under its own
// process lane.
func WriteChromeTraceMulti(w io.Writer, recorders []*Recorder) error {
	cw := newChromeWriter(w)
	for _, r := range recorders {
		slots := 0
		if r != nil {
			slots = len(r.repairStart)
		}
		writeEntries(cw, r.Entries(), slots, r.Core())
	}
	return cw.close()
}

// spanRecord / instantRecord are the two JSONL row shapes, tagged with
// a "record" discriminator like the telemetry stream.
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

// jsonRecord renders e in its JSONL row shape, labelled with the
// owning cluster core.
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

func writeJSONLEntry(w *bufio.Writer, e *Entry, core int) error {
	b, err := json.Marshal(jsonRecord(e, core))
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// WriteJSONL renders the full trace as JSON lines: span rows carry
// record:"span", instants record:"instant", and every row names its
// cluster core. The field schema is pinned by
// testdata/span_schema.golden.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	entries := r.Entries()
	for i := range entries {
		if err := writeJSONLEntry(bw, &entries[i], r.Core()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// flightDump is the JSON document written when the flight recorder
// fires: the trigger tally plus the ring contents, oldest first, in
// the JSONL row shapes.
type flightDump struct {
	Reason   string            `json:"reason,omitempty"`
	Cycle    int64             `json:"cycle"`
	Triggers int               `json:"triggers"`
	Dropped  int               `json:"dropped"`
	Entries  []json.RawMessage `json:"entries"`
}

// DumpFlight writes the flight ring as one JSON object. reason labels
// the trigger that caused the dump ("" for an end-of-run dump).
func (r *Recorder) DumpFlight(w io.Writer, reason string) error {
	d := flightDump{Reason: reason, Triggers: r.Triggers(), Dropped: r.Dropped()}
	if r != nil {
		d.Cycle = r.now
	}
	flight := r.Flight()
	d.Entries = make([]json.RawMessage, 0, len(flight))
	for i := range flight {
		b, err := json.Marshal(jsonRecord(&flight[i], r.Core()))
		if err != nil {
			return err
		}
		d.Entries = append(d.Entries, b)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
