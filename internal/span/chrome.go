package span

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/jsonw"
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

// chromeEvent is one Chrome Trace event's fixed fields. Cat, Scope and
// (for every phase but "X") the duration are left out when empty; the
// event's args object follows them (see chromeWriter.begin).
type chromeEvent struct {
	Name  string
	Cat   string
	Ph    string
	TS    int64
	Dur   int64
	PID   int
	TID   int
	Scope string
}

// chromeWriter streams a {"traceEvents":[...]} document without
// buffering the whole event list: each event is appended into one
// reused buffer (internal/jsonw) and written whole.
type chromeWriter struct {
	w     *bufio.Writer
	buf   []byte
	first bool
	err   error
}

func newChromeWriter(w io.Writer) *chromeWriter {
	cw := &chromeWriter{w: bufio.NewWriter(w), first: true}
	_, cw.err = cw.w.WriteString(`{"traceEvents":[`)
	return cw
}

// begin starts an event in the writer's buffer: the separator and the
// fixed fields, left open so the caller can append the args members
// (under jsonw.Key(b, "args"), keys in sorted order as encoding/json
// writes a map) before handing the buffer to end.
func (cw *chromeWriter) begin(ev *chromeEvent) []byte {
	b := cw.buf[:0]
	if !cw.first {
		b = append(b, ',')
	}
	b = append(b, '{')
	b = jsonw.String(b, "name", ev.Name)
	if ev.Cat != "" {
		b = jsonw.String(b, "cat", ev.Cat)
	}
	b = jsonw.String(b, "ph", ev.Ph)
	b = jsonw.Int(b, "ts", ev.TS)
	if ev.Ph == "X" {
		b = jsonw.Int(b, "dur", ev.Dur)
	}
	b = jsonw.Int(b, "pid", int64(ev.PID))
	b = jsonw.Int(b, "tid", int64(ev.TID))
	if ev.Scope != "" {
		b = jsonw.String(b, "s", ev.Scope)
	}
	return b
}

// end closes the event begin started and writes it.
func (cw *chromeWriter) end(b []byte) {
	cw.buf = append(b, '}')
	if cw.err != nil {
		return
	}
	cw.first = false
	_, cw.err = cw.w.Write(cw.buf)
}

func (cw *chromeWriter) meta(pid, tid int, key, value string) {
	b := cw.begin(&chromeEvent{Name: key, Ph: "M", PID: pid, TID: tid})
	b = append(jsonw.Key(b, "args"), '{')
	b = jsonw.String(b, "name", value)
	cw.end(append(b, '}'))
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

// appendArgs appends the entry's kind-specific "args" object, members
// in key order; an entry of no known kind has none.
func (e *Entry) appendArgs(b []byte) []byte {
	if e.Kind >= numKinds {
		return b
	}
	b = append(jsonw.Key(b, "args"), '{')
	switch e.Kind {
	case KindReconfig:
		b = jsonw.Int(b, "latency", int64(e.B))
		b = jsonw.Int(b, "slots", int64(e.A))
	case KindRepair:
		b = jsonw.String(b, "outcome", e.Aux)
	case KindSpec:
		b = jsonw.Int(b, "confidencePct", int64(e.B))
		b = jsonw.String(b, "outcome", e.Aux)
		b = jsonw.Int(b, "spansIssued", int64(e.A))
	case KindPhase:
		b = jsonw.Int(b, "phase", int64(e.A))
	case KindFault:
		b = jsonw.String(b, "detail", e.Aux)
	case KindTrigger:
		b = jsonw.Int(b, "threshold", int64(e.B))
		b = jsonw.Int(b, "value", int64(e.A))
	}
	return append(b, '}')
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
		cw.entry(&entries[i], pid)
	}
}

// entry writes one simulator entry on its lane under pid: a complete
// ("X") event for a span, a thread-scoped instant for a fault or a
// trigger.
func (cw *chromeWriter) entry(e *Entry, pid int) {
	ev := chromeEvent{Name: e.Name, Cat: e.Kind.String(), Ph: "X",
		TS: e.Start, Dur: e.Dur, PID: pid, TID: tidOf(e)}
	if e.instant() {
		ev.Ph = "i"
		ev.Scope = "t"
	}
	cw.end(e.appendArgs(cw.begin(&ev)))
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

// appendJSONLEntry appends e's JSONL row, labelled with the owning
// cluster core: record:"instant" rows carry the instant's cycle,
// record:"span" rows its start and duration.
func appendJSONLEntry(b []byte, e *Entry, core int) []byte {
	b = append(b, '{')
	if e.instant() {
		b = jsonw.String(b, "record", "instant")
	} else {
		b = jsonw.String(b, "record", "span")
	}
	b = jsonw.Int(b, "core", int64(core))
	b = jsonw.String(b, "kind", e.Kind.String())
	b = jsonw.String(b, "name", e.Name)
	b = jsonw.String(b, "detail", e.Aux)
	if e.instant() {
		b = jsonw.Int(b, "cycle", e.Start)
		b = jsonw.Int(b, "slot", int64(e.Slot))
	} else {
		b = jsonw.Int(b, "slot", int64(e.Slot))
		b = jsonw.Int(b, "start", e.Start)
		b = jsonw.Int(b, "dur", e.Dur)
	}
	b = jsonw.Int(b, "a", int64(e.A))
	b = jsonw.Int(b, "b", int64(e.B))
	return append(b, '}')
}

// WriteJSONL renders the full trace as JSON lines: span rows carry
// record:"span", instants record:"instant", and every row names its
// cluster core. The field schema is pinned by
// testdata/span_schema.golden.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var b []byte
	entries := r.Entries()
	for i := range entries {
		b = append(appendJSONLEntry(b[:0], &entries[i], r.Core()), '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// flightDump is the JSON document written when the flight recorder
// fires: the trigger tally plus the ring contents, oldest first, in
// the JSONL row shapes.
type flightDump struct {
	Reason   string          `json:"reason,omitempty"`
	Cycle    int64           `json:"cycle"`
	Triggers int             `json:"triggers"`
	Dropped  int             `json:"dropped"`
	Entries  json.RawMessage `json:"entries"`
}

// DumpFlight writes the flight ring as one indented JSON object. reason
// labels the trigger that caused the dump ("" for an end-of-run dump).
// The entries array is appended row by row and handed to the encoder
// whole, which indents it with the rest of the document.
func (r *Recorder) DumpFlight(w io.Writer, reason string) error {
	d := flightDump{Reason: reason, Triggers: r.Triggers(), Dropped: r.Dropped()}
	if r != nil {
		d.Cycle = r.now
	}
	flight := r.Flight()
	b := []byte{'['}
	for i := range flight {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONLEntry(b, &flight[i], r.Core())
	}
	d.Entries = append(b, ']')
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
