package span

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonw"
	"repro/internal/trace"
)

// ServiceSpan is one completed stage of an rssd request: body decode,
// admission-queue wait, worker execution, response encode, one job
// point, or a whole job.
// Timestamps are microseconds since the recorder was created, so a
// dump loads into Perfetto alongside simulator traces.
type ServiceSpan struct {
	Req     uint64 `json:"req"`              // request ordinal
	Name    string `json:"name"`             // decode | queue-wait | execute | encode | job | point
	Kind    string `json:"kind"`             // handler kind: run | job | job_point
	Point   int    `json:"point"`            // job point index; -1 otherwise
	StartUs int64  `json:"startUs"`          // µs since recorder start
	DurUs   int64  `json:"durUs"`            // stage duration in µs
	Detail  string `json:"detail,omitempty"` // e.g. "deadline" on a trigger
}

// ServiceRecorder keeps the last FlightSize service spans in a
// mutex-protected ring — the rssd flight recorder. Unlike the
// simulator Recorder it is called from concurrent request handlers,
// so it locks; the spans it records are request-scale (milliseconds),
// where a mutex is noise.
type ServiceRecorder struct {
	epoch time.Time
	reqID atomic.Uint64

	mu        sync.Mutex
	ring      trace.Ring[ServiceSpan]
	deadlines uint64
}

// NewService builds a service recorder with a ring of size entries
// (DefaultFlightSize when size <= 0).
func NewService(size int) *ServiceRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &ServiceRecorder{epoch: time.Now(), ring: trace.NewRing[ServiceSpan](size)}
}

// NextRequest allocates the next request ordinal.
func (r *ServiceRecorder) NextRequest() uint64 {
	if r == nil {
		return 0
	}
	return r.reqID.Add(1)
}

// us converts t to microseconds since the recorder epoch.
func (r *ServiceRecorder) us(t time.Time) int64 {
	return t.Sub(r.epoch).Microseconds()
}

// Record stores one completed stage span.
func (r *ServiceRecorder) Record(req uint64, name, kind string, point int, start, end time.Time) {
	if r == nil {
		return
	}
	r.push(ServiceSpan{Req: req, Name: name, Kind: kind, Point: point,
		StartUs: r.us(start), DurUs: end.Sub(start).Microseconds()})
}

// TriggerDeadline records a request-deadline-exceeded anomaly: the
// service-side flight-recorder trigger.
func (r *ServiceRecorder) TriggerDeadline(req uint64, kind string, point int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.deadlines++
	r.mu.Unlock()
	r.push(ServiceSpan{Req: req, Name: "deadline-exceeded", Kind: kind,
		Point: point, StartUs: r.us(start),
		DurUs: end.Sub(start).Microseconds(), Detail: "deadline"})
}

func (r *ServiceRecorder) push(s ServiceSpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.Push(s)
}

// Snapshot returns the ring contents, oldest first, plus the trigger
// and total-recorded tallies.
func (r *ServiceRecorder) Snapshot() (spans []ServiceSpan, recorded, deadlines uint64) {
	if r == nil {
		return nil, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Copy(), uint64(r.ring.Pushed()), r.deadlines
}

// serviceDump is the JSON document served by GET /debug/flightrecorder
// and written to the rssd span-trace file on drain.
type serviceDump struct {
	Recorded  uint64        `json:"recorded"`
	Deadlines uint64        `json:"deadlines"`
	Spans     []ServiceSpan `json:"spans"`
}

// WriteJSON dumps the ring as one indented JSON object.
func (r *ServiceRecorder) WriteJSON(w io.Writer) error {
	spans, recorded, deadlines := r.Snapshot()
	if spans == nil {
		spans = []ServiceSpan{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(serviceDump{Recorded: recorded, Deadlines: deadlines, Spans: spans})
}

// WriteChromeTrace renders the ring as Chrome Trace Format JSON under
// pid 2 ("rssd"). Stages of one request share a lane; concurrent
// job points get their own lanes so overlapping points don't nest
// incorrectly.
func (r *ServiceRecorder) WriteChromeTrace(w io.Writer) error {
	spans, _, _ := r.Snapshot()
	cw := newChromeWriter(w)
	cw.meta(servicePID, 0, "process_name", "rssd")
	for i := range spans {
		cw.service(&spans[i])
	}
	return cw.close()
}

// service writes one service span: a complete ("X") event on its
// request's lane, or a thread-scoped instant for a deadline trigger.
func (cw *chromeWriter) service(s *ServiceSpan) {
	tid := int(s.Req % 1000 * 64)
	if s.Point >= 0 {
		tid += 1 + s.Point%63
	}
	ev := chromeEvent{Name: s.Name, Cat: s.Kind, Ph: "X", TS: s.StartUs,
		Dur: s.DurUs, PID: servicePID, TID: tid}
	if s.Detail == "deadline" {
		ev.Ph = "i"
		ev.Scope = "t"
	}
	b := append(jsonw.Key(cw.begin(&ev), "args"), '{')
	b = jsonw.Int(b, "point", int64(s.Point))
	b = jsonw.Uint(b, "req", s.Req)
	cw.end(append(b, '}'))
}
