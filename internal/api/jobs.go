// jobs.go is the wire schema of the jobs surface: submit a sweep as a
// durable job, poll its status, stream per-point results as they land,
// cancel it. Jobs survive worker deaths and coordinator restarts —
// see internal/job for the store and scheduling semantics.
package api

import "encoding/json"

// JobState is the lifecycle state of a job.
type JobState string

const (
	// JobPending: accepted and persisted, no point dispatched yet.
	JobPending JobState = "pending"
	// JobRunning: at least one point dispatched, results accumulating.
	JobRunning JobState = "running"
	// JobDone: every point has a result (point-level failures are data,
	// carried in the point's Error field).
	JobDone JobState = "done"
	// JobCancelled: cancelled by DELETE /v1/jobs/{id}; completed points
	// keep their results, the rest never run.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobCancelled }

// TerminalStates names every final state: the state label values of a
// per-outcome job metric.
func TerminalStates() []string { return []string{string(JobDone), string(JobCancelled)} }

// JobRequest is the body of POST /v1/jobs: one program fanned out over
// a grid of run specifications, executed asynchronously across the
// worker set. Exactly one of Source or Words must be set.
type JobRequest struct {
	Source string   `json:"source,omitempty"`
	Words  []uint32 `json:"words,omitempty"`
	// Points is the grid, one RunSpec per simulation.
	Points []RunSpec `json:"points"`
	// PointTimeoutMs bounds each point's simulation (0 takes the server
	// default, capped at the server maximum). A point that exceeds it
	// fails as data; the job still completes.
	PointTimeoutMs int `json:"pointTimeoutMs,omitempty"`
	// Label is a free-form tag echoed in status and listings.
	Label string `json:"label,omitempty"`
}

// JobCreated is the 202 body of POST /v1/jobs.
type JobCreated struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Total int      `json:"total"`
}

// PointResult is one grid point's outcome: a report or an error, plus
// scheduling provenance (which worker ran it, after how many requeues).
type PointResult struct {
	Index     int             `json:"index"`
	Policy    string          `json:"policy"`
	Report    json.RawMessage `json:"report,omitempty"`
	Error     *Error          `json:"error,omitempty"`
	ElapsedMs float64         `json:"elapsedMs,omitempty"`
	// Attempts counts dispatches of this point: 1 for a clean run, more
	// when worker deaths requeued it.
	Attempts int `json:"attempts,omitempty"`
	// Worker names the executor that produced the result.
	Worker string `json:"worker,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id} and the elements of
// GET /v1/jobs.
type JobStatus struct {
	ID    string   `json:"id"`
	Label string   `json:"label,omitempty"`
	State JobState `json:"state"`
	// Total, Done, Failed count grid points: Done includes Failed
	// (failed points have a result — an error).
	Total  int `json:"total"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Requeues counts points re-dispatched after a worker failure.
	Requeues int `json:"requeues"`
	// Points carries the per-point results, completed ones only, when
	// the request asked for them (?results=1).
	Points []PointResult `json:"points,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// Job event types on the GET /v1/jobs/{id}/events JSONL stream.
const (
	// EventPoint carries one completed point result.
	EventPoint = "point"
	// EventState reports a state transition; a terminal state ends the
	// stream.
	EventState = "state"
)

// JobEvent is one line of the events stream: application/x-ndjson, one
// JSON document per line, flushed as results land. The stream replays
// already-completed points first, then follows the live job; it ends
// after a terminal EventState line.
type JobEvent struct {
	Type string `json:"type"`
	// Point is set on EventPoint lines.
	Point *PointResult `json:"point,omitempty"`
	// State, Done and Total are set on EventState lines.
	State JobState `json:"state,omitempty"`
	Done  int      `json:"done,omitempty"`
	Total int      `json:"total,omitempty"`
}
