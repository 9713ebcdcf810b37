// Package job is the distributed sweep fabric behind the rssd jobs
// API: a persistent job store (job ID → sweep spec plus per-point
// status/result, durable to a directory of JSON + JSONL files so a
// restart resumes from the last completed point), and a coordinator
// that shards a job's grid points across a set of workers. Workers sit
// behind the small Executor interface — the in-process executor lives
// in internal/server, the HTTP executor (httpexec.go) drives a remote
// rssd through internal/client — so moving from N local processes to a
// multi-host fleet is a configuration change, not a code change.
//
// Failure semantics: a point-level simulation failure (cycle limit,
// point deadline) is data — it lands in the point's Error field and the
// job still completes. A worker-level failure (process death, connection
// refused, 503) requeues the point for another worker and sidelines the
// executor until it answers health checks again. Coordinator death
// loses nothing: completed points are already on disk, and Resume
// re-enqueues exactly the points without a durable result.
package job

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"repro/internal/api"
)

// Spec is the durable description of one job: everything needed to
// (re)run it from scratch. Point budgets are resolved (defaulted and
// clamped) before Create, so a resume after a restart replays exactly
// the same simulations.
type Spec struct {
	// Label is a free-form tag from the submitter.
	Label string `json:"label,omitempty"`
	// Kind tags the submitting surface: "job" for POST /v1/jobs. Stores
	// written by older servers may also hold "sweep" jobs from the
	// retired synchronous endpoint; they resume like any other job.
	Kind string `json:"kind"`
	// Program is the simulation program, source or binary form.
	Program api.Program `json:"program"`
	// Points is the grid, one resolved RunSpec per simulation.
	Points []api.RunSpec `json:"points"`
	// PointTimeoutMs bounds each point's simulation; 0 means none.
	PointTimeoutMs int `json:"pointTimeoutMs,omitempty"`
}

// Job is one submitted sweep: the durable spec plus the runtime state
// the coordinator tracks. All mutable state is guarded by mu. The spec
// is immutable after Create/load, except that a job reaching a
// terminal state releases Spec.Program and Spec.Points under mu;
// Label and Kind stay.
type Job struct {
	ID   string
	Spec Spec

	// SpanReq is the service-span request ordinal the job's point spans
	// are recorded under (0 when span recording is off).
	SpanReq uint64

	mu       sync.Mutex
	state    api.JobState
	results  []*api.PointResult // by point index; nil = no result yet
	done     int                // points with a result (includes failed)
	failed   int                // points whose result is an error
	requeues int                // worker-failure redispatches
	started  time.Time
	ctx      context.Context    // runtime context point runs derive from
	cancel   context.CancelFunc // cancels in-flight point contexts
	subs     []chan api.JobEvent
}

// newJob builds the runtime shell around a spec.
func newJob(id string, spec Spec) *Job {
	return &Job{
		ID:      id,
		Spec:    spec,
		state:   api.JobPending,
		results: make([]*api.PointResult, len(spec.Points)),
		started: time.Now(),
	}
}

// newID returns a fresh random job ID (collision-free across restarts
// without any persisted counter).
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("job: reading random id: " + err.Error())
	}
	return "j-" + hex.EncodeToString(b[:])
}

// State returns the job's current lifecycle state.
func (j *Job) State() api.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Started returns the submission (or load) time.
func (j *Job) Started() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// Status snapshots the job as its wire representation; withResults adds
// the completed per-point results in index order.
func (j *Job) Status(withResults bool) api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:       j.ID,
		Label:    j.Spec.Label,
		State:    j.state,
		Total:    len(j.results),
		Done:     j.done,
		Failed:   j.failed,
		Requeues: j.requeues,
	}
	if withResults {
		st.Points = make([]api.PointResult, 0, j.done)
		for _, r := range j.results {
			if r != nil {
				st.Points = append(st.Points, *r)
			}
		}
	}
	return st
}

// pendingIndexes returns the indexes without a durable result — the
// points a resume must re-enqueue.
func (j *Job) pendingIndexes() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var idx []int
	for i, r := range j.results {
		if r == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// Subscribe registers an events listener. It returns the replay (the
// events a late subscriber already missed: one EventPoint per completed
// point) and a live channel the job publishes subsequent events to. The
// channel is buffered to hold every event the job can still emit, so
// publishers never block on a slow consumer. A terminal EventState
// closes the channel.
func (j *Job) Subscribe() (replay []api.JobEvent, ch <-chan api.JobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, r := range j.results {
		if r != nil {
			replay = append(replay, api.JobEvent{Type: api.EventPoint, Point: r})
		}
	}
	c := make(chan api.JobEvent, len(j.results)-len(replay)+2)
	if j.state.Terminal() {
		c <- api.JobEvent{Type: api.EventState, State: j.state, Done: j.done, Total: len(j.results)}
		close(c)
		return replay, c
	}
	j.subs = append(j.subs, c)
	return replay, c
}

// publish sends ev to every subscriber; callers hold mu.
func (j *Job) publishLocked(ev api.JobEvent) {
	for _, c := range j.subs {
		select {
		case c <- ev:
		default:
			// The channel is sized to never fill; dropping rather than
			// blocking keeps a bookkeeping bug from wedging the fabric.
		}
	}
}

// setStateLocked moves the job to state, notifying and (on a terminal
// state) closing subscribers and releasing the program and points: a
// durable store already has them in the spec file, and a volatile one
// cannot resume. Callers hold mu.
func (j *Job) setStateLocked(state api.JobState) {
	if j.state == state || j.state.Terminal() {
		return
	}
	j.state = state
	ev := api.JobEvent{Type: api.EventState, State: state, Done: j.done, Total: len(j.results)}
	j.publishLocked(ev)
	if state.Terminal() {
		j.Spec.Program, j.Spec.Points = api.Program{}, nil
		for _, c := range j.subs {
			close(c)
		}
		j.subs = nil
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// recordResult stores one completed point and publishes its event; it
// reports whether this was the job's last pending point. Duplicate
// results for an index (a requeued point whose first worker turned out
// to have finished) keep the first — the durable one.
func (j *Job) recordResult(res *api.PointResult) (last bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if res.Index < 0 || res.Index >= len(j.results) || j.results[res.Index] != nil {
		return false
	}
	j.results[res.Index] = res
	j.done++
	if res.Error != nil {
		j.failed++
	}
	j.publishLocked(api.JobEvent{Type: api.EventPoint, Point: res})
	return j.done == len(j.results)
}

// noteRequeue counts a worker-failure redispatch.
func (j *Job) noteRequeue() {
	j.mu.Lock()
	j.requeues++
	j.mu.Unlock()
}
