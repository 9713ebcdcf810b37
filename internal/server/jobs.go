// jobs.go is the server half of the distributed sweep fabric: the
// asynchronous jobs API handlers, the in-process executor that runs
// points through the same bounded worker pool as /v1/run, and the
// coordinator observer that lands fabric progress on the telemetry
// registry and the span flight recorder.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/job"
)

// localExecutor runs job points in-process. Each point competes for the
// same worker-slot semaphore as synchronous requests, so a background
// job cannot starve interactive traffic beyond the pool's fairness.
type localExecutor struct {
	s *Server
}

// Name implements job.Executor.
func (e *localExecutor) Name() string { return "local" }

// Slots implements job.Executor: one dispatch loop per pool worker —
// more would only queue on the semaphore inside Execute.
func (e *localExecutor) Slots() int { return e.s.cfg.Workers }

// Execute implements job.Executor. A cancellation — job cancelled or
// server shutting down — is a worker-level error so the coordinator
// leaves the point pending instead of recording a bogus result; every
// other failure (a spec or program a replayed store holds that this
// server refuses, a cycle limit, the point deadline in the slot wait or
// the run) is deterministic, so it is the point's result.
func (e *localExecutor) Execute(ctx context.Context, p job.ExecPoint) (*api.PointResult, error) {
	s := e.s
	res := &api.PointResult{Index: p.Index, Policy: p.Spec.Policy.String(), Worker: "local"}
	spec := p.Spec
	err := s.resolveSpec(&spec)
	var lp loadedProgram
	if err == nil {
		lp, err = s.load(p.Program.Source, p.Program.Words)
	}
	if err == nil {
		// One metric and span kind for every point, whatever surface
		// submitted the job: a resumed store may hold kinds this server
		// no longer registers histograms for.
		res.Report, res.ElapsedMs, err = s.runPoint(ctx, lp, spec, "job_point", p.Job.SpanReq, p.Index, p.Enqueued)
	}
	if errors.Is(err, context.Canceled) {
		return nil, err
	}
	if err != nil {
		_, res.Error = api.Classify(err)
	}
	return res, nil
}

// coordObserver lands fabric lifecycle on the server's metrics and the
// span flight recorder.
type coordObserver struct {
	s *Server
}

func (o *coordObserver) JobSubmitted(j *job.Job) { o.s.inc(o.s.jobsSubmitted, 1) }

func (o *coordObserver) JobFinished(j *job.Job) {
	o.s.inc(o.s.jobsFinished[string(j.State())], 1)
	// One fabric-level span per job lifetime, under the job's request
	// ordinal, so a flight-recorder dump shows the whole sweep next to
	// its per-point children.
	o.s.spans.Record(j.SpanReq, "job", j.Spec.Kind, -1, j.Started(), time.Now())
}

func (o *coordObserver) PointDone(j *job.Job, res *api.PointResult) {
	outcome := "done"
	if res.Error != nil {
		outcome = "failed"
	}
	o.s.inc(o.s.jobPoints[outcome], 1)
}

func (o *coordObserver) PointRequeued(j *job.Job, index int) { o.s.inc(o.s.jobPoints["requeued"], 1) }

func (o *coordObserver) PointsShared(j *job.Job, n int) { o.s.inc(o.s.pointsShared, uint64(n)) }

func (o *coordObserver) PointPanicked(j *job.Job, index int) { o.s.inc(o.s.panics, 1) }

func (o *coordObserver) QueueDepth(depth int) { o.s.set(o.s.gaugeJobQueue, int64(depth)) }

// --- handlers ---

// handleJobSubmit accepts a sweep as a durable asynchronous job:
// validate everything up front (program, every point's spec, the point
// budget), persist, enqueue, answer 202 with the job ID.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	var req api.JobRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if s.draining.Load() {
		s.inc(s.rejected[api.CodeDraining], 1)
		return api.ErrDraining
	}
	if len(req.Points) == 0 {
		return api.InvalidRequestf("points must not be empty")
	}
	if len(req.Points) > s.cfg.MaxJobPoints {
		return api.InvalidRequestf("%d points exceed the job cap of %d",
			len(req.Points), s.cfg.MaxJobPoints)
	}
	// The point deadline resolves here, as /v1/run's does, so every
	// executor — local or a remote worker — runs the point under it.
	pointTimeout, err := s.timeout("pointTimeoutMs", req.PointTimeoutMs)
	if err != nil {
		return err
	}
	// Validate the program now so a typo is a 400 at submit, not a
	// failed point an hour later. Remote workers re-assemble from the
	// same source, so the check holds for them too.
	if _, err := s.load(req.Source, req.Words); err != nil {
		return err
	}
	specs := make([]api.RunSpec, len(req.Points))
	for i := range req.Points {
		specs[i] = req.Points[i]
		if err := s.resolveSpec(&specs[i]); err != nil {
			return api.InvalidRequestf("point %d: %v", i, err)
		}
	}
	if s.coord.Active() >= s.cfg.MaxActiveJobs {
		s.inc(s.rejected[api.CodeQueueFull], 1)
		return api.ErrQueueFull
	}
	j, err := s.coord.Submit(job.Spec{
		Label:          req.Label,
		Kind:           "job",
		Program:        api.Program{Source: req.Source, Words: req.Words},
		Points:         specs,
		PointTimeoutMs: int(pointTimeout / time.Millisecond),
	}, s.spans.NextRequest())
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusAccepted, api.JobCreated{
		ID:    j.ID,
		State: j.State(),
		Total: len(specs),
	})
	return nil
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) error {
	jobs := s.coord.Store().Jobs()
	out := api.JobList{Jobs: make([]api.JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status(false))
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) error {
	j, ok := s.coord.Store().Get(r.PathValue("id"))
	if !ok {
		return api.ErrNotFound
	}
	writeJSON(w, http.StatusOK, j.Status(r.URL.Query().Get("results") == "1"))
	return nil
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	j, err := s.coord.Cancel(r.PathValue("id"))
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, j.Status(false))
	return nil
}

// handleJobEvents streams a job's per-point results as chunked JSONL
// (application/x-ndjson): first a replay of every already-completed
// point, then live events as points land, ending with a terminal state
// event. The stream also ends when the client disconnects or the
// server starts draining, so it never blocks shutdown. Once the stream
// has started, its end is never a failure.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) error {
	j, ok := s.coord.Store().Get(r.PathValue("id"))
	if !ok {
		return api.ErrNotFound
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	replay, ch := j.Subscribe()
	for _, ev := range replay {
		if enc.Encode(ev) != nil {
			return nil
		}
	}
	flush()
	// Poll the draining flag with a coarse ticker; shutdown does not
	// wait on event streams, it just stops feeding them.
	drainTick := time.NewTicker(250 * time.Millisecond)
	defer drainTick.Stop()
	for {
		select {
		case ev, chOpen := <-ch:
			if !chOpen {
				return nil
			}
			if enc.Encode(ev) != nil {
				return nil
			}
			flush()
		case <-r.Context().Done():
			return nil
		case <-drainTick.C:
			if s.draining.Load() {
				return nil
			}
		}
	}
}
