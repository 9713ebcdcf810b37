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

// Execute implements job.Executor. Simulation failures (cycle limit,
// point deadline) are point-level data; a cancellation — job cancelled
// or server shutting down — is a worker-level error so the coordinator
// leaves the point pending instead of recording a bogus result.
func (e *localExecutor) Execute(ctx context.Context, p job.ExecPoint) (*api.PointResult, error) {
	s := e.s
	// One metric and span kind for every point, whatever surface
	// submitted the job: a resumed store may hold kinds this server no
	// longer registers histograms for.
	const kind = "job_point"
	res := &api.PointResult{Index: p.Index, Policy: p.Spec.Policy.String(), Worker: "local"}
	// Submit validated the point, but a replayed store may hold specs
	// this server refuses; such a point fails as data.
	spec := p.Spec
	if err := s.resolveSpec(&spec); err != nil {
		_, res.Error = api.Classify(err)
		return res, nil
	}
	lp, err := s.load(p.Program.Source, p.Program.Words)
	if err != nil {
		// Programs are validated at submit; hitting this means the cache
		// entry aged out and reassembly failed, which is deterministic —
		// record it as the point's result rather than requeuing forever.
		_, res.Error = api.Classify(err)
		return res, nil
	}
	if err := s.pool.acquire(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The point's own timeout expired while waiting for a slot.
			_, res.Error = api.Classify(err)
			return res, nil
		}
		return nil, err
	}
	defer s.pool.release()
	acquired := time.Now()
	s.observeQueueWait(kind, acquired.Sub(p.Enqueued))
	s.spans.Record(p.Job.SpanReq, "queue-wait", kind, p.Index, p.Enqueued, acquired)
	report, elapsedMs, err := s.simulate(ctx, lp, spec, kind, p.Job.SpanReq, p.Index)
	res.ElapsedMs = elapsedMs
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, err
		}
		_, res.Error = api.Classify(err)
		return res, nil
	}
	res.Report = report
	return res, nil
}

// coordObserver lands fabric lifecycle on the server's metrics and the
// span flight recorder.
type coordObserver struct {
	s *Server
}

func (o *coordObserver) JobSubmitted(j *job.Job) {
	o.s.mmu.Lock()
	o.s.jobsSubmitted.Inc()
	o.s.mmu.Unlock()
}

func (o *coordObserver) JobFinished(j *job.Job) {
	state := string(j.State())
	o.s.mmu.Lock()
	if c, ok := o.s.jobsFinished[state]; ok {
		c.Inc()
	}
	o.s.mmu.Unlock()
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
	o.s.mmu.Lock()
	o.s.jobPoints[outcome].Inc()
	o.s.mmu.Unlock()
}

func (o *coordObserver) PointRequeued(j *job.Job, index int) {
	o.s.mmu.Lock()
	o.s.jobPoints["requeued"].Inc()
	o.s.mmu.Unlock()
}

func (o *coordObserver) PointsShared(j *job.Job, n int) {
	o.s.mmu.Lock()
	o.s.pointsShared.Add(uint64(n))
	o.s.mmu.Unlock()
}

func (o *coordObserver) QueueDepth(depth int) {
	o.s.mmu.Lock()
	o.s.gaugeJobQueue.Set(int64(depth))
	o.s.mmu.Unlock()
}

// --- handlers ---

// handleJobSubmit accepts a sweep as a durable asynchronous job:
// validate everything up front (program, every point's spec, the point
// budget), persist, enqueue, answer 202 with the job ID.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.countRequest("jobs")
	var req api.JobRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, "jobs", err)
		return
	}
	if s.draining.Load() {
		s.countRejected(api.CodeDraining)
		s.fail(w, "jobs", api.ErrDraining)
		return
	}
	if len(req.Points) == 0 {
		s.fail(w, "jobs", api.InvalidRequestf("points must not be empty"))
		return
	}
	if len(req.Points) > s.cfg.MaxJobPoints {
		s.fail(w, "jobs", api.InvalidRequestf("%d points exceed the job cap of %d",
			len(req.Points), s.cfg.MaxJobPoints))
		return
	}
	if req.PointTimeoutMs < 0 {
		s.fail(w, "jobs", api.InvalidRequestf("pointTimeoutMs must be non-negative, got %d", req.PointTimeoutMs))
		return
	}
	pointTimeout := time.Duration(req.PointTimeoutMs) * time.Millisecond
	if pointTimeout > s.cfg.MaxTimeout {
		pointTimeout = s.cfg.MaxTimeout
	}
	// Validate the program now so a typo is a 400 at submit, not a
	// failed point an hour later. Remote workers re-assemble from the
	// same source, so the check holds for them too.
	if _, err := s.load(req.Source, req.Words); err != nil {
		s.fail(w, "jobs", err)
		return
	}
	specs := make([]api.RunSpec, len(req.Points))
	for i := range req.Points {
		specs[i] = req.Points[i]
		if err := s.resolveSpec(&specs[i]); err != nil {
			s.fail(w, "jobs", api.InvalidRequestf("point %d: %v", i, err))
			return
		}
	}
	if s.coord.Active() >= s.cfg.MaxActiveJobs {
		s.countRejected(api.CodeQueueFull)
		s.fail(w, "jobs", api.ErrQueueFull)
		return
	}
	j, err := s.coord.Submit(job.Spec{
		Label:          req.Label,
		Kind:           "job",
		Program:        api.Program{Source: req.Source, Words: req.Words},
		Points:         specs,
		PointTimeoutMs: int(pointTimeout / time.Millisecond),
	}, s.spans.NextRequest())
	if err != nil {
		s.fail(w, "jobs", err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.JobCreated{
		ID:    j.ID,
		State: j.State(),
		Total: len(specs),
	})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.countRequest("jobs_list")
	jobs := s.coord.Store().Jobs()
	out := api.JobList{Jobs: make([]api.JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.countRequest("job")
	j, ok := s.coord.Store().Get(r.PathValue("id"))
	if !ok {
		s.fail(w, "job", api.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.Status(r.URL.Query().Get("results") == "1"))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.countRequest("job_cancel")
	j, err := s.coord.Cancel(r.PathValue("id"))
	if err != nil {
		s.fail(w, "job_cancel", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status(false))
}

// handleJobEvents streams a job's per-point results as chunked JSONL
// (application/x-ndjson): first a replay of every already-completed
// point, then live events as points land, ending with a terminal state
// event. The stream also ends when the client disconnects or the
// server starts draining, so it never blocks shutdown.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.countRequest("job_events")
	j, ok := s.coord.Store().Get(r.PathValue("id"))
	if !ok {
		s.fail(w, "job_events", api.ErrNotFound)
		return
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
			return
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
				return
			}
			if enc.Encode(ev) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		case <-drainTick.C:
			if s.draining.Load() {
				return
			}
		}
	}
}
