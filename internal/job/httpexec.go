// httpexec.go is the remote worker transport: an Executor that drives
// one rssd worker process over HTTP through the typed client. Workers
// are plain rssd servers — a point is just POST /v1/run — so a worker
// fleet needs no special build, and "multi-host" is nothing more than
// different base URLs in the coordinator's configuration.
package job

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/client"
)

// HTTPExecutor runs points on a remote rssd worker.
type HTTPExecutor struct {
	name  string
	c     *client.Client
	slots int
}

// NewHTTPExecutor builds an executor for the worker at baseURL running
// up to slots concurrent points (minimum 1).
func NewHTTPExecutor(name, baseURL string, slots int) *HTTPExecutor {
	if slots < 1 {
		slots = 1
	}
	return &HTTPExecutor{
		name: name,
		// The executor does not retry 503s itself: a draining or
		// saturated worker is a worker-level failure the coordinator
		// answers by requeuing elsewhere and health-checking this one.
		c:     client.New(baseURL, client.WithRetry(0, -1)),
		slots: slots,
	}
}

// Name implements Executor.
func (e *HTTPExecutor) Name() string { return e.name }

// Slots implements Executor.
func (e *HTTPExecutor) Slots() int { return e.slots }

// URL returns the worker's base URL.
func (e *HTTPExecutor) URL() string { return e.c.Base() }

// Execute implements Executor: one point, one POST /v1/run. Worker
// deaths (transport errors) and admission rejections surface as
// worker-level errors for the coordinator to requeue; anything the
// worker actually simulated — including point-level failures like a
// cycle-limit 422 — comes back as data.
func (e *HTTPExecutor) Execute(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
	req := api.RunRequest{
		Source:  p.Program.Source,
		Words:   p.Program.Words,
		RunSpec: p.Spec,
		// Let the worker own the point deadline too, so a network
		// partition can't leave it simulating forever.
		TimeoutMs: p.TimeoutMs,
	}
	start := time.Now()
	resp, err := e.c.Run(ctx, req)
	res := &api.PointResult{
		Index:     p.Index,
		Policy:    p.Spec.Policy.String(),
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		Worker:    e.name,
	}
	if err == nil {
		res.Report = resp.Report
		res.ElapsedMs = resp.ElapsedMs
		return res, nil
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		if p.TimeoutMs > 0 && errors.Is(err, context.DeadlineExceeded) {
			// The point deadline expired while the request was in flight —
			// a race between the worker's own 504 and our transport
			// context. The simulation is deterministic, so re-running it
			// elsewhere would time out again: record the deadline as the
			// point's result instead of requeuing.
			_, res.Error = api.Classify(context.DeadlineExceeded)
			return res, nil
		}
		// No envelope at all: the worker is gone mid-request. The point
		// may or may not have simulated, but simulation is stateless and
		// deterministic, so re-running it elsewhere is always safe.
		return nil, err
	}
	switch apiErr.Status {
	case http.StatusServiceUnavailable:
		// Draining or queue-full: the worker refused the point.
		return nil, apiErr
	default:
		// The worker executed (or authoritatively rejected) the point:
		// its envelope is the point's result.
		res.Error = apiErr
		return res, nil
	}
}

// Ping implements Pinger: the worker is healthy when /v1/healthz
// answers ok (a draining worker is deliberately unhealthy here — it
// must not be handed new points).
func (e *HTTPExecutor) Ping(ctx context.Context) error {
	_, err := e.c.Health(ctx)
	return err
}
