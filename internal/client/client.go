// Package client is the typed Go client of the rssd service. It speaks
// the internal/api wire schema, plumbs contexts into every call,
// retries 503 admission rejections (draining, queue full) with bounded
// exponential backoff — a 503 envelope means the server did not start
// the work, so retrying a POST is safe — and decodes the chunked-JSONL
// events stream of the jobs surface. The coordinator's HTTP worker
// transport (internal/job), the cmd tools (rssbench) and the server's
// own test suites all drive rssd through this one client.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/api"
)

// Client talks to one rssd base URL.
type Client struct {
	base    string
	retries int
	backoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithRetry sets the 503 retry budget: up to retries re-sends with
// exponential backoff starting at base (capped at 32x base). retries 0
// disables retrying; a negative base keeps the default.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) {
		c.retries = retries
		if base >= 0 {
			c.backoff = base
		}
	}
}

// New builds a client for the rssd at base (e.g. "http://127.0.0.1:8080").
// The default retry budget is 3 attempts with 100ms initial backoff.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    base,
		retries: 3,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the base URL the client was built with.
func (c *Client) Base() string { return c.base }

// retryable reports whether the envelope is a 503 admission rejection
// worth retrying: the server refused the work before starting it.
func retryable(e *api.Error) bool {
	if e.Status != http.StatusServiceUnavailable {
		return false
	}
	return e.Code == api.CodeDraining || e.Code == api.CodeQueueFull || e.Code == api.CodeCanceled
}

// do runs one JSON round trip: marshal in (nil for body-less requests),
// send, decode a 2xx into out (nil to discard) or a non-2xx envelope
// into an *api.Error. 503 envelopes are retried within the budget.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("encoding request: %w", err)
		}
	}
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		apiErr, ok := err.(*api.Error)
		if !ok || !retryable(apiErr) || attempt >= c.retries {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		if delay < 32*c.backoff {
			delay *= 2
		}
	}
}

// once is a single request/response exchange.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// decodeError turns a non-2xx response into an *api.Error, synthesizing
// an envelope when the body is not one (proxies, panics).
func decodeError(resp *http.Response) error {
	var env api.Envelope
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		return &api.Error{
			Code:    api.CodeInternal,
			Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw)),
			Status:  resp.StatusCode,
		}
	}
	env.Error.Status = resp.StatusCode
	return env.Error
}

// Assemble assembles source on the server.
func (c *Client) Assemble(ctx context.Context, req api.AssembleRequest) (api.AssembleResponse, error) {
	var out api.AssembleResponse
	err := c.do(ctx, http.MethodPost, "/v1/assemble", req, &out)
	return out, err
}

// Run executes one simulation synchronously.
func (c *Client) Run(ctx context.Context, req api.RunRequest) (api.RunResponse, error) {
	var out api.RunResponse
	err := c.do(ctx, http.MethodPost, "/v1/run", req, &out)
	return out, err
}

// Estimate asks the analytic queueing model for a predicted IPC —
// microseconds instead of a simulated run. Rank configurations with
// Estimate, certify the survivors with Run.
func (c *Client) Estimate(ctx context.Context, req api.EstimateRequest) (api.EstimateResponse, error) {
	var out api.EstimateResponse
	err := c.do(ctx, http.MethodPost, "/v1/estimate", req, &out)
	return out, err
}

// Health fetches /v1/healthz. A draining server answers 503, returned
// as an *api.Error with the decoded envelope-free body discarded.
func (c *Client) Health(ctx context.Context) (api.HealthResponse, error) {
	var out api.HealthResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return out, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decoding healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, &api.Error{Code: api.CodeDraining, Message: "server is " + out.Status, Status: resp.StatusCode}
	}
	return out, nil
}

// SubmitJob creates an asynchronous sweep job.
func (c *Client) SubmitJob(ctx context.Context, req api.JobRequest) (api.JobCreated, error) {
	var out api.JobCreated
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// Job fetches one job's status; withResults adds the completed
// per-point results.
func (c *Client) Job(ctx context.Context, id string, withResults bool) (api.JobStatus, error) {
	var out api.JobStatus
	path := "/v1/jobs/" + url.PathEscape(id)
	if withResults {
		path += "?results=1"
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Jobs lists all jobs the coordinator knows.
func (c *Client) Jobs(ctx context.Context) (api.JobList, error) {
	var out api.JobList
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// CancelJob cancels a job; completed points keep their results.
func (c *Client) CancelJob(ctx context.Context, id string) (api.JobStatus, error) {
	var out api.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}
