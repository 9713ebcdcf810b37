// Tests for the jobs surface of the server: submit/status/events/cancel
// over the typed client, the jobs metrics, and the crash-resume
// guarantee at the HTTP level — a server restarted over the same job
// directory completes an interrupted job with a byte-identical result
// set.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/job"
)

// busySource loops long enough per point (~at the default machine) that
// a multi-point job is reliably still in flight when a test interrupts
// it, but short enough that suites stay fast.
const busySource = `
	li r1, 60000
loop:	addi r1, r1, -1
	mul r2, r1, r1
	bne r1, r0, loop
	halt
`

// jobPoints builds an n-point grid of distinct points. They vary the
// cycle budget, which the job coordinator's Canonical key keeps, so
// each point runs its own simulation.
func jobPoints(n int) []api.RunSpec {
	pts := make([]api.RunSpec, n)
	for i := range pts {
		pts[i] = api.RunSpec{MaxCycles: 2_000_000 + i}
	}
	return pts
}

func TestJobSubmitAndWait(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{
		Source: haltingSource,
		Points: jobPoints(4),
		Label:  "suite",
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if created.ID == "" || created.Total != 4 {
		t.Fatalf("created = %+v, want id and total 4", created)
	}

	status, err := c.WaitJob(ctx, created.ID, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Done != 4 || status.Failed != 0 {
		t.Fatalf("status = %+v, want done 4/0 failed", status)
	}
	if status.Label != "suite" {
		t.Errorf("label = %q, want suite", status.Label)
	}
	for i, p := range status.Points {
		if p.Index != i || p.Worker != "local" || len(p.Report) == 0 {
			t.Errorf("point %d = %+v, want local worker with report", i, p)
		}
	}

	// The fabric's lifecycle landed on the metrics registry.
	text := metricsText(t, ts.URL)
	for _, want := range []string{
		`rssd_sweep_jobs_submitted_total 1`,
		`rssd_sweep_jobs_finished_total{state="done"} 1`,
		`rssd_job_points_total{outcome="done"} 4`,
		`rssd_sweep_jobs_active 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobEventsBeforeFinish pins the streaming guarantee: with one
// worker slot and a deliberately slow final point, the events stream
// delivers earlier per-point results while the job is still running.
func TestJobEventsBeforeFinish(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	points := jobPoints(2)
	points = append(points, api.RunSpec{MaxCycles: 30_000_000}) // the slow tail
	created, err := c.SubmitJob(ctx, api.JobRequest{Source: busySource, Points: points})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stream, err := c.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer stream.Close()

	// Read the first per-point result off the live stream, then ask for
	// status: the slow tail point guarantees the job has not finished.
	var first api.JobEvent
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventPoint {
			first = ev
			break
		}
	}
	if first.Point == nil || len(first.Point.Report) == 0 {
		t.Fatalf("first point event carries no report: %+v", first)
	}
	status, err := c.Job(ctx, created.ID, false)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.State.Terminal() {
		t.Errorf("job already %s when the first event arrived; stream did not beat completion", status.State)
	}

	// Drain to the end: the stream must finish with a terminal state event.
	sawState := false
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventState && ev.State.Terminal() {
			sawState = true
		}
	}
	if !sawState {
		t.Error("stream ended without a terminal state event")
	}
}

func TestJobCancel(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{
		Source: spinSource,
		Points: []api.RunSpec{{MaxCycles: 500_000_000}, {MaxCycles: 500_000_000}},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	status, err := c.CancelJob(ctx, created.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if status.State != api.JobCancelled {
		t.Fatalf("state = %s, want cancelled", status.State)
	}
	// Idempotent: cancelling again answers the same terminal status.
	if again, err := c.CancelJob(ctx, created.ID); err != nil || again.State != api.JobCancelled {
		t.Errorf("second cancel = %+v, %v", again, err)
	}
	// The events stream of a cancelled job replays and closes.
	stream, err := c.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events after cancel: %v", err)
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventState && ev.State != api.JobCancelled {
			t.Errorf("state event = %+v, want cancelled", ev)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"status": func() error { _, err := c.Job(ctx, "j-nope", false); return err },
		"cancel": func() error { _, err := c.CancelJob(ctx, "j-nope"); return err },
		"events": func() error { _, err := c.StreamEvents(ctx, "j-nope"); return err },
	} {
		apiErr := apiError(t, call())
		if apiErr.Status != http.StatusNotFound || apiErr.Code != api.CodeNotFound {
			t.Errorf("%s: got %d/%s, want 404/%s", name, apiErr.Status, apiErr.Code, api.CodeNotFound)
		}
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxJobPoints: 2})
	ctx := context.Background()
	cases := []struct {
		name     string
		req      api.JobRequest
		wantCode string
	}{
		{"no points", api.JobRequest{Source: haltingSource}, api.CodeInvalidRequest},
		{"too many points", api.JobRequest{Source: haltingSource, Points: jobPoints(3)}, api.CodeInvalidRequest},
		{"bad program", api.JobRequest{Source: "bogus r1\n", Points: jobPoints(1)}, api.CodeAssembleError},
		{"no program", api.JobRequest{Points: jobPoints(1)}, api.CodeInvalidRequest},
		{"negative point timeout", api.JobRequest{Source: haltingSource, Points: jobPoints(1), PointTimeoutMs: -1}, api.CodeInvalidRequest},
		{"bad point", api.JobRequest{Source: haltingSource, Points: []api.RunSpec{{MaxCycles: -1}}}, api.CodeInvalidRequest},
		{"bad point params", api.JobRequest{Source: haltingSource, Points: []api.RunSpec{{Params: repro.Params{WindowSize: -1}}}}, api.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.SubmitJob(ctx, tc.req)
			apiErr := apiError(t, err)
			if apiErr.Code != tc.wantCode {
				t.Errorf("code = %s, want %s (%v)", apiErr.Code, tc.wantCode, apiErr)
			}
		})
	}
}

// TestSweepBadRequests posts malformed sweep grids to /v1/jobs as raw
// JSON, bypassing the typed client, and pins the wire-level answer: a
// 400 with the error envelope's code.
func TestSweepBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxJobPoints: 2})
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"no points", fmt.Sprintf(`{"source": %q, "points": []}`, haltingSource), api.CodeInvalidRequest},
		{"too many points", fmt.Sprintf(`{"source": %q, "points": [{}, {}, {}]}`, haltingSource), api.CodeInvalidRequest},
		{"bad point params", fmt.Sprintf(`{"source": %q, "points": [{"maxCycles": -1}]}`, haltingSource), api.CodeInvalidRequest},
		// Each of these passed validation once and panicked in the
		// worker's cpu.New, taking the whole process down.
		{"window above wake-up array", fmt.Sprintf(`{"source": %q, "points": [{"params": {"WindowSize": 65}}]}`, haltingSource), api.CodeInvalidRequest},
		{"predictor entries not a power of two", fmt.Sprintf(`{"source": %q, "points": [{"params": {"PredictorEntries": 100}}]}`, haltingSource), api.CodeInvalidRequest},
		{"trace cache lines not a power of two", fmt.Sprintf(`{"source": %q, "points": [{"params": {"TraceCacheLines": 3}}]}`, haltingSource), api.CodeInvalidRequest},
		{"memory above cap", fmt.Sprintf(`{"source": %q, "points": [{"params": {"MemBytes": 1099511627776}}]}`, haltingSource), api.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, doc := postJSON(t, ts, "/v1/jobs", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", status, doc)
			}
			if code := errCode(t, doc); code != tc.wantCode {
				t.Errorf("code = %s, want %s", code, tc.wantCode)
			}
		})
	}
}

func TestJobListAndActiveCap(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{
		Source: spinSource,
		Points: []api.RunSpec{{MaxCycles: 500_000_000}},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The cap counts non-terminal jobs: a second submission is rejected
	// with 503 queue_full until the first finishes.
	_, err = c.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: jobPoints(1)})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("over-cap submit = %d/%s, want 503/%s", apiErr.Status, apiErr.Code, api.CodeQueueFull)
	}

	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID {
		t.Fatalf("list = %+v, want exactly job %s", list.Jobs, created.ID)
	}
	if _, err := c.CancelJob(ctx, created.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// Terminal now — the cap frees up.
	if _, err := c.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: jobPoints(1)}); err != nil {
		t.Errorf("submit after cancel: %v", err)
	}
}

// TestJobCrashResumeByteIdentical is the tentpole acceptance test at
// the HTTP level: interrupt a server mid-job, bring a new server up on
// the same job directory, and the resumed job's full result set must be
// byte-identical to an uninterrupted run of the same grid.
func TestJobCrashResumeByteIdentical(t *testing.T) {
	spec := api.JobRequest{Source: busySource, Points: jobPoints(6), Label: "resume-me"}
	ctx := context.Background()

	// Baseline: the same grid, uninterrupted, on a volatile server.
	_, _, base := newTestServer(t, Config{Workers: 1})
	baseCreated, err := base.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	baseline, err := base.WaitJob(ctx, baseCreated.ID, nil)
	if err != nil || baseline.State != api.JobDone {
		t.Fatalf("baseline: %+v, %v", baseline, err)
	}

	// Interrupted run: durable store, one worker; stop the server after
	// the first point lands.
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := newHTTPServer(t, s1)
	c1 := client.New(ts1, client.WithRetry(0, -1))
	created, err := c1.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stream, err := c1.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventPoint {
			break
		}
	}
	stream.Close()
	s1.Close() // the "crash": in-flight point dropped, store released

	// Restart over the same directory: New resumes incomplete jobs.
	s2, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	ts2 := newHTTPServer(t, s2)
	c2 := client.New(ts2, client.WithRetry(0, -1))
	resumed, err := c2.WaitJob(ctx, created.ID, nil)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if resumed.State != api.JobDone || resumed.Done != len(spec.Points) {
		t.Fatalf("resumed job = %+v, want done %d points", resumed, len(spec.Points))
	}
	if resumed.Label != "resume-me" {
		t.Errorf("label lost across restart: %q", resumed.Label)
	}

	if len(resumed.Points) != len(baseline.Points) {
		t.Fatalf("resumed has %d results, baseline %d", len(resumed.Points), len(baseline.Points))
	}
	for i := range resumed.Points {
		got, want := resumed.Points[i], baseline.Points[i]
		if got.Index != want.Index {
			t.Fatalf("result order diverged at %d: %d vs %d", i, got.Index, want.Index)
		}
		if !bytes.Equal(got.Report, want.Report) {
			t.Errorf("point %d: resumed report differs from uninterrupted run\nresumed:  %s\nbaseline: %s",
				got.Index, got.Report, want.Report)
		}
		if got.Error != nil || want.Error != nil {
			t.Errorf("point %d: unexpected errors (resumed %v, baseline %v)", got.Index, got.Error, want.Error)
		}
	}
}

// TestJobSurvivesRestartWhenComplete checks a finished job is served
// (with results) by a later server over the same directory.
func TestJobDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c1 := client.New(newHTTPServer(t, s1), client.WithRetry(0, -1))
	created, err := c1.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: jobPoints(2)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	finished, err := c1.WaitJob(ctx, created.ID, nil)
	if err != nil || finished.State != api.JobDone {
		t.Fatalf("first run: %+v, %v", finished, err)
	}
	s1.Close()

	s2, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	c2 := client.New(newHTTPServer(t, s2), client.WithRetry(0, -1))
	reloaded, err := c2.Job(ctx, created.ID, true)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if reloaded.State != api.JobDone || len(reloaded.Points) != 2 {
		t.Fatalf("reloaded = %+v, want done with 2 results", reloaded)
	}
	for i := range reloaded.Points {
		if !bytes.Equal(reloaded.Points[i].Report, finished.Points[i].Report) {
			t.Errorf("point %d report changed across restart", i)
		}
	}
}

// TestJobResumesRetiredSweepKind pins resume over a store written by an
// older server: an incomplete job of the retired synchronous "sweep"
// kind must run to completion like any other job, its points landing
// on the job_point metrics.
func TestJobResumesRetiredSweepKind(t *testing.T) {
	dir := t.TempDir()
	store, err := job.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	old, err := store.Create(job.Spec{
		Label:   "sweep",
		Kind:    "sweep",
		Program: api.Program{Source: haltingSource},
		Points:  jobPoints(2),
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	s, err := New(Config{Workers: 2, JobDir: dir})
	if err != nil {
		t.Fatalf("New over the old store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	url := newHTTPServer(t, s)
	status, err := client.New(url, client.WithRetry(0, -1)).WaitJob(context.Background(), old.ID, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Done != 2 || status.Failed != 0 {
		t.Fatalf("resumed sweep job = %+v, want done 2/0 failed", status)
	}
	if text := metricsText(t, url); !strings.Contains(text, `rssd_queue_wait_us_count{kind="job_point"} 2`) {
		t.Errorf("resumed points missing from the job_point queue-wait histogram")
	}
}

// TestJobReplayInvalidPointFails pins containment for replayed jobs: a
// stored point whose spec does not validate fails as that point's data,
// the job finishes, and the server keeps serving.
func TestJobReplayInvalidPointFails(t *testing.T) {
	dir := t.TempDir()
	spec := `{"id":"j1","spec":{"kind":"job","program":{"source":"halt\n"},` +
		`"points":[{"policy":"steering","params":{"clusterMode":"bogus"},"maxCycles":1000}]}}`
	if err := os.WriteFile(filepath.Join(dir, "j1.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New over the stored job: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	c := client.New(newHTTPServer(t, s), client.WithRetry(0, -1))
	ctx := context.Background()
	status, err := c.WaitJob(ctx, "j1", nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Done != 1 || status.Failed != 1 {
		t.Fatalf("replayed job = %+v, want done with 1 failed point", status)
	}
	status, err = c.Job(ctx, "j1", true)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if e := status.Points[0].Error; e == nil || e.Code != api.CodeInvalidParams {
		t.Errorf("point error = %+v, want %s", e, api.CodeInvalidParams)
	}
	if _, err := c.Run(ctx, api.RunRequest{Source: haltingSource}); err != nil {
		t.Errorf("server stopped serving after the replay: %v", err)
	}
}

// TestJobReplayRemovedParamsField pins resume over a store whose job
// spec names a params field the machine no longer has
// (TraceCacheLineLen): the store's lenient decode drops it, and the job
// runs to completion. A new request naming it is refused
// (TestRunBadRequests).
func TestJobReplayRemovedParamsField(t *testing.T) {
	dir := t.TempDir()
	spec := `{"id":"j1","spec":{"kind":"job","program":{"source":"halt\n"},` +
		`"points":[{"policy":"steering","params":{"TraceCacheLineLen":8},"maxCycles":1000}]}}`
	if err := os.WriteFile(filepath.Join(dir, "j1.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New over the stored job: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	c := client.New(newHTTPServer(t, s), client.WithRetry(0, -1))
	status, err := c.WaitJob(context.Background(), "j1", nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Done != 1 || status.Failed != 0 {
		t.Fatalf("replayed job = %+v, want done with no failed point", status)
	}
}

// TestJobDedupMatchesRun is the "deduplicated ≡ individually run"
// oracle: a job whose points repeat a canonical spec runs each distinct
// spec once, and every point's report is byte-identical to POST /v1/run
// of that point's own spec.
func TestJobDedupMatchesRun(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	words, err := repro.EncodeProgram(repro.Synthesize(repro.AlternatingPhases(1500, 300), 7))
	if err != nil {
		t.Fatal(err)
	}
	req := api.JobRequest{Words: words}
	distinct := map[api.RunSpec]bool{}
	for _, name := range []string{"steering", "prefetch", "random", "demand"} {
		for _, residency := range []int{0, 32} {
			for seed := int64(1); seed <= 3; seed++ {
				spec := api.RunSpec{Policy: policy(t, name), Params: repro.Params{ReconfigLatency: 8},
					MaxCycles: 2_000_000, Seed: seed, MinResidency: residency}
				req.Points = append(req.Points, spec)
				distinct[spec.Canonical()] = true
			}
		}
	}
	status := runJob(t, c, req)
	for _, p := range status.Points {
		spec := req.Points[p.Index]
		if p.Error != nil {
			t.Fatalf("point %d (%+v): %v", p.Index, spec, p.Error)
		}
		run, err := c.Run(ctx, api.RunRequest{Words: words, RunSpec: spec})
		if err != nil {
			t.Fatalf("run of point %d: %v", p.Index, err)
		}
		// The envelopes indent the report at different depths; the
		// report's bytes are compared without that whitespace.
		var got, want bytes.Buffer
		if err := json.Compact(&got, p.Report); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&want, run.Report); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("point %d (%+v): job report differs from /v1/run\njob: %s\nrun: %s", p.Index, spec, p.Report, run.Report)
		}
	}
	text := metricsText(t, ts.URL)
	for _, want := range []string{
		fmt.Sprintf(`rssd_queue_wait_us_count{kind="job_point"} %d`, len(distinct)),
		fmt.Sprintf(`rssd_job_points_shared_total %d`, len(req.Points)-len(distinct)),
		fmt.Sprintf(`rssd_job_points_total{outcome="done"} %d`, len(req.Points)),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// runJob submits req and follows it to a terminal state.
func runJob(t *testing.T, c *client.Client, req api.JobRequest) api.JobStatus {
	t.Helper()
	ctx := context.Background()
	created, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	status, err := c.WaitJob(ctx, created.ID, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || len(status.Points) != len(req.Points) {
		t.Fatalf("job = %s with %d results, want done with %d", status.State, len(status.Points), len(req.Points))
	}
	return status
}

func TestJobAllPolicies(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 4})
	policies := []string{"steering", "static-integer", "static-memory", "static-floating", "ffu-only", "full-reconfig", "oracle", "random", "demand"}
	req := api.JobRequest{Source: haltingSource}
	for _, p := range policies {
		req.Points = append(req.Points, api.RunSpec{Policy: policy(t, p)})
	}
	for i, p := range runJob(t, c, req).Points {
		if p.Index != i {
			t.Errorf("point %d: index = %d", i, p.Index)
		}
		if p.Policy != policies[i] {
			t.Errorf("point %d: policy = %v, want %s", i, p.Policy, policies[i])
		}
		if p.Error != nil {
			t.Errorf("point %d: unexpected error %v", i, p.Error)
		}
		if len(p.Report) == 0 {
			t.Errorf("point %d: missing report", i)
		}
	}
}

func TestJobWithFaultRates(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2})
	status := runJob(t, c, api.JobRequest{Source: faultySource, Points: []api.RunSpec{
		{},
		{Params: repro.Params{FaultTransientRate: 0.002, FaultSeed: 11, FaultScrubInterval: 64}},
		{Params: repro.Params{FaultTransientRate: 0.01, FaultSeed: 11, FaultScrubInterval: 64}},
	}})
	// The results document over raw HTTP, as a shell client reads it.
	code, doc := getJSON(t, ts, "/v1/jobs/"+status.ID+"?results=1")
	if code != http.StatusOK {
		t.Fatalf("GET job results: status %d (%v)", code, doc)
	}
	points := doc["points"].([]any)
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	for i, raw := range points {
		p := raw.(map[string]any)
		if p["error"] != nil {
			t.Fatalf("point %d: unexpected error %v", i, p["error"])
		}
		_, hasFaults := p["report"].(map[string]any)["faults"]
		if wantFaults := i > 0; hasFaults != wantFaults {
			t.Errorf("point %d: faults block present = %v, want %v", i, hasFaults, wantFaults)
		}
	}
}

func TestJobPointErrorIsData(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	// One good point, one that exhausts its cycle budget: the job
	// completes and the failure rides in the point's error field.
	status := runJob(t, c, api.JobRequest{Source: haltingSource, Points: []api.RunSpec{{}, {MaxCycles: 2}}})
	if status.Done != 2 || status.Failed != 1 {
		t.Errorf("done/failed = %d/%d, want 2/1", status.Done, status.Failed)
	}
	if e := status.Points[0].Error; e != nil {
		t.Errorf("point 0: unexpected error %v", e)
	}
	if e := status.Points[1].Error; e == nil || e.Code != api.CodeCycleLimit {
		t.Errorf("point 1: error = %v, want code %s", e, api.CodeCycleLimit)
	}
}

func TestJobsConcurrent(t *testing.T) {
	// Several jobs in flight at once over a 2-worker pool: results must
	// stay complete and ordered while points from different jobs
	// interleave on the shared slots (the -race run is the real check).
	_, _, c := newTestServer(t, Config{Workers: 2})
	req := api.JobRequest{
		Source: haltingSource,
		Points: []api.RunSpec{
			{Policy: policy(t, "steering")},
			{Policy: policy(t, "ffu-only")},
			{Policy: policy(t, "demand")},
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			created, err := c.SubmitJob(ctx, req)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			status, err := c.WaitJob(ctx, created.ID, nil)
			if err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if status.Done != 3 {
				t.Errorf("job %s: %d points done, want 3", created.ID, status.Done)
			}
			for i, p := range status.Points {
				if p.Index != i {
					t.Errorf("job %s: result %d has index %d", created.ID, i, p.Index)
				}
			}
		}()
	}
	wg.Wait()
}

// TestJobPointDeadline checks a point that outlives pointTimeoutMs fails
// as data with deadline_exceeded while the job itself completes.
func TestJobPointDeadline(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 2})
	status := runJob(t, c, api.JobRequest{
		Source:         spinSource,
		PointTimeoutMs: 100,
		Points:         []api.RunSpec{{MaxCycles: 500_000_000}, {MaxCycles: 500_000_000}},
	})
	for i, p := range status.Points {
		if p.Error == nil || p.Error.Code != api.CodeDeadlineExceeded {
			t.Errorf("point %d: error = %v, want code %s", i, p.Error, api.CodeDeadlineExceeded)
		}
	}

	// pointTimeoutMs omitted takes the server default, as /v1/run's
	// timeoutMs does, so a local point has the deadline a remote worker
	// would give it.
	_, _, dc := newTestServer(t, Config{Workers: 2, DefaultTimeout: 100 * time.Millisecond})
	status = runJob(t, dc, api.JobRequest{
		Source: spinSource,
		Points: []api.RunSpec{{MaxCycles: 500_000_000}, {MaxCycles: 500_000_000}},
	})
	for i, p := range status.Points {
		if p.Error == nil || p.Error.Code != api.CodeDeadlineExceeded {
			t.Errorf("default deadline, point %d: error = %v, want code %s", i, p.Error, api.CodeDeadlineExceeded)
		}
	}
}

// newHTTPServer mounts a prebuilt Server on an httptest listener and
// returns its base URL; used by the restart tests that manage the
// Server lifecycle themselves.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
