// Tests for the rssd observability surface added with the span
// recorder: the /debug/flightrecorder endpoint, per-endpoint latency
// histograms, optional pprof mounting, deadline triggers and the
// drain-time span flush.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/queue"
	"repro/internal/span"
)

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return buf.String()
}

// flightDoc fetches and decodes /debug/flightrecorder.
func flightDoc(t *testing.T, url string) (doc struct {
	Recorded  uint64             `json:"recorded"`
	Deadlines uint64             `json:"deadlines"`
	Spans     []span.ServiceSpan `json:"spans"`
}) {
	t.Helper()
	resp, err := http.Get(url + "/debug/flightrecorder")
	if err != nil {
		t.Fatalf("GET /debug/flightrecorder: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flightrecorder: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("flightrecorder content type = %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("flightrecorder is not JSON: %v", err)
	}
	return doc
}

// TestFlightRecorderEndpoint runs one job and checks its lifecycle
// stages — queue-wait, execute, encode — land in the flight ring.
func TestFlightRecorderEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	doc := flightDoc(t, ts.URL)
	if doc.Recorded != 0 || len(doc.Spans) != 0 {
		t.Fatalf("fresh server has %d spans recorded", doc.Recorded)
	}

	if code, _ := postJSON(t, ts, "/v1/run", fmt.Sprintf(`{"source": %q}`, haltingSource)); code != http.StatusOK {
		t.Fatalf("run status = %d", code)
	}
	doc = flightDoc(t, ts.URL)
	stages := map[string]int{}
	for _, s := range doc.Spans {
		stages[s.Name]++
		if s.Kind != "run" || s.Point != -1 {
			t.Errorf("run span = %+v, want kind run, point -1", s)
		}
		if s.DurUs < 0 || s.StartUs < 0 {
			t.Errorf("span %+v has negative timing", s)
		}
	}
	for _, want := range []string{"decode", "queue-wait", "execute", "encode"} {
		if stages[want] != 1 {
			t.Errorf("stage %q recorded %d times, want 1 (stages %v)", want, stages[want], stages)
		}
	}
	if doc.Deadlines != 0 {
		t.Errorf("deadlines = %d on a healthy run", doc.Deadlines)
	}
}

// TestJobSpans checks a job records per-point queue-wait and execution
// children plus the job-level span, all under one request ordinal.
func TestJobSpans(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2})
	runJob(t, c, api.JobRequest{Source: haltingSource, Points: []api.RunSpec{
		{Policy: policy(t, "steering")}, {Policy: policy(t, "demand")},
	}})
	// The job span lands just after the terminal state event, so poll.
	var points, waits, jobs int
	reqs := map[uint64]bool{}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		doc := flightDoc(t, ts.URL)
		points, waits, jobs = 0, 0, 0
		clear(reqs)
		for _, s := range doc.Spans {
			reqs[s.Req] = true
			switch {
			case s.Name == "point" && s.Kind == "job_point":
				points++
			case s.Name == "queue-wait" && s.Kind == "job_point":
				waits++
				if s.Point < 0 || s.Point > 1 {
					t.Errorf("point queue-wait has index %d", s.Point)
				}
			case s.Name == "job" && s.Kind == "job":
				jobs++
			}
		}
		if jobs > 0 || time.Now().After(deadline) {
			break
		}
	}
	if points != 2 || waits != 2 || jobs != 1 {
		t.Errorf("spans = %d points, %d queue-waits, %d jobs; want 2/2/1", points, waits, jobs)
	}
	if len(reqs) != 1 {
		t.Errorf("job spans cover %d request ordinals, want 1", len(reqs))
	}
}

// TestDeadlineTriggerRecorded pins the service-side anomaly trigger: a
// run that exceeds its deadline must bump the deadline tally and leave
// a deadline-exceeded span in the ring.
func TestDeadlineTriggerRecorded(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	code, _ := postJSON(t, ts, "/v1/run",
		fmt.Sprintf(`{"source": %q, "maxCycles": 500000000, "timeoutMs": 50}`, spinSource))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline run status = %d, want 504", code)
	}
	doc := flightDoc(t, ts.URL)
	if doc.Deadlines != 1 {
		t.Errorf("deadlines = %d, want 1", doc.Deadlines)
	}
	var sawTrigger bool
	for _, s := range doc.Spans {
		if s.Name == "deadline-exceeded" && s.Detail == "deadline" {
			sawTrigger = true
		}
	}
	if !sawTrigger {
		t.Errorf("no deadline-exceeded span in ring: %+v", doc.Spans)
	}

	// A deadline that expires in the slot wait fires the trigger too:
	// with the only worker held, the run never reaches the simulator.
	busy, bts, _ := newTestServer(t, Config{Workers: 1})
	if err := busy.pool.acquire(context.Background()); err != nil {
		t.Fatalf("holding the worker: %v", err)
	}
	defer busy.pool.release()
	code, _ = postJSON(t, bts, "/v1/run", fmt.Sprintf(`{"source": %q, "timeoutMs": 50}`, haltingSource))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slot-wait deadline run status = %d, want 504", code)
	}
	doc = flightDoc(t, bts.URL)
	if doc.Deadlines != 1 {
		t.Errorf("slot-wait deadlines = %d, want 1", doc.Deadlines)
	}
	var sawWaitTrigger bool
	for _, s := range doc.Spans {
		if s.Name == "execute" {
			t.Errorf("run executed with the only worker held: %+v", s)
		}
		if s.Name == "deadline-exceeded" && s.Kind == "run" && s.Detail == "deadline" {
			sawWaitTrigger = true
		}
	}
	if !sawWaitTrigger {
		t.Errorf("no deadline-exceeded span for the slot wait: %+v", doc.Spans)
	}
}

// metricSeries parses a /metrics exposition into its series values,
// keyed by name and labels as rendered.
func metricSeries(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	series := map[string]uint64{}
	for _, line := range strings.Split(metricsText(t, url), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue // negative gauges and sums are not counts
		}
		series[key] = v
	}
	return series
}

// TestFreshMetricsExposition: a fresh server's /metrics lists each
// family as one contiguous block under one HELP and one TYPE line, every
// series once and at 0 (the scrape itself counts first), and every value
// of each label vocabulary the families register from.
func TestFreshMetricsExposition(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	text := metricsText(t, ts.URL)

	headers, started, series := map[string]bool{}, map[string]bool{}, map[string]bool{}
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			if headers[line] {
				t.Errorf("header repeated: %s", line)
			}
			headers[line] = true
			if name := strings.Fields(line)[2]; name != family {
				if started[name] {
					t.Errorf("family %s starts again after %s", name, family)
				}
				started[name] = true
				family = name
			}
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(key, "{")
		if name != family {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		if name != family {
			t.Errorf("series %s outside its family's block (inside %s)", key, family)
		}
		if series[key] {
			t.Errorf("series %s listed twice", key)
		}
		series[key] = true
		want := "0"
		if key == `rssd_requests_total{handler="metrics"}` {
			want = "1"
		}
		if val != want {
			t.Errorf("fresh %s = %s, want %s", key, val, want)
		}
	}

	var handlers []string
	for _, rt := range routes {
		handlers = append(handlers, rt.name)
	}
	for prefix, values := range map[string][]string{
		"rssd_requests_total{handler=":            handlers,
		"rssd_failures_total{handler=":            handlers,
		"rssd_handler_duration_us_count{handler=": handlers,
		"rssd_rejected_total{reason=":             {api.CodeQueueFull, api.CodeDraining},
		"rssd_job_duration_ms_count{kind=":        jobKindNames,
		"rssd_queue_wait_us_count{kind=":          jobKindNames,
		"rssd_prefetch_total{counter=":            prefetchCounterNames,
		"rssd_estimate_total{bottleneck=":         queue.Bottlenecks(),
		"rssd_sweep_jobs_finished_total{state=":   api.TerminalStates(),
		"rssd_job_points_total{outcome=":          pointOutcomeNames,
	} {
		for _, v := range values {
			if key := prefix + strconv.Quote(v) + "}"; !series[key] {
				t.Errorf("fresh /metrics lacks %s", key)
			}
		}
	}
}

// TestRouteTableDrivesMetrics sends one request to every route and one
// failing request to every route that can fail, and checks each
// route's request, latency and failure series moved under its own
// handler label: the labels come from the one route table.
func TestRouteTableDrivesMetrics(t *testing.T) {
	s, ts, c := newTestServer(t, Config{})
	ctx := context.Background()
	created, err := c.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: []api.RunSpec{{}}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.WaitJob(ctx, created.ID, nil); err != nil {
		t.Fatalf("wait: %v", err)
	}
	job := "/v1/jobs/" + created.ID
	src := fmt.Sprintf(`{"source": %q}`, haltingSource)
	type call struct {
		method, path, body string
		status             int
	}
	// By handler label: a request that succeeds, then one that fails.
	// healthz fails only while draining, so its failure is sent last.
	calls := map[string][]call{
		"assemble":       {{"POST", "/v1/assemble", src, 200}, {"POST", "/v1/assemble", `{}`, 400}},
		"run":            {{"POST", "/v1/run", src, 200}, {"POST", "/v1/run", `{"source": "halt\n", "policy": "nope"}`, 400}},
		"estimate":       {{"POST", "/v1/estimate", src, 200}, {"POST", "/v1/estimate", `{}`, 400}},
		"healthz":        {{"GET", "/v1/healthz", "", 200}},
		"metrics":        {{"GET", "/metrics", "", 200}},
		"flightrecorder": {{"GET", "/debug/flightrecorder", "", 200}},
		"jobs":           {{"POST", "/v1/jobs", fmt.Sprintf(`{"source": %q, "points": [{}]}`, haltingSource), 202}, {"POST", "/v1/jobs", `{"source": "halt\n", "points": []}`, 400}},
		"jobs_list":      {{"GET", "/v1/jobs", "", 200}},
		"job":            {{"GET", job, "", 200}, {"GET", "/v1/jobs/j-nope", "", 404}},
		"job_events":     {{"GET", job + "/events", "", 200}, {"GET", "/v1/jobs/j-nope/events", "", 404}},
		"job_cancel":     {{"DELETE", job, "", 200}, {"DELETE", "/v1/jobs/j-nope", "", 404}},
	}
	send := func(cl call) {
		req, err := http.NewRequest(cl.method, ts.URL+cl.path, strings.NewReader(cl.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", cl.method, cl.path, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != cl.status {
			t.Errorf("%s %s: status %d, want %d", cl.method, cl.path, resp.StatusCode, cl.status)
		}
	}

	before := metricSeries(t, ts.URL)
	for _, rt := range routes {
		if len(calls[rt.name]) == 0 {
			t.Errorf("route %q (%s) has no request in this test", rt.name, rt.pattern)
		}
		for _, cl := range calls[rt.name] {
			send(cl)
		}
	}
	s.StartDrain()
	drained := call{"GET", "/v1/healthz", "", 503}
	send(drained)
	calls["healthz"] = append(calls["healthz"], drained)
	after := metricSeries(t, ts.URL)

	for _, rt := range routes {
		sent, failed := uint64(len(calls[rt.name])), uint64(0)
		for _, cl := range calls[rt.name] {
			if cl.status >= 300 {
				failed++
			}
		}
		wantDur := sent
		if rt.name == "metrics" {
			// The snapshots are metrics requests too: the second counts
			// itself before it renders, the first's latency lands after.
			sent++
			wantDur++
		}
		for series, want := range map[string]uint64{
			`rssd_requests_total{handler="` + rt.name + `"}`:            sent,
			`rssd_handler_duration_us_count{handler="` + rt.name + `"}`: wantDur,
			`rssd_failures_total{handler="` + rt.name + `"}`:            failed,
		} {
			if _, ok := after[series]; !ok {
				t.Errorf("metrics lack %s", series)
			} else if got := after[series] - before[series]; got != want {
				t.Errorf("%s moved by %d, want %d", series, got, want)
			}
		}
	}
}

// TestHandlerPanicAnswered pins panic containment at the request
// boundary: a handler that panics behind serve gets a 500 internal
// envelope, rssd_panics_total counts it, and the next request is served.
func TestHandlerPanicAnswered(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.serve("run", func(*Server, http.ResponseWriter, *http.Request) error {
		panic("simulator bug")
	}))
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	src := fmt.Sprintf(`{"source": %q}`, haltingSource)
	code, doc := postJSON(t, ts, "/v1/run", src)
	if code != http.StatusInternalServerError || errCode(t, doc) != api.CodeInternal {
		t.Fatalf("panicking run: status %d, body %v; want 500 %s", code, doc, api.CodeInternal)
	}
	if msg := doc["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "simulator bug") {
		t.Errorf("panic envelope message %q does not name the panic value", msg)
	}
	text := metricsText(t, ts.URL)
	for _, want := range []string{
		`rssd_panics_total 1`,
		`rssd_requests_total{handler="run"} 1`,
		`rssd_failures_total{handler="run"} 1`,
		`rssd_handler_duration_us_count{handler="run"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if code, doc := postJSON(t, ts, "/v1/assemble", src); code != http.StatusOK {
		t.Errorf("request after the panic: status %d (%v), want 200", code, doc)
	}
}

// TestLatencyHistograms checks the queue-wait and handler-duration
// histograms appear in /metrics with observations after traffic.
func TestLatencyHistograms(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2})
	postJSON(t, ts, "/v1/run", fmt.Sprintf(`{"source": %q}`, haltingSource))
	code, doc := postJSON(t, ts, "/v1/jobs",
		fmt.Sprintf(`{"source": %q, "points": [{"policy": "steering"}, {"policy": "demand"}]}`, haltingSource))
	if code != http.StatusAccepted {
		t.Fatalf("job submit status = %d (%v)", code, doc)
	}
	if _, err := c.WaitJob(context.Background(), doc["id"].(string), nil); err != nil {
		t.Fatalf("wait: %v", err)
	}

	text := metricsText(t, ts.URL)
	for _, want := range []string{
		`rssd_queue_wait_us_count{kind="run"} 1`,
		`rssd_queue_wait_us_count{kind="job_point"} 2`,
		`rssd_handler_duration_us_count{handler="run"} 1`,
		`rssd_handler_duration_us_count{handler="jobs"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPprofGated checks net/http/pprof is absent by default and mounted
// with EnablePprof, and that profiling traffic stays out of the request
// metrics.
func TestPprofGated(t *testing.T) {
	_, off, _ := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag: status %d, want 404", resp.StatusCode)
	}

	_, on, _ := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with flag: status %d, want 200", resp.StatusCode)
	}
	if text := metricsText(t, on.URL); strings.Contains(text, "pprof") {
		t.Error("pprof traffic leaked into service metrics")
	}
}

// TestDrainFlushesSpans mirrors the rssd shutdown path: after draining,
// the span sink must export everything recorded during the session in
// both formats.
func TestDrainFlushesSpans(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	postJSON(t, ts, "/v1/run", fmt.Sprintf(`{"source": %q}`, haltingSource))
	s.StartDrain()

	var buf bytes.Buffer
	if err := s.Spans().WriteJSON(&buf); err != nil {
		t.Fatalf("drain span flush (json): %v", err)
	}
	var doc struct {
		Recorded uint64             `json:"recorded"`
		Spans    []span.ServiceSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("drained span dump is not JSON: %v", err)
	}
	if doc.Recorded == 0 || len(doc.Spans) == 0 {
		t.Errorf("drained dump empty: recorded=%d spans=%d", doc.Recorded, len(doc.Spans))
	}

	buf.Reset()
	if err := s.Spans().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("drain span flush (chrome): %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("drained chrome trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) < 2 {
		t.Errorf("drained chrome trace has %d events", len(trace.TraceEvents))
	}
}
