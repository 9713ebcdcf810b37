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
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
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
