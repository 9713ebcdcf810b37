package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/client"
)

// haltingSource is a tiny program that retires a HALT quickly.
const haltingSource = `
	li r1, 10
	li r2, 32
	mul r3, r1, r2
	halt
`

// spinSource never halts; runs against it end only by budget or deadline.
const spinSource = "loop: j loop\n"

// newTestServer builds a server plus an httptest front end and a typed
// client pointed at it. The suites drive the server through the client
// wherever the test is about behavior; tests about the wire format
// itself (malformed bodies, raw envelopes) post raw JSON instead.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// No retries by default: tests asserting 503s want the first answer.
	return s, ts, client.New(ts.URL, client.WithRetry(0, -1))
}

// postJSON sends body to path and returns the status plus decoded body.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("POST %s: decoding response: %v", path, err)
	}
	return resp.StatusCode, doc
}

// getJSON fetches path and returns the status plus decoded body.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET %s: decoding response: %v", path, err)
	}
	return resp.StatusCode, doc
}

// errCode digs the structured code out of an error envelope.
func errCode(t *testing.T, doc map[string]any) string {
	t.Helper()
	env, ok := doc["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", doc)
	}
	code, _ := env["code"].(string)
	return code
}

// apiError asserts err is a typed envelope and returns it.
func apiError(t *testing.T, err error) *api.Error {
	t.Helper()
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an *api.Error", err, err)
	}
	return apiErr
}

// report decodes a raw run report into a map for assertions.
func report(t *testing.T, raw json.RawMessage) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	return doc
}

func policy(t *testing.T, name string) repro.Policy {
	t.Helper()
	p, err := repro.ParsePolicy(name)
	if err != nil {
		t.Fatalf("parsing policy %q: %v", name, err)
	}
	return p
}

func TestAssemble(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()

	resp, err := c.Assemble(ctx, api.AssembleRequest{Source: haltingSource})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if resp.Instructions != 4 {
		t.Errorf("instructions = %d, want 4", resp.Instructions)
	}
	if len(resp.Words) != 4 {
		t.Errorf("len(words) = %d, want 4", len(resp.Words))
	}
	if !strings.Contains(resp.Disassembly, "halt") {
		t.Errorf("disassembly missing halt:\n%s", resp.Disassembly)
	}
	if resp.Cached {
		t.Errorf("first assembly reported cached")
	}

	// The identical source must come from the cache the second time.
	resp, err = c.Assemble(ctx, api.AssembleRequest{Source: haltingSource})
	if err != nil || !resp.Cached {
		t.Errorf("second assembly: err %v cached %v, want nil true", err, resp.Cached)
	}
}

func TestAssembleError(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	_, err := c.Assemble(context.Background(), api.AssembleRequest{Source: "li r1, 1\nbogus r2\nhalt\n"})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%v)", apiErr.Status, apiErr)
	}
	if apiErr.Code != api.CodeAssembleError {
		t.Errorf("code = %v, want %s", apiErr.Code, api.CodeAssembleError)
	}
	if apiErr.Line != 2 {
		t.Errorf("line = %d, want 2", apiErr.Line)
	}
}

func TestRunHappyPath(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	resp, err := c.Run(context.Background(), api.RunRequest{
		Source:  haltingSource,
		RunSpec: api.RunSpec{Policy: policy(t, "steering")},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := report(t, resp.Report)
	if rep["policy"] != "steering" {
		t.Errorf("report policy = %v, want steering", rep["policy"])
	}
	stats := rep["stats"].(map[string]any)
	if stats["Retired"].(float64) < 4 {
		t.Errorf("retired = %v, want >= 4", stats["Retired"])
	}
}

func TestRunFromWords(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	// Assemble first, then run the binary form.
	asm, err := c.Assemble(ctx, api.AssembleRequest{Source: haltingSource})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	// The source is cached, but words key their own cache entry: the
	// first run decodes, the second is served from the cache.
	for i, wantCached := range []bool{false, true} {
		resp, err := c.Run(ctx, api.RunRequest{Words: asm.Words})
		if err != nil {
			t.Fatalf("run %d from words: %v", i, err)
		}
		if resp.Cached != wantCached {
			t.Errorf("run %d from words: cached = %v, want %v", i, resp.Cached, wantCached)
		}
	}
}

// TestProgramKeysDomainSeparated pins that a source whose bytes equal a
// word program's little-endian encoding still gets a different key.
func TestProgramKeysDomainSeparated(t *testing.T) {
	words := []uint32{0x64636261}
	if sourceKey("abcd") == wordsKey(words) {
		t.Error("source and words forms of the same bytes share a cache key")
	}
	if wordsKey(words) != wordsKey([]uint32{0x64636261}) {
		t.Error("wordsKey is not a pure function of the words")
	}
	// Longer than one hashing chunk, so the chunk boundary is covered.
	long := make([]uint32, 3000)
	other := make([]uint32, 3000)
	other[len(other)-1] = 1
	if wordsKey(long) == wordsKey(other) {
		t.Error("words differing past the first chunk share a key")
	}
}

// faultySource loops long enough for a high-rate fault campaign to
// land upsets during the run.
const faultySource = `
	li r1, 200
loop:	addi r1, r1, -1
	mul r2, r1, r1
	bne r1, r0, loop
	halt
`

func TestRunWithFaults(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"source": %q, "policy": "steering", "params": {"FaultTransientRate": 0.002, "FaultPermanentRate": 0.0002, "FaultSeed": 11, "FaultScrubInterval": 64}}`, faultySource)
	status, doc := postJSON(t, ts, "/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%v)", status, doc)
	}
	rep := doc["report"].(map[string]any)
	faults, ok := rep["faults"].(map[string]any)
	if !ok {
		t.Fatalf("report has no faults block: %v", rep)
	}
	if faults["scrubScans"].(float64) == 0 {
		t.Errorf("no scrub scans recorded in %v", faults)
	}
}

func TestRunCluster(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"source": %q, "policy": "steering", "params": {"Cores": 2, "ClusterMode": "split", "ClusterArbiter": "demand-weighted"}}`, faultySource)
	status, doc := postJSON(t, ts, "/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%v)", status, doc)
	}
	rep := doc["report"].(map[string]any)
	summary, ok := rep["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("report has no cluster block: %v", rep)
	}
	if summary["cores"].(float64) != 2 || summary["mode"] != "split" || summary["arbiter"] != "demand-weighted" {
		t.Errorf("cluster summary = %v", summary)
	}
	if summary["aggregateIPC"].(float64) <= 0 {
		t.Errorf("aggregate IPC = %v, want > 0", summary["aggregateIPC"])
	}
	cores, ok := rep["cores"].([]any)
	if !ok || len(cores) != 2 {
		t.Fatalf("report cores = %v, want 2 scalar reports", rep["cores"])
	}
	for k, cr := range cores {
		stats := cr.(map[string]any)["stats"].(map[string]any)
		if stats["Retired"].(float64) == 0 {
			t.Errorf("core %d retired nothing", k)
		}
	}
}

func TestRunClusterBadMode(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"source": %q, "params": {"Cores": 2, "ClusterMode": "sideways"}}`, faultySource)
	status, doc := postJSON(t, ts, "/v1/run", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%v)", status, doc)
	}
}

func TestRunBadRequests(t *testing.T) {
	// Raw bodies on purpose: these pin the wire format (malformed JSON,
	// unknown fields) the typed client cannot produce.
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"malformed JSON", `{"source": `, api.CodeInvalidRequest},
		{"unknown field", `{"sauce": "halt"}`, api.CodeInvalidRequest},
		{"removed params field", fmt.Sprintf(`{"source": %q, "params": {"TraceCacheLineLen": 8}}`, haltingSource), api.CodeInvalidRequest},
		{"trailing data", fmt.Sprintf(`{"source": %q} junk`, haltingSource), api.CodeInvalidRequest},
		{"no program", `{}`, api.CodeInvalidRequest},
		{"source and words", fmt.Sprintf(`{"source": %q, "words": [1]}`, haltingSource), api.CodeInvalidRequest},
		{"unknown policy", fmt.Sprintf(`{"source": %q, "policy": "bogus"}`, haltingSource), api.CodeUnknownPolicy},
		{"negative timeout", fmt.Sprintf(`{"source": %q, "timeoutMs": -1}`, haltingSource), api.CodeInvalidRequest},
		{"negative cycles", fmt.Sprintf(`{"source": %q, "maxCycles": -1}`, haltingSource), api.CodeInvalidParams},
		{"bad params", fmt.Sprintf(`{"source": %q, "params": {"WindowSize": -3}}`, haltingSource), api.CodeInvalidParams},
		{"fault rate above 1", fmt.Sprintf(`{"source": %q, "params": {"FaultTransientRate": 1.5}}`, haltingSource), api.CodeInvalidParams},
		{"negative fault rate", fmt.Sprintf(`{"source": %q, "params": {"FaultPermanentRate": -0.1}}`, haltingSource), api.CodeInvalidParams},
		{"fault rates sum above 1", fmt.Sprintf(`{"source": %q, "params": {"FaultTransientRate": 0.6, "FaultPermanentRate": 0.6}}`, haltingSource), api.CodeInvalidParams},
		{"negative scrub interval", fmt.Sprintf(`{"source": %q, "params": {"FaultScrubInterval": -1}}`, haltingSource), api.CodeInvalidParams},
		{"fault rates without scrub interval", fmt.Sprintf(`{"source": %q, "params": {"FaultTransientRate": 0.002}}`, haltingSource), api.CodeInvalidParams},
		{"negative config bus width", fmt.Sprintf(`{"source": %q, "params": {"ConfigBusWidth": -2}}`, haltingSource), api.CodeInvalidParams},
		{"window above wake-up array", fmt.Sprintf(`{"source": %q, "params": {"WindowSize": 65}}`, haltingSource), api.CodeInvalidParams},
		{"predictor entries not a power of two", fmt.Sprintf(`{"source": %q, "params": {"PredictorEntries": 100}}`, haltingSource), api.CodeInvalidParams},
		{"trace cache lines not a power of two", fmt.Sprintf(`{"source": %q, "params": {"TraceCacheLines": 3}}`, haltingSource), api.CodeInvalidParams},
		{"memory above cap", fmt.Sprintf(`{"source": %q, "params": {"MemBytes": 1099511627776}}`, haltingSource), api.CodeInvalidParams},
		{"cache sets above cap", fmt.Sprintf(`{"source": %q, "params": {"CacheSets": 128}}`, haltingSource), api.CodeInvalidParams},
		{"predictor entries above cap", fmt.Sprintf(`{"source": %q, "params": {"PredictorEntries": 2048}}`, haltingSource), api.CodeInvalidParams},
		{"trace cache lines above cap", fmt.Sprintf(`{"source": %q, "params": {"TraceCacheLines": 128}}`, haltingSource), api.CodeInvalidParams},
		{"partial latency table", fmt.Sprintf(`{"source": %q, "params": {"Latencies": {"IntALU": 1}}}`, haltingSource), api.CodeInvalidParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, doc := postJSON(t, ts, "/v1/run", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", status, doc)
			}
			if code := errCode(t, doc); code != tc.wantCode {
				t.Errorf("code = %s, want %s", code, tc.wantCode)
			}
		})
	}
}

func TestEstimateHappyPath(t *testing.T) {
	_, ts, c := newTestServer(t, Config{})
	resp, err := c.Estimate(context.Background(), api.EstimateRequest{
		Source:  haltingSource,
		RunSpec: api.RunSpec{Policy: policy(t, "steering")},
	})
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if resp.Estimate.PredictedIPC <= 0 {
		t.Errorf("PredictedIPC = %v, want > 0", resp.Estimate.PredictedIPC)
	}
	if resp.Estimate.Instructions != 3 { // halt excluded
		t.Errorf("Instructions = %d, want 3", resp.Estimate.Instructions)
	}
	if resp.Estimate.Envelope == "" || resp.Estimate.ModelVersion == 0 || resp.Estimate.Bottleneck == "" {
		t.Errorf("incomplete estimate: %+v", resp.Estimate)
	}
	if resp.ElapsedUs < 0 {
		t.Errorf("ElapsedUs = %v, want >= 0", resp.ElapsedUs)
	}
	// Second request: same source comes from the program cache, and the
	// estimate metrics have landed.
	resp, err = c.Estimate(context.Background(), api.EstimateRequest{Source: haltingSource})
	if err != nil {
		t.Fatalf("estimate (cached): %v", err)
	}
	if !resp.Cached {
		t.Error("second estimate not served from the program cache")
	}
	body, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer body.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body.Body); err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := buf.String()
	for _, want := range []string{"rssd_estimate_total", "rssd_estimate_solve_us"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestEstimateBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"no program", `{}`, api.CodeInvalidRequest},
		{"unknown policy", fmt.Sprintf(`{"source": %q, "policy": "bogus"}`, haltingSource), api.CodeUnknownPolicy},
		{"bad params", fmt.Sprintf(`{"source": %q, "params": {"WindowSize": -3}}`, haltingSource), api.CodeInvalidParams},
		{"fault rates without scrub interval", fmt.Sprintf(`{"source": %q, "params": {"FaultTransientRate": 0.002}}`, haltingSource), api.CodeInvalidParams},
		{"window above wake-up array", fmt.Sprintf(`{"source": %q, "params": {"WindowSize": 65}}`, haltingSource), api.CodeInvalidParams},
		{"predictor entries not a power of two", fmt.Sprintf(`{"source": %q, "params": {"PredictorEntries": 100}}`, haltingSource), api.CodeInvalidParams},
		{"trace cache lines not a power of two", fmt.Sprintf(`{"source": %q, "params": {"TraceCacheLines": 3}}`, haltingSource), api.CodeInvalidParams},
		{"memory above cap", fmt.Sprintf(`{"source": %q, "params": {"MemBytes": 1099511627776}}`, haltingSource), api.CodeInvalidParams},
		{"cache sets above cap", fmt.Sprintf(`{"source": %q, "params": {"CacheSets": 128}}`, haltingSource), api.CodeInvalidParams},
		{"predictor entries above cap", fmt.Sprintf(`{"source": %q, "params": {"PredictorEntries": 2048}}`, haltingSource), api.CodeInvalidParams},
		{"trace cache lines above cap", fmt.Sprintf(`{"source": %q, "params": {"TraceCacheLines": 128}}`, haltingSource), api.CodeInvalidParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, doc := postJSON(t, ts, "/v1/estimate", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", status, doc)
			}
			if code := errCode(t, doc); code != tc.wantCode {
				t.Errorf("code = %s, want %s", code, tc.wantCode)
			}
		})
	}
}

// TestEstimateNeedsNoWorkerSlot pins the admission contract: estimates
// pass backlog admission but never wait for a worker slot, so the fast
// path stays available while every worker is busy simulating.
func TestEstimateNeedsNoWorkerSlot(t *testing.T) {
	s, _, c := newTestServer(t, Config{Workers: 1})
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatalf("occupying the only worker slot: %v", err)
	}
	defer s.pool.release()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Estimate(ctx, api.EstimateRequest{Source: haltingSource})
	if err != nil {
		t.Fatalf("estimate with all workers busy: %v", err)
	}
	if resp.Estimate.PredictedIPC <= 0 {
		t.Errorf("PredictedIPC = %v, want > 0", resp.Estimate.PredictedIPC)
	}
}

func TestRunPrefetchPolicy(t *testing.T) {
	_, ts, c := newTestServer(t, Config{})
	resp, err := c.Run(context.Background(), api.RunRequest{
		Source:  haltingSource,
		RunSpec: api.RunSpec{Policy: policy(t, "prefetch")},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := report(t, resp.Report)
	if rep["policy"] != "prefetch" {
		t.Errorf("report policy = %v, want prefetch", rep["policy"])
	}
	if _, ok := rep["prefetch"].(map[string]any); !ok {
		t.Errorf("report has no prefetch block: %v", rep)
	}

	// The run's prefetch accounting aggregates into the service metrics.
	text := metricsText(t, ts.URL)
	for _, name := range prefetchCounterNames {
		if !strings.Contains(text, fmt.Sprintf("rssd_prefetch_total{counter=%q}", name)) {
			t.Errorf("metrics missing rssd_prefetch_total counter %q\n%s", name, text)
		}
	}
}

// TestUnknownPolicyEnvelopeListsAll pins the error envelope to the
// canonical policy table: the 400 for a bogus policy name must
// enumerate every parseable policy, so the API surface and
// rsssim -list-policies can never drift apart.
func TestUnknownPolicyEnvelopeListsAll(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, doc := postJSON(t, ts, "/v1/run",
		fmt.Sprintf(`{"source": %q, "policy": "bogus"}`, haltingSource))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%v)", status, doc)
	}
	env := doc["error"].(map[string]any)
	msg, _ := env["message"].(string)
	for _, p := range repro.Policies() {
		if !strings.Contains(msg, p.String()) {
			t.Errorf("unknown-policy message does not list %q: %s", p, msg)
		}
	}
}

func TestRunBodyTooLarge(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := strings.Repeat("# padding line\n", 200) + haltingSource
	_, err := c.Run(context.Background(), api.RunRequest{Source: big})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", apiErr.Status, apiErr)
	}
	if apiErr.Code != api.CodeBodyTooLarge {
		t.Errorf("code = %s, want %s", apiErr.Code, api.CodeBodyTooLarge)
	}
}

func TestRunCycleLimit(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	_, err := c.Run(context.Background(), api.RunRequest{
		Source:  spinSource,
		RunSpec: api.RunSpec{MaxCycles: 1000},
	})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (%v)", apiErr.Status, apiErr)
	}
	if apiErr.Code != api.CodeCycleLimit {
		t.Errorf("code = %s, want %s", apiErr.Code, api.CodeCycleLimit)
	}
}

func TestRunDeadline(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	// A program that never halts, a cycle budget far beyond what 100ms
	// can simulate, and a short request deadline: the deadline wins.
	_, err := c.Run(context.Background(), api.RunRequest{
		Source:    spinSource,
		TimeoutMs: 100,
		RunSpec:   api.RunSpec{MaxCycles: 500_000_000},
	})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", apiErr.Status, apiErr)
	}
	if apiErr.Code != api.CodeDeadlineExceeded {
		t.Errorf("code = %s, want %s", apiErr.Code, api.CodeDeadlineExceeded)
	}
}

func TestHealthz(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 3})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Errorf("healthz = %+v, want ok/3 workers", h)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz before the drain = %+v, %v; want ok", h, err)
	}
	s.StartDrain()

	_, err := c.Health(ctx)
	if apiErr := apiError(t, err); apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeDraining {
		t.Errorf("healthz while draining: status %d code %s, want 503 %s", apiErr.Status, apiErr.Code, api.CodeDraining)
	}
	_, err = c.Run(ctx, api.RunRequest{Source: haltingSource})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("run while draining: status = %d, want 503 (%v)", apiErr.Status, apiErr)
	}
	if apiErr.Code != api.CodeDraining {
		t.Errorf("code = %s, want %s", apiErr.Code, api.CodeDraining)
	}
	_, err = c.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: []api.RunSpec{{}}})
	if apiErr := apiError(t, err); apiErr.Code != api.CodeDraining {
		t.Errorf("job submit while draining: code = %s, want %s", apiErr.Code, api.CodeDraining)
	}
}

// TestClientRetriesDraining pins the client's bounded 503 retry: a
// server that stops draining between attempts sees the retried request
// succeed without the caller noticing.
func TestClientRetriesDraining(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	s.StartDrain()
	c := client.New(ts.URL, client.WithRetry(5, time.Millisecond))
	go func() {
		// Un-drain shortly after the first rejection.
		time.Sleep(10 * time.Millisecond)
		s.draining.Store(false)
	}()
	if _, err := c.Run(context.Background(), api.RunRequest{Source: haltingSource}); err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	// One worker, one backlog slot: two endless jobs fill the queue, the
	// third is rejected immediately with 503/queue_full.
	_, _, c := newTestServer(t, Config{Workers: 1, Backlog: 1})
	req := api.RunRequest{
		Source:    spinSource,
		TimeoutMs: 30_000,
		RunSpec:   api.RunSpec{MaxCycles: 500_000_000},
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Run(ctx, req) //nolint:errcheck // cancelled below; outcome is irrelevant
		}()
	}
	defer func() { cancel(); wg.Wait() }()

	// Wait for both jobs to be admitted (one running, one queued).
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatalf("health: %v", err)
		}
		if h.Admitted >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never filled the queue: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := c.Run(context.Background(), req)
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%v)", apiErr.Status, apiErr)
	}
	if apiErr.Code != api.CodeQueueFull {
		t.Errorf("code = %s, want %s", apiErr.Code, api.CodeQueueFull)
	}
}

func TestMetrics(t *testing.T) {
	_, ts, c := newTestServer(t, Config{})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Run(ctx, api.RunRequest{Source: haltingSource}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		`rssd_requests_total{handler="run"} 2`,
		`rssd_job_duration_ms_count{kind="run"} 2`,
		`rssd_program_cache_hits_total 1`,
		`rssd_program_cache_misses_total 1`,
		`rssd_jobs_running 0`,
		`rssd_jobs_admitted 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestProgramCacheEviction(t *testing.T) {
	_, _, c := newTestServer(t, Config{CacheSize: 2})
	ctx := context.Background()
	srcs := []string{
		"li r1, 1\nhalt\n",
		"li r1, 2\nhalt\n",
		"li r1, 3\nhalt\n",
	}
	for _, src := range srcs {
		if _, err := c.Assemble(ctx, api.AssembleRequest{Source: src}); err != nil {
			t.Fatalf("assemble: %v", err)
		}
	}
	// The first source was evicted by the third; re-assembling it must
	// miss, while the third is still resident.
	if resp, err := c.Assemble(ctx, api.AssembleRequest{Source: srcs[0]}); err != nil || resp.Cached {
		t.Errorf("evicted program reported cached (err %v)", err)
	}
	if resp, err := c.Assemble(ctx, api.AssembleRequest{Source: srcs[2]}); err != nil || !resp.Cached {
		t.Errorf("resident program reported uncached (err %v)", err)
	}
}

func TestProgramCacheDisabled(t *testing.T) {
	c := newProgramCache(-1)
	c.put(sourceKey("halt\n"), nil)
	if _, ok := c.get(sourceKey("halt\n")); ok || c.len() != 0 {
		t.Errorf("disabled cache stored an entry (len %d)", c.len())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatalf("GET /v1/run: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
}
