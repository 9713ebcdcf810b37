package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/span"
)

// service is rssd in the benchmark's process: the handler stack
// cmd/rssd mounts, with the default config (GOMAXPROCS workers, 8 batch
// lanes, in-memory job store), behind a loopback listener. The client
// keeps at most two connections, one per client goroutine.
type service struct {
	srv   *server.Server
	ts    *httptest.Server
	hc    *http.Client
	epoch time.Time // when the server's span recorder started, to window its spans
}

func startService() (*service, error) {
	epoch := time.Now()
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, fmt.Errorf("starting rssd: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return &service{srv: srv, ts: ts, hc: hc, epoch: epoch}, nil
}

func (s *service) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close() //nolint:errcheck // the in-memory store has nothing to flush
}

// call sends one request and decodes a 2xx JSON reply into out; any
// other status is an error carrying the reply's error envelope.
func (s *service) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// follow streams a job's events until its terminal state, calling
// onPoint for every point result, and returns the terminal state.
func (s *service) follow(ctx context.Context, id string, onPoint func(*api.PointResult)) (api.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev api.JobEvent
		if err := dec.Decode(&ev); err != nil {
			return "", fmt.Errorf("events of %s: %w", id, err)
		}
		switch {
		case ev.Type == api.EventPoint && ev.Point != nil:
			onPoint(ev.Point)
		case ev.Type == api.EventState && ev.State.Terminal():
			return ev.State, nil
		}
	}
}

// run sends one POST /v1/run of case c and checks its report. It
// returns the request's latency and the cycles simulated.
func (s *service) run(chk *checker, c simCase, body []byte) (time.Duration, int, error) {
	start := time.Now()
	var resp api.RunResponse
	err := s.call(context.Background(), http.MethodPost, "/v1/run", body, &resp)
	lat := time.Since(start)
	if err != nil {
		return lat, 0, err
	}
	cycles, err := chk.report(c, resp.Report)
	return lat, cycles, err
}

// serverInfo is what rssd itself reports about a traced window: the
// flight recorder's request spans that started inside it, and the
// /metrics exposition at its end.
type serverInfo struct {
	spans   []span.ServiceSpan
	metrics string
}

func (s *service) info(since time.Time) serverInfo {
	var dump struct {
		Spans []span.ServiceSpan `json:"spans"`
	}
	var info serverInfo
	if err := s.call(context.Background(), http.MethodGet, "/debug/flightrecorder", nil, &dump); err == nil {
		from := since.Sub(s.epoch).Microseconds()
		for _, sp := range dump.Spans {
			if sp.StartUs >= from {
				info.spans = append(info.spans, sp)
			}
		}
	}
	resp, err := s.hc.Get(s.ts.URL + "/metrics")
	if err == nil {
		data, _ := io.ReadAll(resp.Body) // a short read only shortens the detail lines
		resp.Body.Close()
		info.metrics = string(data)
	}
	return info
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the api request types always marshal
	}
	return data
}

// runRequest is the /v1/run body for program p: assembly source when
// the program has one, binary words otherwise.
func (p *program) runRequest(spec api.RunSpec) []byte {
	return mustJSON(api.RunRequest{Source: p.source, Words: p.wordsIfBinary(), RunSpec: spec})
}

func (p *program) wordsIfBinary() []uint32 {
	if p.source != "" {
		return nil
	}
	return p.words
}

// serveShort is short POST /v1/run traffic from two closed-loop
// clients, in equal thirds: histogram.s and polynomial.s as source (hits
// in rssd's program cache after the first request) and a 2k-instruction
// synthetic program as binary words.
type serveShort struct {
	svc    *service
	cs     []simCase
	bodies [][]byte
	chk    *checker
}

func buildServeShort(cfg config) (workload, error) {
	hist, err := sourceProgram(cfg.root, "histogram.s")
	if err != nil {
		return nil, err
	}
	poly, err := sourceProgram(cfg.root, "polynomial.s")
	if err != nil {
		return nil, err
	}
	syn, err := synthProgram("synth-2k", scaled(2_000, cfg.scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &serveShort{}
	for _, p := range []*program{hist, poly, syn} {
		c := newCase(p, api.RunSpec{Policy: repro.PolicySteering})
		w.cs = append(w.cs, c)
		w.bodies = append(w.bodies, p.runRequest(c.spec))
	}
	return w, nil
}

func (w *serveShort) cases() []simCase { return w.cs }

func (w *serveShort) start(chk *checker) (err error) {
	w.chk = chk
	w.svc, err = startServiceWarm(chk, w.cs[0], w.bodies[0])
	return err
}

func (w *serveShort) run(m *meter, _ *tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m.more() {
				k := int(next.Add(1)-1) % len(w.cs)
				lat, cycles, err := w.svc.run(w.chk, w.cs[k], w.bodies[k])
				m.op("run", lat, cycles, err)
			}
		}()
	}
	wg.Wait()
}

func (w *serveShort) replay(tr *tracer) error {
	for range replayReps {
		for _, body := range w.bodies {
			if err := replayRun(tr, body); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serveShort) serverLayers(since time.Time) serverInfo { return w.svc.info(since) }

func (w *serveShort) close() {
	if w.svc != nil {
		w.svc.close()
	}
}

// replayReps is how often a traced run replays each short request.
const replayReps = 20
