// Package server is the rssd batch-simulation service: an HTTP/JSON API
// over the repro facade that assembles programs, runs single
// simulations, and fans parameter sweeps out as durable asynchronous
// jobs, run in-process over a bounded worker pool or sharded across a
// worker fleet by the internal/job coordinator. The package owns
// everything between the socket and the simulator — request validation
// and size limits, the structured error envelope (internal/api),
// per-request deadlines wired into Machine.RunContext, the
// assembled-program LRU, service metrics, and the draining flag the
// graceful-shutdown path sets — while cmd/rssd adds only flags, signal
// handling, worker spawning and the http.Server lifecycle.
//
// Endpoints:
//
//	POST   /v1/assemble        source → encoded words + disassembly
//	POST   /v1/run             source or words + RunSpec → run report
//	POST   /v1/jobs            submit a sweep as a durable asynchronous job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status (?results=1 adds per-point results)
//	GET    /v1/jobs/{id}/events  chunked-JSONL per-point results as they land
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/healthz         liveness + pool occupancy
//	GET    /metrics            Prometheus text exposition of service metrics
//	GET    /debug/flightrecorder   last-N request spans + deadline triggers
//	GET    /debug/pprof/       net/http/pprof (only with Config.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/queue"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Config sizes the service; zero fields take the listed defaults.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// Backlog bounds jobs waiting for a worker beyond the running ones;
	// past it new jobs get 503 (default 4×Workers).
	Backlog int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (default 2m).
	MaxTimeout time.Duration
	// DefaultMaxCycles is the cycle budget when a RunSpec names none
	// (default 50M).
	DefaultMaxCycles int
	// MaxCyclesCap clamps request cycle budgets (default 500M).
	MaxCyclesCap int
	// CacheSize is the loaded-program LRU capacity (default 64;
	// negative disables caching).
	CacheSize int
	// MaxJobPoints caps the grid size of one asynchronous job
	// (default 4096).
	MaxJobPoints int
	// MaxActiveJobs caps concurrently non-terminal jobs; past it new
	// submissions get 503 (default 64).
	MaxActiveJobs int
	// JobDir is the durable job-store directory; empty keeps jobs in
	// memory only (working fabric, not restart-safe).
	JobDir string
	// WorkerURLs names remote rssd workers the coordinator shards job
	// points over. Empty runs points in-process through the worker
	// pool. /v1/run and /v1/assemble always execute locally.
	WorkerURLs []string
	// WorkerSlots is the per-remote-worker point concurrency
	// (default 4).
	WorkerSlots int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. The pprof
	// endpoints bypass the request-counting and latency middleware —
	// profiling traffic must not pollute service metrics.
	EnablePprof bool
	// SpanFlightSize bounds the service span flight-recorder ring
	// served by GET /debug/flightrecorder (default 4096).
	SpanFlightSize int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Backlog <= 0 {
		c.Backlog = 4 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DefaultMaxCycles <= 0 {
		c.DefaultMaxCycles = repro.DefaultMaxCycles
	}
	if c.MaxCyclesCap <= 0 {
		c.MaxCyclesCap = 500_000_000
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.MaxJobPoints <= 0 {
		c.MaxJobPoints = 4096
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 64
	}
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = 4
	}
	return c
}

// Server is one service instance. Create it with New and mount
// Handler() on an http.Server.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *programCache
	mux      *http.ServeMux
	draining atomic.Bool
	coord    *job.Coordinator

	// Service metrics. The telemetry registry is single-goroutine by
	// design (it belongs to the simulator's hot path), so every access
	// here — updates through inc, observe and set from handler
	// goroutines, and Render on /metrics — holds mmu.
	mmu           sync.Mutex
	registry      *telemetry.Registry
	requests      map[string]*telemetry.Counter   // by handler
	failures      map[string]*telemetry.Counter   // by handler
	rejected      map[string]*telemetry.Counter   // by reason
	jobs          map[string]*telemetry.Histogram // latency ms by kind
	queueWait     map[string]*telemetry.Histogram // admission-to-slot µs by kind
	handlerDur    map[string]*telemetry.Histogram // handler wall µs by handler
	gaugeRun      *telemetry.Gauge
	gaugeQueued   *telemetry.Gauge
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	steerHits     *telemetry.Counter
	steerMisses   *telemetry.Counter
	prefetch      map[string]*telemetry.Counter // by prefetch counter name
	jobsSubmitted *telemetry.Counter
	jobsFinished  map[string]*telemetry.Counter // by terminal state
	jobPoints     map[string]*telemetry.Counter // by outcome
	pointsShared  *telemetry.Counter            // points answered by a twin's run
	gaugeJobsAct  *telemetry.Gauge
	gaugeJobQueue *telemetry.Gauge
	estimates     map[string]*telemetry.Counter // by predicted bottleneck
	estimateUs    *telemetry.Histogram          // model solve µs
	panics        *telemetry.Counter            // panics recovered in handlers and job points

	// spans is the service flight recorder: request lifecycle spans
	// (decode → queue-wait → execute → encode, one child per job point)
	// and deadline-exceeded triggers, served by GET /debug/flightrecorder.
	spans *span.ServiceRecorder
}

// prefetchCounterNames are the label values of rssd_prefetch_total —
// one per field of repro.PrefetchStats.
var prefetchCounterNames = []string{
	"spans_issued", "confirmed", "mispredicted", "cancelled",
	"wasted_spans", "phase_changes",
}

// routes is the service's one route table: each pattern, the handler
// label its metrics carry, and the handler. Every route takes the one
// request path in serve.
var routes = []struct {
	pattern, name string
	h             func(*Server, http.ResponseWriter, *http.Request) error
}{
	{"POST /v1/assemble", "assemble", (*Server).handleAssemble},
	{"POST /v1/run", "run", (*Server).handleRun},
	{"POST /v1/estimate", "estimate", (*Server).handleEstimate},
	{"GET /v1/healthz", "healthz", (*Server).handleHealthz},
	{"GET /metrics", "metrics", (*Server).handleMetrics},
	{"GET /debug/flightrecorder", "flightrecorder", (*Server).handleFlightRecorder},
	{"POST /v1/jobs", "jobs", (*Server).handleJobSubmit},
	{"GET /v1/jobs", "jobs_list", (*Server).handleJobList},
	{"GET /v1/jobs/{id}", "job", (*Server).handleJobGet},
	{"GET /v1/jobs/{id}/events", "job_events", (*Server).handleJobEvents},
	{"DELETE /v1/jobs/{id}", "job_cancel", (*Server).handleJobCancel},
}

// jobKindNames label the simulation-latency and queue-wait histograms.
var jobKindNames = []string{"run", "job_point"}

// pointOutcomeNames label rssd_job_points_total.
var pointOutcomeNames = []string{"done", "failed", "requeued"}

// New builds a server from the config: metrics, the bounded pool, the
// job store (opened from cfg.JobDir, resuming any incomplete jobs) and
// the coordinator over the configured worker set.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	handlers := make([]string, len(routes))
	for i, rt := range routes {
		handlers[i] = rt.name
	}
	msBounds := []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
	// Queue waits and handler latencies are often sub-millisecond, so
	// those histograms bucket in microseconds.
	usBounds := []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
		50000, 100000, 250000, 500000, 1000000, 5000000, 30000000}
	reg := telemetry.NewRegistry()
	// Each family is one registration; struct fields evaluate in source
	// order, which is the order /metrics lists the families in.
	s := &Server{
		cfg:      cfg,
		pool:     newPool(cfg.Workers, cfg.Backlog),
		cache:    newProgramCache(cfg.CacheSize),
		mux:      http.NewServeMux(),
		spans:    span.NewService(cfg.SpanFlightSize),
		registry: reg,
		requests: reg.NewCounters("rssd_requests_total",
			"HTTP requests received, by handler.", "handler", handlers...),
		failures: reg.NewCounters("rssd_failures_total",
			"Requests answered with a non-2xx status, by handler.", "handler", handlers...),
		rejected: reg.NewCounters("rssd_rejected_total",
			"Jobs rejected at admission, by reason.", "reason", api.CodeQueueFull, api.CodeDraining),
		jobs: reg.NewHistograms("rssd_job_duration_ms",
			"Simulation wall-clock latency in milliseconds, by job kind.", msBounds, "kind", jobKindNames...),
		queueWait: reg.NewHistograms("rssd_queue_wait_us",
			"Admission-to-worker-slot wait in microseconds, by job kind.", usBounds, "kind", jobKindNames...),
		handlerDur: reg.NewHistograms("rssd_handler_duration_us",
			"Handler wall-clock latency in microseconds, by handler.", usBounds, "handler", handlers...),
		gaugeRun: reg.NewGauge("rssd_jobs_running",
			"Simulations currently holding a worker slot."),
		gaugeQueued: reg.NewGauge("rssd_jobs_admitted",
			"Jobs admitted and not yet finished (running plus waiting)."),
		cacheHits: reg.NewCounter("rssd_program_cache_hits_total",
			"Program loads (source or words) served from the program cache."),
		cacheMisses: reg.NewCounter("rssd_program_cache_misses_total",
			"Program loads that had to assemble the source or decode the words."),
		steerHits: reg.NewCounter("rssd_steering_cache_hits_total",
			"Steering-cache hits aggregated over simulations run by this server."),
		steerMisses: reg.NewCounter("rssd_steering_cache_misses_total",
			"Steering-cache misses aggregated over simulations run by this server."),
		prefetch: reg.NewCounters("rssd_prefetch_total",
			"Speculative-prefetch accounting aggregated over prefetch-policy simulations, by counter.",
			"counter", prefetchCounterNames...),
		estimates: reg.NewCounters("rssd_estimate_total",
			"Analytic estimates served, by the model's predicted bottleneck.", "bottleneck", queue.Bottlenecks()...),
		estimateUs: reg.NewHistogram("rssd_estimate_solve_us",
			"Analytic model solve time in microseconds (profile plus fixed point, excluding assembly).", usBounds),
		jobsSubmitted: reg.NewCounter("rssd_sweep_jobs_submitted_total",
			"Sweep jobs accepted by the coordinator through POST /v1/jobs."),
		jobsFinished: reg.NewCounters("rssd_sweep_jobs_finished_total",
			"Sweep jobs reaching a terminal state, by state.", "state", api.TerminalStates()...),
		jobPoints: reg.NewCounters("rssd_job_points_total",
			"Grid points scheduled by the coordinator, by outcome (requeued counts re-dispatches after worker failures).",
			"outcome", pointOutcomeNames...),
		pointsShared: reg.NewCounter("rssd_job_points_shared_total",
			"Grid points answered by another point's simulation: a job runs each distinct canonical spec once."),
		gaugeJobsAct: reg.NewGauge("rssd_sweep_jobs_active",
			"Jobs in a non-terminal state."),
		gaugeJobQueue: reg.NewGauge("rssd_job_queue_depth",
			"Grid points waiting for an executor slot."),
		panics: reg.NewCounter("rssd_panics_total",
			"Panics recovered: in a handler (answered 500 internal) or in a job point (an internal point result)."),
	}
	// Every route is mounted through serve, under its metric labels.
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, s.serve(rt.name, rt.h))
	}

	// The sweep fabric: the durable store plus the coordinator over the
	// configured worker set. No worker URLs means points execute
	// in-process through the same bounded pool /v1/run uses.
	store, err := job.Open(cfg.JobDir)
	if err != nil {
		return nil, err
	}
	var execs []job.Executor
	if len(cfg.WorkerURLs) > 0 {
		for i, u := range cfg.WorkerURLs {
			execs = append(execs, job.NewHTTPExecutor(fmt.Sprintf("worker-%d", i+1), u, cfg.WorkerSlots))
		}
	} else {
		execs = append(execs, &localExecutor{s: s})
	}
	s.coord = job.NewCoordinator(store, execs, job.Config{Observer: &coordObserver{s: s}})
	s.coord.Resume()

	if cfg.EnablePprof {
		// Deliberately mounted raw: profiling traffic bypasses serve's
		// request counting and latency instrumentation.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Spans exposes the service span flight recorder, for the drain path
// in cmd/rssd to dump before exit.
func (s *Server) Spans() *span.ServiceRecorder { return s.spans }

// Coordinator exposes the sweep-fabric coordinator (cmd/rssd logs
// resume counts; tests drive crash-resume through it).
func (s *Server) Coordinator() *job.Coordinator { return s.coord }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips the server into draining mode: job endpoints answer
// 503 from now on while in-flight requests finish undisturbed. Call it
// right before http.Server.Shutdown, which handles the actual waiting.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close stops the sweep fabric: the coordinator cancels in-flight
// points (they stay pending in the store for the next boot's resume)
// and the store releases its file handles. Call it after the HTTP
// server has shut down.
func (s *Server) Close() error {
	s.coord.Close()
	return s.coord.Store().Close()
}

// --- metric updates ---

// inc, observe and set are the one update path of the service metrics:
// each holds mmu, and each skips a nil series — the lookup of a label
// value its family does not register.

func (s *Server) inc(c *telemetry.Counter, n uint64) {
	if c != nil {
		s.mmu.Lock()
		c.Add(n)
		s.mmu.Unlock()
	}
}

func (s *Server) observe(h *telemetry.Histogram, v int64) {
	if h != nil {
		s.mmu.Lock()
		h.Observe(v)
		s.mmu.Unlock()
	}
}

func (s *Server) set(g *telemetry.Gauge, v int64) {
	if g != nil {
		s.mmu.Lock()
		g.Set(v)
		s.mmu.Unlock()
	}
}

// --- request plumbing ---

// writeJSON writes a 2xx JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to tell the client
}

// serve is the one request path every route takes: it counts the
// request and times it under the route's handler label, answers an
// error the handler returns through fail, and turns a panic into a 500
// internal envelope counted in rssd_panics_total, so a simulator panic
// costs one request, never the process or the connection.
func (s *Server) serve(name string, h func(*Server, http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inc(s.requests[name], 1)
		defer func() {
			if v := recover(); v != nil {
				s.inc(s.panics, 1)
				s.fail(w, name, fmt.Errorf("%s handler panicked: %v", name, v))
			}
			s.observe(s.handlerDur[name], time.Since(start).Microseconds())
		}()
		if err := h(s, w, r); err != nil {
			s.fail(w, name, err)
		}
	}
}

// fail classifies err, counts it, and writes the error envelope.
func (s *Server) fail(w http.ResponseWriter, handler string, err error) {
	status, apiErr := api.Classify(err)
	s.inc(s.failures[handler], 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(api.Envelope{Error: apiErr}) //nolint:errcheck
}

// timeout resolves the deadline a request field asks for: 0 takes the
// server default, and any deadline is capped at the server maximum.
func (s *Server) timeout(field string, ms int) (time.Duration, error) {
	if ms < 0 {
		return 0, api.InvalidRequestf("%s must be non-negative, got %d", field, ms)
	}
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// loadedProgram is a program ready to run: a unit shared via the
// program cache. Binary words load as a unit with no data segments.
type loadedProgram struct {
	unit   *repro.Unit
	cached bool
}

// load resolves the request's program through the cache: source is
// assembled, words are decoded, each at most once per cache residency.
func (s *Server) load(source string, words []uint32) (loadedProgram, error) {
	switch {
	case source != "" && len(words) > 0:
		return loadedProgram{}, api.InvalidRequestf("source and words are mutually exclusive")
	case source != "":
		return s.loadCached(sourceKey(source), func() (*repro.Unit, error) {
			return repro.AssembleUnit(source)
		})
	case len(words) > 0:
		return s.loadCached(wordsKey(words), func() (*repro.Unit, error) {
			prog, err := repro.DecodeProgram(words)
			if err != nil {
				return nil, api.InvalidRequestf("decoding words: %v", err)
			}
			return &repro.Unit{Program: prog}, nil
		})
	default:
		return loadedProgram{}, api.InvalidRequestf("one of source or words is required")
	}
}

// loadCached returns the cached unit for key, or builds and caches it.
func (s *Server) loadCached(key programKey, build func() (*repro.Unit, error)) (loadedProgram, error) {
	if unit, ok := s.cache.get(key); ok {
		s.inc(s.cacheHits, 1)
		return loadedProgram{unit: unit, cached: true}, nil
	}
	unit, err := build()
	if err != nil {
		return loadedProgram{}, err
	}
	s.inc(s.cacheMisses, 1)
	s.cache.put(key, unit)
	return loadedProgram{unit: unit}, nil
}

// resolveSpec validates a RunSpec and fills budget defaults in place.
func (s *Server) resolveSpec(spec *api.RunSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	switch {
	case spec.MaxCycles == 0:
		spec.MaxCycles = s.cfg.DefaultMaxCycles
	case spec.MaxCycles > s.cfg.MaxCyclesCap:
		spec.MaxCycles = s.cfg.MaxCyclesCap
	}
	return nil
}

// runPoint runs one point — a /v1/run request (point -1) or a job
// point — on a worker slot: it waits for the slot under ctx, records
// the wait since queued, simulates and renders the report (scalar for
// one core, the cluster report for several). Units are read-only at
// run time, so concurrent points share them; each core gets its own
// memory image. A deadline expiring in either wait fires the flight
// recorder's deadline trigger.
func (s *Server) runPoint(ctx context.Context, lp loadedProgram, spec api.RunSpec, kind string, req uint64, point int, queued time.Time) (json.RawMessage, float64, error) {
	if err := s.pool.acquire(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.spans.TriggerDeadline(req, kind, point, queued, time.Now())
		}
		return nil, 0, err
	}
	defer s.pool.release()
	acquired := time.Now()
	s.observe(s.queueWait[kind], acquired.Sub(queued).Microseconds())
	s.spans.Record(req, "queue-wait", kind, point, queued, acquired)
	c := cluster.New(lp.unit.Program, spec)
	for k := 0; k < c.Cores(); k++ {
		lp.unit.Apply(c.Core(k).Processor().Memory())
	}
	start := time.Now()
	_, err := c.RunContext(ctx, spec.MaxCycles)
	elapsed := time.Since(start)
	s.observe(s.jobs[kind], elapsed.Milliseconds())
	name := "execute"
	if point >= 0 {
		name = "point"
	}
	s.spans.Record(req, name, kind, point, start, start.Add(elapsed))
	if errors.Is(err, context.DeadlineExceeded) {
		s.spans.TriggerDeadline(req, kind, point, start, start.Add(elapsed))
	}
	for k := 0; k < c.Cores(); k++ {
		s.accountMachine(c.Core(k).Report())
	}
	elapsedMs := float64(elapsed) / float64(time.Millisecond)
	if err != nil {
		return nil, elapsedMs, err
	}
	report, err := c.ReportJSON()
	if err != nil {
		return nil, elapsedMs, fmt.Errorf("rendering report: %w", err)
	}
	return report, elapsedMs, nil
}

// accountMachine lands one finished core's steering-cache and prefetch
// counters on the service metrics.
func (s *Server) accountMachine(r repro.RunReport) {
	if !r.Steering {
		return
	}
	s.inc(s.steerHits, uint64(r.SteeringCacheHits))
	s.inc(s.steerMisses, uint64(r.SteeringCacheMisses))
	if ps := r.Prefetch; ps != nil {
		s.inc(s.prefetch["spans_issued"], uint64(ps.Issued))
		s.inc(s.prefetch["confirmed"], uint64(ps.Confirmed))
		s.inc(s.prefetch["mispredicted"], uint64(ps.Mispredicted))
		s.inc(s.prefetch["cancelled"], uint64(ps.Cancelled))
		s.inc(s.prefetch["wasted_spans"], uint64(ps.WastedSpans))
		s.inc(s.prefetch["phase_changes"], uint64(ps.PhaseChanges))
	}
}

// admitJob performs queue admission for a synchronous job endpoint:
// draining check first, then a non-blocking backlog reservation. The
// returned release func is non-nil exactly when err is nil.
func (s *Server) admitJob() (func(), error) {
	if s.draining.Load() {
		s.inc(s.rejected[api.CodeDraining], 1)
		return nil, api.ErrDraining
	}
	if !s.pool.admit() {
		s.inc(s.rejected[api.CodeQueueFull], 1)
		return nil, api.ErrQueueFull
	}
	return s.pool.leave, nil
}

// --- handlers ---

func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) error {
	var req api.AssembleRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if req.Source == "" {
		return api.InvalidRequestf("source is required")
	}
	lp, err := s.load(req.Source, nil)
	if err != nil {
		return err
	}
	words, err := repro.EncodeProgram(lp.unit.Program)
	if err != nil {
		return fmt.Errorf("encoding program: %w", err)
	}
	writeJSON(w, http.StatusOK, api.AssembleResponse{
		Instructions: len(lp.unit.Program),
		Words:        words,
		Disassembly:  repro.Disassemble(lp.unit.Program),
		Cached:       lp.cached,
	})
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	reqID := s.spans.NextRequest()
	decodeStart := time.Now()
	var req api.RunRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	s.spans.Record(reqID, "decode", "run", -1, decodeStart, time.Now())
	d, err := s.timeout("timeoutMs", req.TimeoutMs)
	if err != nil {
		return err
	}
	lp, err := s.load(req.Source, req.Words)
	if err != nil {
		return err
	}
	spec := req.RunSpec
	if err := s.resolveSpec(&spec); err != nil {
		return err
	}
	leave, err := s.admitJob()
	if err != nil {
		return err
	}
	defer leave()

	admitted := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	report, elapsedMs, err := s.runPoint(ctx, lp, spec, "run", reqID, -1, admitted)
	if err != nil {
		return err
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, api.RunResponse{Report: report, ElapsedMs: elapsedMs, Cached: lp.cached})
	s.spans.Record(reqID, "encode", "run", -1, encodeStart, time.Now())
	return nil
}

// handleEstimate answers POST /v1/estimate from the analytic queueing
// model instead of the simulator. A solve costs microseconds, so the
// handler passes admission control (draining and backlog checks apply
// as everywhere) but never takes a worker slot — estimates stay cheap
// and available while every worker is busy simulating.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) error {
	var req api.EstimateRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	lp, err := s.load(req.Source, req.Words)
	if err != nil {
		return err
	}
	spec := req.RunSpec
	if err := s.resolveSpec(&spec); err != nil {
		return err
	}
	leave, err := s.admitJob()
	if err != nil {
		return err
	}
	defer leave()

	start := time.Now()
	est, err := repro.EstimateIPC(lp.unit.Program, spec)
	solve := time.Since(start)
	if err != nil {
		return err
	}
	s.inc(s.estimates[est.Bottleneck], 1)
	s.observe(s.estimateUs, solve.Microseconds())
	writeJSON(w, http.StatusOK, api.EstimateResponse{
		Estimate:  est,
		ElapsedUs: float64(solve) / float64(time.Microsecond),
		Cached:    lp.cached,
	})
	return nil
}

// handleHealthz answers the health body; while draining it is a 503,
// counted as a failure here because its body is not an error envelope.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
		s.inc(s.failures["healthz"], 1)
	}
	writeJSON(w, code, api.HealthResponse{
		Status:   status,
		Workers:  s.pool.workers(),
		Running:  s.pool.running(),
		Admitted: s.pool.admitted(),
	})
	return nil
}

// handleFlightRecorder serves the service-span flight ring as JSON: the
// last N request lifecycle spans (decode, queue-wait, execute, encode,
// job points) plus deadline-trigger counters. It reads a snapshot under the
// recorder's own lock, so it is safe to hit while requests are in flight.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/json")
	s.spans.WriteJSON(w) //nolint:errcheck // client went away; nothing to do
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	s.set(s.gaugeRun, int64(s.pool.running()))
	s.set(s.gaugeQueued, int64(s.pool.admitted()))
	s.set(s.gaugeJobsAct, int64(s.coord.Active()))
	s.mmu.Lock()
	defer s.mmu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.registry.Render(w) //nolint:errcheck // client went away; nothing to do
	return nil
}
