package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/api"
)

// The sweep grid is rssbench's default: five policies × reconfiguration
// latencies 4/8/16 × four seeds, 60 points. Seeds feed only the random
// policy, so the four replicas of a cell are lane-compatible and rssd
// batches them onto one wide machine.
var (
	sweepPolicies  = []repro.Policy{repro.PolicySteering, repro.PolicyDemand, repro.PolicyPrefetch, repro.PolicyFullReconfig, repro.PolicyNone}
	sweepLatencies = []int{4, 8, 16}
)

const sweepSeeds = 4

// sweepJob is one grid over one program, ready to submit.
type sweepJob struct {
	points []simCase // by point index
	body   []byte
}

func newSweepJob(p *program) *sweepJob {
	j := &sweepJob{}
	var specs []api.RunSpec
	for _, pol := range sweepPolicies {
		for _, lat := range sweepLatencies {
			for seed := int64(1); seed <= sweepSeeds; seed++ {
				spec := api.RunSpec{Policy: pol, Params: repro.Params{ReconfigLatency: lat}, Seed: seed}
				specs = append(specs, spec)
				j.points = append(j.points, newCase(p, spec))
			}
		}
	}
	j.body = mustJSON(api.JobRequest{Words: p.words, Points: specs, Label: "bench"})
	return j
}

// distinct lists the job's cases once each.
func (j *sweepJob) distinct() []simCase {
	seen := map[string]bool{}
	var cs []simCase
	for _, c := range j.points {
		if !seen[c.key] {
			seen[c.key] = true
			cs = append(cs, c)
		}
	}
	return cs
}

// check checks one point result and returns its simulated cycles.
func (j *sweepJob) check(chk *checker, pr *api.PointResult) (int, error) {
	if pr.Index < 0 || pr.Index >= len(j.points) {
		return 0, fmt.Errorf("point index %d outside a %d-point job", pr.Index, len(j.points))
	}
	c := j.points[pr.Index]
	if pr.Error != nil {
		return 0, fmt.Errorf("%s: %s: %s", c.key, pr.Error.Code, pr.Error.Message)
	}
	return chk.report(c, pr.Report)
}

// runJob submits j and follows it over the events stream to its end,
// passing every point's checked outcome to onPoint. It returns the job
// ID (empty when submission failed) and how the job ended.
func (s *service) runJob(ctx context.Context, chk *checker, j *sweepJob, onPoint func(cycles int, err error)) (string, error) {
	var created api.JobCreated
	if err := s.call(ctx, http.MethodPost, "/v1/jobs", j.body, &created); err != nil {
		return "", err
	}
	state, err := s.follow(ctx, created.ID, func(pr *api.PointResult) { onPoint(j.check(chk, pr)) })
	if err == nil && state != api.JobDone {
		err = fmt.Errorf("job %s ended %s", created.ID, state)
	}
	return created.ID, err
}

// sweepJobs submits 60-point jobs one after another, each over one of
// four 60k-instruction programs, and follows each to done. The
// operation is a point; its latency runs from the job's submission to
// the point's line on the events stream.
type sweepJobs struct {
	svc  *service
	jobs []*sweepJob
	warm simCase
	chk  *checker
}

func buildSweepJobs(cfg config) (workload, error) {
	hist, err := sourceProgram(cfg.root, "histogram.s")
	if err != nil {
		return nil, err
	}
	w := &sweepJobs{warm: newCase(hist, api.RunSpec{Policy: repro.PolicySteering})}
	for i := range 4 {
		p, err := synthProgram(fmt.Sprintf("job-%d", i), scaled(60_000, cfg.scale), cfg.seed)
		if err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, newSweepJob(p))
	}
	return w, nil
}

func (w *sweepJobs) cases() []simCase {
	cs := []simCase{w.warm}
	for _, j := range w.jobs {
		cs = append(cs, j.distinct()...)
	}
	return cs
}

func (w *sweepJobs) start(chk *checker) (err error) {
	w.chk = chk
	w.svc, err = startServiceWarm(chk, w.warm, w.warm.prog.runRequest(w.warm.spec))
	return err
}

func (w *sweepJobs) run(m *meter, _ *tracer) {
	for i := 0; m.more(); i++ {
		j := w.jobs[i%len(w.jobs)]
		submitted := time.Now()
		received := 0
		_, err := w.svc.runJob(context.Background(), w.chk, j, func(cycles int, err error) {
			received++
			m.op("point", time.Since(submitted), cycles, err)
		})
		if err == nil && received != len(j.points) {
			err = fmt.Errorf("job streamed %d of %d points", received, len(j.points))
		}
		if err != nil {
			m.fail(len(j.points)-received, err)
			continue
		}
		m.latency("job", time.Since(submitted))
	}
}

func (w *sweepJobs) replay(tr *tracer) error {
	for _, j := range w.jobs {
		if err := replayJobPoint(tr, j.body); err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepJobs) serverLayers(since time.Time) serverInfo { return w.svc.info(since) }

func (w *sweepJobs) close() {
	if w.svc != nil {
		w.svc.close()
	}
}

// mixedInteractive keeps one background job (the sweep grid over a
// 4k-instruction program) active at all times while one closed-loop
// client sends interactive requests: three POST /v1/estimate on a
// 2k-instruction program, then one POST /v1/run of histogram.s, and
// again. With runs a quarter of the requests, the operation's median
// reads estimate latency and its p90 reads run latency behind the
// background batches, and neither sits on the boundary between the two.
// The background points are short (4k instructions, a few milliseconds
// each) so worker slots turn over often: with 20k-instruction points,
// interactive waits were set by the Go scheduler's 10 ms preemption
// quantum, and their percentiles jumped between multiples of it from
// run to run.
type mixedInteractive struct {
	svc     *service
	bg      *sweepJob
	est     simCase
	estWant float64
	estBody []byte
	hist    simCase
	runBody []byte
	chk     *checker
}

func buildMixed(cfg config) (workload, error) {
	bg, err := synthProgram("bg-4k", scaled(4_000, cfg.scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	estProg, err := synthProgram("est-2k", scaled(2_000, cfg.scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	hist, err := sourceProgram(cfg.root, "histogram.s")
	if err != nil {
		return nil, err
	}
	spec := api.RunSpec{Policy: repro.PolicySteering}
	want, err := repro.EstimateIPC(estProg.prog, repro.Options{Policy: spec.Policy})
	if err != nil {
		return nil, fmt.Errorf("estimating %s in process: %w", estProg.name, err)
	}
	return &mixedInteractive{
		bg:      newSweepJob(bg),
		est:     estimateCase(estProg, spec),
		estWant: want.PredictedIPC,
		estBody: mustJSON(api.EstimateRequest{Words: estProg.words, RunSpec: spec}),
		hist:    newCase(hist, spec),
		runBody: hist.runRequest(spec),
	}, nil
}

func (w *mixedInteractive) cases() []simCase {
	return append(w.bg.distinct(), w.est, w.hist)
}

func (w *mixedInteractive) start(chk *checker) (err error) {
	w.chk = chk
	w.svc, err = startServiceWarm(chk, w.hist, w.runBody)
	return err
}

func (w *mixedInteractive) run(m *meter, _ *tracer) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.background(ctx, m)
	}()
	for i := 0; m.more(); i++ {
		if i%4 == 3 {
			lat, cycles, err := w.svc.run(w.chk, w.hist, w.runBody)
			m.op("run", lat, cycles, err)
			continue
		}
		start := time.Now()
		var resp api.EstimateResponse
		err := w.svc.call(context.Background(), http.MethodPost, "/v1/estimate", w.estBody, &resp)
		lat := time.Since(start)
		if err == nil {
			err = w.chk.estimate(w.est, resp.Estimate.PredictedIPC, w.estWant)
			m.sample("estimate_solve_us", resp.ElapsedUs)
		}
		m.op("estimate", lat, 0, err)
	}
	cancel()
	wg.Wait()
}

// background resubmits the background job whenever it finishes, until
// ctx ends, and then cancels the job still running.
func (w *mixedInteractive) background(ctx context.Context, m *meter) {
	for ctx.Err() == nil {
		id, err := w.svc.runJob(ctx, w.chk, w.bg, func(cycles int, err error) { m.work("bg_points", cycles, err) })
		if ctx.Err() != nil {
			if id != "" {
				if err := w.svc.call(context.Background(), http.MethodDelete, "/v1/jobs/"+id, nil, nil); err != nil {
					m.fail(1, fmt.Errorf("cancelling the background job: %w", err))
				}
			}
			return
		}
		if err != nil {
			m.fail(1, fmt.Errorf("background job: %w", err))
			return
		}
	}
}

func (w *mixedInteractive) replay(tr *tracer) error {
	for range replayReps {
		if err := replayEstimate(tr, w.estBody); err != nil {
			return err
		}
	}
	if err := replayRun(tr, w.runBody); err != nil {
		return err
	}
	return replayJobPoint(tr, w.bg.body)
}

func (w *mixedInteractive) serverLayers(since time.Time) serverInfo { return w.svc.info(since) }

func (w *mixedInteractive) close() {
	if w.svc != nil {
		w.svc.close()
	}
}

// startServiceWarm starts rssd and sends the set-up's one warm-up
// request: a checked /v1/run of case c.
func startServiceWarm(chk *checker, c simCase, body []byte) (*service, error) {
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	if _, _, err := svc.run(chk, c, body); err != nil {
		svc.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return svc, nil
}
