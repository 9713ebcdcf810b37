package job

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/api"
)

// testSpec builds an n-point spec of distinct points (policy left
// zero: the job layer only schedules specs). The points differ in
// MaxCycles, a field their Canonical form keeps, so each one runs.
func testSpec(n int) Spec {
	spec := Spec{Kind: "job", Program: api.Program{Source: "halt\n"}}
	for i := 0; i < n; i++ {
		spec.Points = append(spec.Points, api.RunSpec{MaxCycles: i})
	}
	return spec
}

// fakeExec is a scriptable executor: exec runs each point, health (when
// set) serves Ping.
type fakeExec struct {
	name   string
	slots  int
	exec   func(ctx context.Context, p ExecPoint) (*api.PointResult, error)
	health func(ctx context.Context) error
}

func (f *fakeExec) Name() string { return f.name }
func (f *fakeExec) Slots() int   { return f.slots }
func (f *fakeExec) Execute(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
	return f.exec(ctx, p)
}
func (f *fakeExec) Ping(ctx context.Context) error {
	if f.health == nil {
		return nil
	}
	return f.health(ctx)
}

// okResult fabricates a deterministic result for a point: the report
// depends only on the spec, like the real deterministic simulator.
func okResult(p ExecPoint) *api.PointResult {
	return &api.PointResult{
		Index:  p.Index,
		Report: []byte(fmt.Sprintf(`{"maxCycles":%d}`, p.Spec.MaxCycles)),
	}
}

// waitState polls until j reaches state or the deadline passes.
func waitState(t *testing.T, j *Job, state api.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != state {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestCoordinatorCompletesJob(t *testing.T) {
	st := openStore(t, "")
	exec := &fakeExec{name: "w1", slots: 2, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{exec}, Config{})
	defer c.Close()

	j, err := c.Submit(testSpec(5), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, api.JobDone)
	results := j.Status(true).Points
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Worker != "w1" || r.Attempts != 1 {
			t.Errorf("result %d = %+v, want index %d worker w1 attempts 1", i, r, i)
		}
		if want := fmt.Sprintf(`{"maxCycles":%d}`, i); string(r.Report) != want {
			t.Errorf("result %d report = %s, want %s", i, r.Report, want)
		}
	}
}

func TestCoordinatorShardsAcrossExecutors(t *testing.T) {
	st := openStore(t, "")
	var mu sync.Mutex
	byWorker := map[string]int{}
	mk := func(name string) *fakeExec {
		return &fakeExec{name: name, slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
			mu.Lock()
			byWorker[name]++
			mu.Unlock()
			time.Sleep(time.Millisecond) // let the other worker pull too
			return okResult(p), nil
		}}
	}
	c := NewCoordinator(st, []Executor{mk("a"), mk("b")}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(12), 0)
	waitState(t, j, api.JobDone)
	mu.Lock()
	defer mu.Unlock()
	if byWorker["a"] == 0 || byWorker["b"] == 0 {
		t.Errorf("points not sharded: %v", byWorker)
	}
	if byWorker["a"]+byWorker["b"] != 12 {
		t.Errorf("executed %d points, want 12 (%v)", byWorker["a"]+byWorker["b"], byWorker)
	}
}

// TestWorkerDeathRequeuesOnSurvivor kills one executor mid-job: its
// in-flight point must requeue and the survivor must drain everything.
func TestWorkerDeathRequeuesOnSurvivor(t *testing.T) {
	st := openStore(t, "")
	var dead sync.Once
	died := make(chan struct{})
	dying := &fakeExec{name: "dying", slots: 1}
	dying.exec = func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		select {
		case <-died:
			return nil, errors.New("connection refused")
		default:
		}
		// First point: run it, then die.
		dead.Do(func() { close(died) })
		return okResult(p), nil
	}
	dying.health = func(context.Context) error {
		select {
		case <-died:
			return errors.New("dead")
		default:
			return nil
		}
	}
	survivor := &fakeExec{name: "survivor", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		time.Sleep(time.Millisecond)
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{dying, survivor}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(8), 0)
	waitState(t, j, api.JobDone)
	st8 := j.Status(true)
	if st8.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (%+v)", st8.Failed, st8)
	}
	var bySurvivor int
	for _, r := range st8.Points {
		if r.Worker == "survivor" {
			bySurvivor++
		}
	}
	// The dying executor ran at most one point before its death; the
	// survivor must have drained the rest.
	if bySurvivor < 7 {
		t.Errorf("survivor ran %d points, want >= 7 (%+v)", bySurvivor, st8.Points)
	}
}

// TestMaxAttemptsFailsPointAsData pins the requeue backstop: a point no
// worker can run becomes a worker_unavailable result, not an infinite
// requeue loop.
func TestMaxAttemptsFailsPointAsData(t *testing.T) {
	st := openStore(t, "")
	broken := &fakeExec{name: "broken", slots: 1,
		exec:   func(context.Context, ExecPoint) (*api.PointResult, error) { return nil, errors.New("boom") },
		health: func(context.Context) error { return nil }, // pings fine, still fails
	}
	c := NewCoordinator(st, []Executor{broken}, Config{MaxAttempts: 2})
	defer c.Close()

	j, _ := c.Submit(testSpec(1), 0)
	waitState(t, j, api.JobDone)
	res := j.Status(true).Points
	if len(res) != 1 || res[0].Error == nil || res[0].Error.Code != api.CodeWorkerUnavailable {
		t.Fatalf("results = %+v, want one worker_unavailable error", res)
	}
	if res[0].Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res[0].Attempts)
	}
}

// TestMaxAttemptsFailsTwins pins the backstop for a folded group: when
// the one point that runs for a group exhausts its attempts, every twin
// gets the same worker_unavailable result and the job finishes.
func TestMaxAttemptsFailsTwins(t *testing.T) {
	st := openStore(t, "")
	var calls atomic.Int32
	broken := &fakeExec{name: "broken", slots: 1,
		exec: func(context.Context, ExecPoint) (*api.PointResult, error) {
			calls.Add(1)
			return nil, errors.New("boom")
		},
		health: func(context.Context) error { return nil },
	}
	c := NewCoordinator(st, []Executor{broken}, Config{MaxAttempts: 2})
	defer c.Close()

	spec := Spec{Kind: "job", Program: api.Program{Source: "halt\n"}}
	for seed := int64(1); seed <= 3; seed++ {
		spec.Points = append(spec.Points, api.RunSpec{Seed: seed})
	}
	j, _ := c.Submit(spec, 0)
	waitState(t, j, api.JobDone)
	res := j.Status(true).Points
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if r.Index != i || r.Error == nil || r.Error.Code != api.CodeWorkerUnavailable || r.Attempts != 2 {
			t.Errorf("result %d = %+v, want index %d, worker_unavailable after 2 attempts", i, r, i)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("Execute called %d times, want 2 (one group, two attempts)", n)
	}
}

// panicObserver counts the panics the coordinator reports.
type panicObserver struct {
	nopObserver
	panics atomic.Int32
}

func (o *panicObserver) PointPanicked(*Job, int) { o.panics.Add(1) }

// TestExecutorPanicFailsOnePoint pins panic containment at the job-point
// boundary: an executor that panics on one canonical point costs that
// point and its twins an internal result, while the job's other points
// and the next job finish on the same slots.
func TestExecutorPanicFailsOnePoint(t *testing.T) {
	st := openStore(t, "")
	var calls atomic.Int32
	exec := &fakeExec{name: "w", slots: 2, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		calls.Add(1)
		if p.Spec.MaxCycles == 1 {
			panic("simulator bug")
		}
		return okResult(p), nil
	}}
	obs := &panicObserver{}
	c := NewCoordinator(st, []Executor{exec}, Config{Observer: obs})
	defer c.Close()

	// Points 1, 3 and 4 share one canonical spec (seeds feed only the
	// random policy): 1 runs, 3 and 4 are its twins.
	spec := testSpec(3)
	spec.Points = append(spec.Points, api.RunSpec{MaxCycles: 1, Seed: 7}, api.RunSpec{MaxCycles: 1, Seed: 8})
	j, err := c.Submit(spec, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, api.JobDone)
	for i, r := range j.Status(true).Points {
		switch i {
		case 1, 3, 4:
			if r.Index != i || r.Error == nil || r.Error.Code != api.CodeInternal ||
				!strings.Contains(r.Error.Message, "simulator bug") || r.Attempts != 1 {
				t.Errorf("result %d = %+v, want index %d, internal error naming the panic, 1 attempt", i, r, i)
			}
		default:
			if r.Index != i || r.Error != nil || r.Report == nil {
				t.Errorf("result %d = %+v, want index %d with a report", i, r, i)
			}
		}
	}
	if n := obs.panics.Load(); n != 1 {
		t.Errorf("observer saw %d panics, want 1", n)
	}

	next, err := c.Submit(testSpec(4), 0)
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	waitState(t, next, api.JobDone)
	for i, r := range next.Status(true).Points {
		if i == 1 {
			continue // MaxCycles 1 again: the same deterministic panic
		}
		if r.Error != nil {
			t.Errorf("next job result %d = %+v, want a report", i, r)
		}
	}
	if n := calls.Load(); n != 3+4 {
		t.Errorf("Execute called %d times, want 7 (no requeue of the panicking point)", n)
	}
}

// countingExec answers every point from its spec, like the
// deterministic simulator, and counts its Execute calls.
func countingExec(calls *atomic.Int32) *fakeExec {
	return &fakeExec{name: "w", slots: 2, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		calls.Add(1)
		return &api.PointResult{Index: p.Index, Report: []byte(fmt.Sprintf("%+v", p.Spec))}, nil
	}}
}

// TestCoordinatorFoldsSeedReplicas runs the 60-point sweep grid
// (five policies × latencies 4/8/16 × four seeds): seeds feed only the
// random policy, so the coordinator runs 15 points and delivers 60,
// each twin carrying its representative's report under its own index.
func TestCoordinatorFoldsSeedReplicas(t *testing.T) {
	st := openStore(t, "")
	var calls atomic.Int32
	c := NewCoordinator(st, []Executor{countingExec(&calls)}, Config{})
	defer c.Close()

	spec := Spec{Kind: "job", Program: api.Program{Source: "halt\n"}}
	for _, pol := range []repro.Policy{repro.PolicySteering, repro.PolicyDemand, repro.PolicyPrefetch, repro.PolicyFullReconfig, repro.PolicyNone} {
		for _, lat := range []int{4, 8, 16} {
			for seed := int64(1); seed <= 4; seed++ {
				spec.Points = append(spec.Points, api.RunSpec{Policy: pol, Params: repro.Params{ReconfigLatency: lat}, Seed: seed})
			}
		}
	}
	j, err := c.Submit(spec, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, api.JobDone)
	if n := calls.Load(); n != 15 {
		t.Errorf("Execute called %d times, want 15", n)
	}
	res := j.Status(true).Points
	if len(res) != 60 {
		t.Fatalf("got %d results, want 60", len(res))
	}
	for i, r := range res {
		rep := res[i/4*4] // the cell's seed-1 point runs; seeds 2–4 are its twins
		if r.Index != i || r.Error != nil {
			t.Errorf("result %d = %+v, want index %d without error", i, r, i)
			continue
		}
		if !bytes.Equal(r.Report, rep.Report) || &r.Report[0] != &rep.Report[0] {
			t.Errorf("result %d report %s, want the shared bytes of point %d (%s)", i, r.Report, rep.Index, rep.Report)
		}
	}
}

// TestCoordinatorRunsEachRandomSeed pins the other side of the key:
// the random policy reads its seed, so four seeds make four runs.
func TestCoordinatorRunsEachRandomSeed(t *testing.T) {
	st := openStore(t, "")
	var calls atomic.Int32
	c := NewCoordinator(st, []Executor{countingExec(&calls)}, Config{})
	defer c.Close()

	spec := Spec{Kind: "job", Program: api.Program{Source: "halt\n"}}
	for seed := int64(1); seed <= 4; seed++ {
		spec.Points = append(spec.Points, api.RunSpec{Policy: repro.PolicyRandom, Seed: seed})
	}
	j, _ := c.Submit(spec, 0)
	waitState(t, j, api.JobDone)
	if n := calls.Load(); n != 4 {
		t.Errorf("Execute called %d times, want 4", n)
	}
	if n := len(j.Status(true).Points); n != 4 {
		t.Errorf("got %d results, want 4", n)
	}
}

// TestResumeRegroupsTwins resumes a job whose first seed replica was
// already durable: the three pending replicas regroup and run once.
func TestResumeRegroupsTwins(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	spec := Spec{Kind: "job", Program: api.Program{Source: "halt\n"}}
	for seed := int64(1); seed <= 4; seed++ {
		spec.Points = append(spec.Points, api.RunSpec{Seed: seed})
	}
	j1, err := st1.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := st1.AppendPoint(j1, &api.PointResult{Index: 0, Report: []byte(`{}`)}); err != nil {
		t.Fatalf("AppendPoint: %v", err)
	}
	st1.Close()

	st2 := openStore(t, dir)
	var calls atomic.Int32
	c := NewCoordinator(st2, []Executor{countingExec(&calls)}, Config{})
	defer c.Close()
	if resumed := c.Resume(); resumed != 1 {
		t.Fatalf("Resume = %d jobs, want 1", resumed)
	}
	j2, _ := st2.Get(j1.ID)
	waitState(t, j2, api.JobDone)
	if n := calls.Load(); n != 1 {
		t.Errorf("Execute called %d times, want 1", n)
	}
	if n := len(j2.Status(true).Points); n != 4 {
		t.Errorf("got %d results, want 4", n)
	}
}

// TestFinishedJobReleasesSpec pins what a finished job keeps in memory:
// its results, label and kind, but not its program or point specs.
func TestFinishedJobReleasesSpec(t *testing.T) {
	st := openStore(t, "")
	var calls atomic.Int32
	c := NewCoordinator(st, []Executor{countingExec(&calls)}, Config{})
	defer c.Close()

	spec := testSpec(3)
	spec.Label = "keep-me"
	j, _ := c.Submit(spec, 0)
	waitState(t, j, api.JobDone)
	j.mu.Lock()
	program, points := j.Spec.Program, j.Spec.Points
	j.mu.Unlock()
	if program.Source != "" || points != nil {
		t.Errorf("finished job still holds program %q and %d points", program.Source, len(points))
	}
	if j.Spec.Kind != "job" || j.Spec.Label != "keep-me" {
		t.Errorf("finished job lost its kind or label: %+v", j.Spec)
	}
	if st := j.Status(true); st.Total != 3 || len(st.Points) != 3 {
		t.Errorf("status = %+v, want 3 of 3 points", st)
	}
	replay, ch := j.Subscribe()
	if ev := <-ch; len(replay) != 3 || ev.State != api.JobDone || ev.Total != 3 {
		t.Errorf("late subscriber got %d replayed points and %+v", len(replay), ev)
	}
}

func TestCancelStopsScheduling(t *testing.T) {
	st := openStore(t, "")
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	slow := &fakeExec{name: "slow", slots: 1, exec: func(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
		started <- struct{}{}
		select {
		case <-release:
			return okResult(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c := NewCoordinator(st, []Executor{slow}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(6), 0)
	<-started // one point in flight
	cancelled, err := c.Cancel(j.ID)
	if err != nil || cancelled.State() != api.JobCancelled {
		t.Fatalf("Cancel: %v, state %s", err, cancelled.State())
	}
	close(release)
	// The in-flight point was cancelled through its context and queued
	// points were purged: no further executions may start.
	select {
	case <-started:
		t.Error("a point started after cancel")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := c.Cancel("j-nope"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("cancelling unknown job: err = %v, want ErrNotFound", err)
	}
}

// TestEventsStreamBeforeFinish subscribes mid-job and checks per-point
// events arrive while the job is still running, then a terminal state
// event closes the channel.
func TestEventsStreamBeforeFinish(t *testing.T) {
	st := openStore(t, "")
	release := make(chan struct{}, 16)
	gated := &fakeExec{name: "gated", slots: 1, exec: func(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
		select {
		case <-release:
			return okResult(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c := NewCoordinator(st, []Executor{gated}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(3), 0)
	_, ch := j.Subscribe()
	release <- struct{}{}

	var sawPointWhileRunning bool
	var events []api.JobEvent
	for ev := range ch {
		events = append(events, ev)
		if ev.Type == api.EventPoint && !j.State().Terminal() {
			sawPointWhileRunning = true
		}
		if ev.Type == api.EventPoint {
			release <- struct{}{} // let the next point go
		}
	}
	if !sawPointWhileRunning {
		t.Errorf("no per-point event arrived before the job finished: %+v", events)
	}
	last := events[len(events)-1]
	if last.Type != api.EventState || last.State != api.JobDone {
		t.Errorf("stream did not end with a done state event: %+v", events)
	}
	points := 0
	for _, ev := range events {
		if ev.Type == api.EventPoint {
			points++
		}
	}
	if points != 3 {
		t.Errorf("stream carried %d point events, want 3", points)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := testSpec(3)
	j, err := st.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		res := &api.PointResult{Index: i, Report: []byte(fmt.Sprintf(`{"seed":%d}`, i)), Worker: "w"}
		if err := st.AppendPoint(j, res); err != nil {
			t.Fatalf("AppendPoint: %v", err)
		}
		j.recordResult(res)
	}
	if err := st.MarkState(j, api.JobDone); err != nil {
		t.Fatalf("MarkState: %v", err)
	}

	st2 := openStore(t, dir)
	if st2.Skipped() != 0 {
		t.Errorf("clean store reports %d skipped records", st2.Skipped())
	}
	j2, ok := st2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not reloaded", j.ID)
	}
	if j2.State() != api.JobDone {
		t.Errorf("reloaded state = %s, want done", j2.State())
	}
	got, want := j2.Status(true).Points, j.Status(true).Points
	if len(got) != len(want) {
		t.Fatalf("reloaded %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Report, want[i].Report) || got[i].Worker != want[i].Worker {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if j2.Spec.Program.Source != spec.Program.Source || len(j2.Spec.Points) != 3 {
		t.Errorf("reloaded spec = %+v, want %+v", j2.Spec, spec)
	}
}

// TestStoreToleratesCorruptedRecords simulates the crash-mid-append
// artifact: torn and garbage lines in the results log are skipped and
// counted, valid records around them still load, and the job comes back
// incomplete (the damaged points will simply re-run).
func TestStoreToleratesCorruptedRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	j, err := st.Create(testSpec(3))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	good0 := &api.PointResult{Index: 0, Report: []byte(`{"seed":0}`)}
	good2 := &api.PointResult{Index: 2, Report: []byte(`{"seed":2}`)}
	if err := st.AppendPoint(j, good0); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPoint(j, good2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt the log: garbage line, a torn (truncated) record, and an
	// out-of-range index between the two valid ones.
	path := filepath.Join(dir, j.ID+".results.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	var b strings.Builder
	b.WriteString(lines[0])
	b.WriteString("not json at all\n")
	b.WriteString(`{"record":"point","point":{"index":99}}` + "\n")
	b.WriteString(lines[1])
	b.WriteString(`{"record":"point","point":{"ind`) // torn write, no newline
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if st2.Skipped() != 3 {
		t.Errorf("skipped = %d, want 3", st2.Skipped())
	}
	j2, ok := st2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not reloaded", j.ID)
	}
	if j2.State() != api.JobPending {
		t.Errorf("state = %s, want pending (incomplete)", j2.State())
	}
	if pending := j2.pendingIndexes(); len(pending) != 1 || pending[0] != 1 {
		t.Errorf("pending = %v, want [1]", pending)
	}
}

// TestResumeAfterCoordinatorCrash pins the tentpole guarantee: stop the
// coordinator mid-job (in-flight points dropped), reopen the store with
// a fresh coordinator, Resume, and the completed job's full result set
// is byte-identical to an uninterrupted run of the same spec.
func TestResumeAfterCoordinatorCrash(t *testing.T) {
	spec := testSpec(6)

	// Baseline: the same spec run uninterrupted.
	baseSt := openStore(t, "")
	baseExec := &fakeExec{name: "w", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	baseC := NewCoordinator(baseSt, []Executor{baseExec}, Config{})
	defer baseC.Close()
	baseJob, _ := baseC.Submit(spec, 0)
	waitState(t, baseJob, api.JobDone)

	// Interrupted run: complete two points, then "crash" (Close drops
	// the in-flight point and stops scheduling).
	dir := t.TempDir()
	st1 := openStore(t, dir)
	ran := make(chan struct{}, 16)
	release := make(chan struct{}, 16)
	gated := &fakeExec{name: "w", slots: 1, exec: func(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
		select {
		case <-release:
			ran <- struct{}{}
			return okResult(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c1 := NewCoordinator(st1, []Executor{gated}, Config{})
	j1, err := c1.Submit(spec, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	release <- struct{}{}
	release <- struct{}{}
	<-ran
	<-ran
	c1.Close()
	st1.Close()
	if j1.State() == api.JobDone {
		t.Fatal("job finished before the crash; test needs an interrupted run")
	}

	// Restart: fresh store over the same dir, fresh coordinator, Resume.
	st2 := openStore(t, dir)
	plain := &fakeExec{name: "w", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	c2 := NewCoordinator(st2, []Executor{plain}, Config{})
	defer c2.Close()
	if resumed := c2.Resume(); resumed != 1 {
		t.Fatalf("Resume = %d jobs, want 1", resumed)
	}
	j2, ok := st2.Get(j1.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", j1.ID)
	}
	waitState(t, j2, api.JobDone)

	got, want := j2.Status(true).Points, baseJob.Status(true).Points
	if len(got) != len(want) {
		t.Fatalf("resumed run has %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Report, want[i].Report) {
			t.Errorf("point %d: resumed report %s != uninterrupted %s", i, got[i].Report, want[i].Report)
		}
		if got[i].Error != nil {
			t.Errorf("point %d: unexpected error %v", i, got[i].Error)
		}
	}
}

func TestSubmitOnVolatileStore(t *testing.T) {
	st := openStore(t, "")
	exec := &fakeExec{name: "w", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{exec}, Config{})
	defer c.Close()
	j, err := c.Submit(testSpec(2), 0)
	if err != nil {
		t.Fatalf("Submit on volatile store: %v", err)
	}
	waitState(t, j, api.JobDone)
	if st.Dir() != "" {
		t.Errorf("volatile store has dir %q", st.Dir())
	}
}
