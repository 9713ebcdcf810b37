package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// meter collects one measured window: the workload's operations, their
// latencies and simulated cycles, and every failure. Workload loops ask
// more() before each operation, so the window closes at the first
// operation boundary after the deadline, and not before minOps
// operations have completed (the percentile rule needs 100 for p90).
type meter struct {
	mu       sync.Mutex
	start    time.Time
	deadline time.Time
	hardStop time.Time
	minOps   int

	end       time.Time // when the last operation or unit of work finished
	ops       int
	cycles    int64
	attempted int
	failed    int
	opLat     []float64            // milliseconds per operation
	lat       map[string][]float64 // milliseconds by latency kind ("run", "estimate", "point", "job")
	side      map[string][]float64 // other named measurements, such as server-reported solve times
	counters  map[string]int       // units of background work completed, by name
}

func newMeter(window time.Duration, minOps int) *meter {
	now := time.Now()
	return &meter{
		start:    now,
		deadline: now.Add(window),
		hardStop: now.Add(3*window + 5*time.Second),
		minOps:   minOps,
		end:      now,
		lat:      map[string][]float64{},
		side:     map[string][]float64{},
		counters: map[string]int{},
	}
}

// more reports whether the workload should start another operation.
func (m *meter) more() bool {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if now.After(m.hardStop) {
		return false
	}
	return now.Before(m.deadline) || m.ops < m.minOps
}

// op records one completed operation of the workload: its latency, the
// cycles it simulated and its outcome. kind names the latency series
// the operation also joins ("run", "estimate", "point").
func (m *meter) op(kind string, lat time.Duration, cycles int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if m.failure(err) {
		return
	}
	ms := float64(lat) / float64(time.Millisecond)
	m.ops++
	m.opLat = append(m.opLat, ms)
	m.lat[kind] = append(m.lat[kind], ms)
	m.cycles += int64(cycles)
	m.end = time.Now()
}

// work records simulated work that is not one of the workload's
// operations, such as a background job's points.
func (m *meter) work(counter string, cycles int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if m.failure(err) {
		return
	}
	m.counters[counter]++
	m.cycles += int64(cycles)
	m.end = time.Now()
}

// fail records n attempted operations that failed together, such as the
// points of a job that could not be submitted.
func (m *meter) fail(n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted += n
	m.failed += n
	m.report(err)
}

// failure counts err, if any. The caller holds m.mu.
func (m *meter) failure(err error) bool {
	if err == nil {
		return false
	}
	m.failed++
	m.report(err)
	return true
}

// report prints the first few failures on stderr. The caller holds m.mu.
func (m *meter) report(err error) {
	if m.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: failed: %v\n", err)
	}
}

// latency records the latency of something that is not an operation,
// such as a whole job.
func (m *meter) latency(kind string, d time.Duration) {
	m.mu.Lock()
	m.lat[kind] = append(m.lat[kind], float64(d)/float64(time.Millisecond))
	m.mu.Unlock()
}

// sample records one named side measurement.
func (m *meter) sample(name string, v float64) {
	m.mu.Lock()
	m.side[name] = append(m.side[name], v)
	m.mu.Unlock()
}

// elapsed is the measured window: from the start to the last completion.
func (m *meter) elapsed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.end.Sub(m.start)
}

// tracer keeps the benchmark's own spans in memory: the duration of
// every call it makes into a layer, by span name. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string][]time.Duration{}} }

// span starts a span and returns the function that ends it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans[name] = append(t.spans[name], d)
		t.mu.Unlock()
	}
}

// medianUs is the median duration of the named span in microseconds and
// the number of spans behind it.
func (t *tracer) medianUs(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ds := t.spans[name]
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return median(us), len(us)
}
