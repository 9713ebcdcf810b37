package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/api"
)

// simPrograms is how many distinct programs the facade workloads cycle
// through. All have the same length, so run latencies form one cluster
// whose median and p90 do not jump between clusters from run to run,
// and a window holds well over the 100 runs p90 needs.
const simPrograms = 8

// simWorkload is sim-steady or sim-observed: sequential rsssim-style
// facade runs in the benchmark's own process, no server involved.
type simWorkload struct {
	progs    []*program
	policies []repro.Policy
	observed bool
	chk      *checker
}

func buildSim(observed bool) func(config) (workload, error) {
	return func(cfg config) (workload, error) {
		w := &simWorkload{observed: observed, policies: []repro.Policy{repro.PolicySteering, repro.PolicyPrefetch}}
		if observed {
			w.policies = []repro.Policy{repro.PolicySteering}
		}
		for i := 0; i < simPrograms; i++ {
			p, err := synthProgram(fmt.Sprintf("sim-%d", i), scaled(60_000, cfg.scale), cfg.seed)
			if err != nil {
				return nil, err
			}
			w.progs = append(w.progs, p)
		}
		return w, nil
	}
}

// cases lists every program under every policy.
func (w *simWorkload) cases() []simCase {
	var cs []simCase
	for _, p := range w.progs {
		for _, pol := range w.policies {
			cs = append(cs, newCase(p, api.RunSpec{Policy: pol}))
		}
	}
	return cs
}

// start warms up with one operation on the first program.
func (w *simWorkload) start(chk *checker) error {
	w.chk = chk
	_, err := w.runPolicies(w.progs[0], nil)
	return err
}

// run makes each operation one program under every policy of the
// workload, in turn: with two policies a run-per-operation latency
// would form two clusters whose boundary is exactly the median.
func (w *simWorkload) run(m *meter, tr *tracer) {
	for i := 0; m.more(); i++ {
		start := time.Now()
		cycles, err := w.runPolicies(w.progs[i%len(w.progs)], tr)
		m.op("run", time.Since(start), cycles, err)
	}
}

// runPolicies runs p under every policy of the workload, checks every
// report, and returns the cycles simulated.
func (w *simWorkload) runPolicies(p *program, tr *tracer) (int, error) {
	total := 0
	for _, pol := range w.policies {
		c := newCase(p, api.RunSpec{Policy: pol})
		report, err := w.runOnce(c, tr)
		if err != nil {
			return 0, err
		}
		n, err := w.chk.report(c, report)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// runOnce is one rsssim run: build the machine, simulate to HALT and
// render the JSON report; with observers, stream telemetry and spans
// and export the Chrome trace, as rsssim -metrics -trace-spans does.
func (w *simWorkload) runOnce(c simCase, tr *tracer) ([]byte, error) {
	end := tr.span("repro.construct")
	m := repro.NewMachine(c.prog.prog, repro.Options{Policy: c.spec.Policy})
	end()
	var writeTrace func(io.Writer) error
	if w.observed {
		if _, err := m.EnableTelemetry(io.Discard, "jsonl", 100); err != nil {
			return nil, err
		}
		writeTrace = m.EnableSpans(repro.SpanConfig{}).WriteChromeTrace
	}
	end = tr.span("repro.run")
	_, err := m.RunContext(context.Background(), maxCycles)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.key, err)
	}
	end = tr.span("repro.report")
	report, err := m.ReportJSON()
	end()
	if err != nil {
		return nil, err
	}
	if writeTrace != nil {
		if err := writeTrace(io.Discard); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// The facade workloads call the layers directly, so their traced window
// already records every span; there is nothing to replay or to read
// from a server.
func (w *simWorkload) replay(*tracer) error              { return nil }
func (w *simWorkload) serverLayers(time.Time) serverInfo { return serverInfo{} }
func (w *simWorkload) close()                            {}
