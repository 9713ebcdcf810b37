package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"repro"
	"repro/internal/api"
)

// The replay functions pass one request body through the public
// functions rssd's handlers call, in the handlers' order, with a span
// around each call. rssd records no spans inside a request beyond
// queue-wait, execute and encode, so this is how a traced run measures
// what one request costs in decoding, assembly, construction, report
// rendering and encoding.

// replayRun is one POST /v1/run.
func replayRun(tr *tracer, body []byte) error {
	var req api.RunRequest
	if err := replayDecode(tr, body, &req); err != nil {
		return err
	}
	m, err := replayLoad(tr, req.Source, req.Words, req.RunSpec)
	if err != nil {
		return err
	}
	report, err := replaySimulate(tr, m)
	if err != nil {
		return err
	}
	return replayEncode(tr, api.RunResponse{Report: report}, true)
}

// replayJobPoint is a job submission's decode plus the run of its first
// point, as the in-process executor runs it, and the point's event line.
func replayJobPoint(tr *tracer, body []byte) error {
	var req api.JobRequest
	if err := replayDecode(tr, body, &req); err != nil {
		return err
	}
	if len(req.Points) == 0 {
		return errors.New("replaying a job without points")
	}
	m, err := replayLoad(tr, req.Source, req.Words, req.Points[0])
	if err != nil {
		return err
	}
	report, err := replaySimulate(tr, m)
	if err != nil {
		return err
	}
	return replayEncode(tr, api.JobEvent{Type: api.EventPoint, Point: &api.PointResult{Report: report}}, false)
}

// replayEstimate is one POST /v1/estimate.
func replayEstimate(tr *tracer, body []byte) error {
	var req api.EstimateRequest
	if err := replayDecode(tr, body, &req); err != nil {
		return err
	}
	end := tr.span("isa.decode_words")
	prog, err := repro.DecodeProgram(req.Words)
	end()
	if err != nil {
		return err
	}
	end = tr.span("queue.estimate")
	est, err := repro.EstimateIPC(prog, repro.Options{Params: req.Params, Policy: req.Policy})
	end()
	if err != nil {
		return err
	}
	return replayEncode(tr, api.EstimateResponse{Estimate: est}, true)
}

// replayDecode decodes a request body as the server does: unknown
// fields are errors.
func replayDecode(tr *tracer, body []byte, v any) error {
	defer tr.span("api.decode")()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replayEncode encodes a reply as the server does: indented for
// request replies, one compact line for event streams.
func replayEncode(tr *tracer, v any, indent bool) error {
	defer tr.span("api.encode")()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// replayLoad resolves the program (assembly source or binary words) and
// builds the machine.
func replayLoad(tr *tracer, source string, words []uint32, spec api.RunSpec) (*repro.Machine, error) {
	opt := repro.Options{Params: spec.Params, Policy: spec.Policy, Seed: spec.Seed, MinResidency: spec.MinResidency}
	if source != "" {
		end := tr.span("isa.assemble")
		unit, err := repro.AssembleUnit(source)
		end()
		if err != nil {
			return nil, err
		}
		defer tr.span("repro.construct")()
		return repro.NewMachineFromUnit(unit, opt), nil
	}
	end := tr.span("isa.decode_words")
	prog, err := repro.DecodeProgram(words)
	end()
	if err != nil {
		return nil, err
	}
	defer tr.span("repro.construct")()
	return repro.NewMachine(prog, opt), nil
}

// replaySimulate runs the machine to HALT and renders its report.
func replaySimulate(tr *tracer, m *repro.Machine) ([]byte, error) {
	end := tr.span("repro.run")
	_, err := m.RunContext(context.Background(), maxCycles)
	end()
	if err != nil {
		return nil, err
	}
	defer tr.span("repro.report")()
	return m.ReportJSON()
}
