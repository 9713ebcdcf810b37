// Package api is the wire schema of the rssd service: the
// request/response documents of every /v1 endpoint, the structured
// error envelope each non-2xx response carries, and the mapping from
// the facade's sentinel errors to HTTP statuses. It is the single
// definition shared by the server (internal/server), the typed client
// (internal/client), and the cmd tools — a field added here is the
// field on the wire, everywhere.
package api

import (
	"encoding/json"

	"repro"
	"repro/internal/cluster"
)

// AssembleRequest is the body of POST /v1/assemble.
type AssembleRequest struct {
	// Source is the assembly text, which may include .data sections.
	Source string `json:"source"`
}

// AssembleResponse reports the assembled program.
type AssembleResponse struct {
	// Instructions is the number of decoded instructions.
	Instructions int `json:"instructions"`
	// Words is the 32-bit binary encoding of the program.
	Words []uint32 `json:"words"`
	// Disassembly is the canonical one-instruction-per-line rendering.
	Disassembly string `json:"disassembly"`
	// Cached reports whether the assembled program came from the
	// server's program cache.
	Cached bool `json:"cached"`
}

// Program names one simulation program in either form: assembly text or
// its 32-bit binary encoding. Exactly one field is set.
type Program struct {
	Source string   `json:"source,omitempty"`
	Words  []uint32 `json:"words,omitempty"`
}

// RunSpec describes one simulation: the machine sizing, the
// configuration-management policy, and the run budget. It is the
// facade's run spec itself, checked with its Validate method. MaxCycles
// 0 takes the server default, and values above the server cap are
// clamped to it. It is both the core of RunRequest and the per-point
// element of jobs.
type RunSpec = repro.Options

// EstimateRequest is the body of POST /v1/estimate: the same program
// and spec shape as a run, answered by the analytic queueing model
// instead of the simulator. Exactly one of Source or Words must be set.
// MaxCycles, Seed and MinResidency are accepted for spec compatibility
// with /v1/run but do not influence the model.
type EstimateRequest struct {
	// Source is assembly text (assembled through the program cache).
	Source string `json:"source,omitempty"`
	// Words is the binary program form, for pre-assembled jobs
	// (decoded through the program cache).
	Words []uint32 `json:"words,omitempty"`

	RunSpec
}

// EstimateResponse reports one analytic prediction.
type EstimateResponse struct {
	// Estimate is the model's prediction: IPC, per-class utilisation
	// and queueing delay, bottleneck, and the validity envelope.
	Estimate repro.Estimate `json:"estimate"`
	// ElapsedUs is the wall-clock model solve time in microseconds —
	// the number to compare against RunResponse.ElapsedMs.
	ElapsedUs float64 `json:"elapsedUs"`
	// Cached reports whether the program came from the server's program
	// cache: a repeat of the same source text or the same words.
	Cached bool `json:"cached"`
}

// RunRequest is the body of POST /v1/run. Exactly one of Source or
// Words must be set.
type RunRequest struct {
	// Source is assembly text (assembled through the program cache).
	Source string `json:"source,omitempty"`
	// Words is the binary program form, for pre-assembled jobs
	// (decoded through the program cache).
	Words []uint32 `json:"words,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline,
	// capped at the server maximum.
	TimeoutMs int `json:"timeoutMs,omitempty"`

	RunSpec
}

// RunResponse reports one completed simulation.
type RunResponse struct {
	// Report is the machine's JSON run report (stats, IPC, cache and
	// predictor rates, reconfiguration counts).
	Report json.RawMessage `json:"report"`
	// ElapsedMs is the wall-clock simulation time in milliseconds.
	ElapsedMs float64 `json:"elapsedMs"`
	// Cached reports whether the program came from the server's program
	// cache: a repeat of the same source text or the same words.
	Cached bool `json:"cached"`
}

// ClusterReport is the report document a run produces when the spec
// requests a multi-core cluster (params.Cores > 1): the cluster-level
// aggregates plus one full scalar report per core. It rides in the
// same RunResponse.Report / PointResult.Report slot scalar reports
// use; clients discriminate on the "cluster" key.
type ClusterReport = cluster.Report

// ClusterSummary is the cluster-level aggregate block of a
// ClusterReport.
type ClusterSummary = cluster.Summary

// HealthResponse is the body of GET /v1/healthz.
type HealthResponse struct {
	// Status is "ok", or "draining" once shutdown has begun.
	Status string `json:"status"`
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// Running is the number of simulations currently executing.
	Running int `json:"running"`
	// Admitted is the number of jobs admitted and not yet finished
	// (running plus waiting for a worker slot).
	Admitted int `json:"admitted"`
}
