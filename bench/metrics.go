package main

// metricDef names one metric of the benchmark's result line. The
// end-to-end and per-layer tables here are the ones BENCHMARK.json at
// the repository root lists; TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator or of rssd sees.
// Every workload reports every one of them; "op" is the workload's
// operation (see the workload table in README.md). Bounds are the share
// by which a metric may worsen before a change counts as a regression.
// Throughput and latency are in reference-host time (see refProbeRate);
// the wall-clock values are detail lines. README.md has the measured
// spreads the bounds rest on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_mcycles_per_ref_s", "Mcycles/ref_s", "higher", 0.25},
	{"op_p50_ref_ms", "ref_ms", "lower", 0.25},
	{"op_p90_ref_ms", "ref_ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the traced run's metrics that every workload exercises:
// host CPU time per simulated cycle by simulator layer (from the CPU
// profile), per-call costs of the facade (from the benchmark's spans),
// runtime costs, and exact simulated counts that a simulator-only change
// must leave identical. Layer metrics that only some workloads exercise
// are printed as detail lines of the traced run.
var perLayer = []metricDef{
	{"sim.ns_per_cycle", "ns/cycle", "lower", 0},
	{"cpu.retire.ns_per_cycle", "ns/cycle", "lower", 0},
	{"cpu.issue.ns_per_cycle", "ns/cycle", "lower", 0},
	{"cpu.execute.ns_per_cycle", "ns/cycle", "lower", 0},
	{"cpu.dispatch.ns_per_cycle", "ns/cycle", "lower", 0},
	{"cpu.fill.ns_per_cycle", "ns/cycle", "lower", 0},
	{"wakeup.ns_per_cycle", "ns/cycle", "lower", 0},
	{"fetch.ns_per_cycle", "ns/cycle", "lower", 0},
	{"rfu.ns_per_cycle", "ns/cycle", "lower", 0},
	{"isa.ns_per_cycle", "ns/cycle", "lower", 0},
	{"core.ns_per_cycle", "ns/cycle", "lower", 0},
	{"mem.ns_per_cycle", "ns/cycle", "lower", 0},
	{"repro.construct.us", "us", "lower", 0},
	{"repro.report.us", "us", "lower", 0},
	{"runtime.gc.share", "ratio", "lower", 0},
	{"runtime.alloc_kb_per_op", "KiB", "lower", 0},
	{"runtime.cpu_util", "ratio", "higher", 0},
	{"cpu.ipc", "instr/cycle", "higher", 0},
	{"core.steer_cache.hit_ratio", "ratio", "higher", 0},
	{"core.reconfigs_per_kcycle", "1/kcycle", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"attribution.named_share", "ratio", "higher", 0},
}

// metric is one measured value as the result line and result files
// carry it. N is the sample count behind a percentile or median, where
// there is one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet is a named collection of measured values.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64, unit string) { s[name] = metric{Value: v, Unit: unit} }

func (s metricSet) setN(name string, v float64, unit string, n int) {
	s[name] = metric{Value: v, Unit: unit, N: n}
}

// only returns the subset of s named by defs, in the defs' units.
func (s metricSet) only(defs []metricDef) metricSet {
	out := metricSet{}
	for _, d := range defs {
		m := s[d.Name]
		out[d.Name] = metric{Value: m.Value, Unit: d.Unit}
	}
	return out
}
