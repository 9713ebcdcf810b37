// Command rsssim runs the reconfigurable superscalar simulator on a
// program — an assembly file, a built-in kernel, or a synthetic workload
// — under a chosen configuration policy and prints the run report.
//
// Usage:
//
//	rsssim -kernel saxpy
//	rsssim -kernel matmul -policy static-integer
//	rsssim -asm prog.s -policy full-reconfig -reconfig-latency 32
//	rsssim -synthetic phased -policy steering -trace
//	rsssim -kernel saxpy -metrics run.jsonl                 # telemetry time series
//	rsssim -kernel matmul -metrics - -metrics-format csv    # to stdout
//	rsssim -synthetic alternating -prefetch -trace-spans trace.json  # Perfetto timeline
//	rsssim -kernel saxpy -fault-rate 0.01 -flight-dump dump.json     # dump ring at anomaly
//	rsssim -kernel saxpy -cores 2 -cluster-mode split       # 2-core cluster
//	rsssim -kernels            # list built-in kernels
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/span"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var (
	// errUsage: the command line names no program; run prints the
	// usage and exits 2.
	errUsage = errors.New("one of -kernel, -asm or -synthetic is required")
	// errReported: the failure is already in the output (a cluster
	// table row); run exits 1 without repeating it.
	errReported = errors.New("failure reported in the output")
)

// command is a parsed command line: the run spec the flags build, plus
// the options that are not spec fields — what to run and which sinks
// to attach.
type command struct {
	spec repro.Options

	asmPath, kernelName, synthetic string
	policyName, basisPath          string
	listKernels, listPolicies      bool
	prefetch                       bool
	jsonOut                        bool
	traceN, switchEvery            int
	estimate, estimateOnly         bool

	metricsPath, metricsFormat string
	metricsInterval            int
	pprofAddr                  string
	spansPath, spansFormat     string
	flightPath                 string
}

// run is rsssim on args, writing to stdout and stderr; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := command{spec: repro.Options{Params: repro.DefaultParams()}}
	p := &c.spec.Params
	fs.StringVar(&c.asmPath, "asm", "", "assembly source file to run")
	fs.StringVar(&c.kernelName, "kernel", "", "built-in kernel to run")
	fs.StringVar(&c.synthetic, "synthetic", "", "synthetic workload: int, fp, mem, mdu, uniform, phased, alternating")
	fs.StringVar(&c.policyName, "policy", repro.PolicySteering.String(), "configuration policy")
	fs.BoolVar(&c.listKernels, "kernels", false, "list built-in kernels and exit")
	fs.BoolVar(&c.listPolicies, "list-policies", false, "list configuration policies and exit")
	fs.IntVar(&c.spec.MaxCycles, "max-cycles", repro.DefaultMaxCycles, "cycle budget; 0 means the default, as in rssd")
	fs.Int64Var(&c.spec.Seed, "seed", 7, "seed for synthetic workloads / random policy")
	fs.IntVar(&p.WindowSize, "window", 0, "scheduling window size; 0 means use the default (7), negative is an error")
	fs.IntVar(&p.ReconfigLatency, "reconfig-latency", 0, "cycles per RFU span reconfiguration; 0 means use the default (8), negative is an error (near-instant reconfiguration is 1)")
	fs.BoolVar(&p.DisableFFUs, "no-ffus", false, "disable the fixed functional units (X4 ablation)")
	fs.IntVar(&c.traceN, "trace", 0, "print a pipeline trace and chart of the first N cycles")
	fs.StringVar(&c.basisPath, "basis", "", "JSON file with a custom 3-configuration steering basis")
	fs.BoolVar(&p.ManagerLookahead, "lookahead", false, "feed the manager fetched-but-undispatched demand too (X10)")
	fs.IntVar(&c.spec.MinResidency, "residency", 0, "minimum cycles between configuration loads (X11)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the run report as JSON instead of text (the cluster report with -cores K > 1)")

	fs.IntVar(&p.Cores, "cores", 1, "run K cores as a reconfigurable cluster sharing one fabric and print per-core plus aggregate IPC")
	fs.StringVar(&p.ClusterMode, "cluster-mode", "", "cluster fabric-sharing mode: merged (default) or split")
	fs.StringVar(&p.ClusterArbiter, "cluster-arbiter", "", "cluster arbitration policy: round-robin (default) or demand-weighted")
	fs.IntVar(&c.switchEvery, "cluster-switch-every", 0, "toggle merged/split every N cluster cycles at the next quiescent phase boundary (0 never switches)")

	fs.BoolVar(&c.estimate, "estimate", false, "also solve the analytic queueing model and print its prediction next to the measured IPC")
	fs.BoolVar(&c.estimateOnly, "estimate-only", false, "print the analytic prediction and skip simulation entirely")

	fs.Float64Var(&p.FaultTransientRate, "fault-rate", 0, "per-slot per-cycle probability of a transient configuration upset (0 disables fault injection)")
	fs.Float64Var(&p.FaultPermanentRate, "fault-permanent-rate", 0, "per-slot per-cycle probability of a permanent configuration fault")
	fs.Int64Var(&p.FaultSeed, "fault-seed", 1, "seed for the fault injector's PRNG stream")
	fs.IntVar(&p.FaultScrubInterval, "fault-scrub-interval", fault.DefaultScrubInterval, "cycles between readback scrub scans; must be positive when a fault rate is set")

	fs.BoolVar(&c.prefetch, "prefetch", false, "shorthand for -policy prefetch (phase-aware speculative reconfiguration)")
	fs.IntVar(&p.PrefetchHistoryDepth, "prefetch-history", 0, "demand-history ring depth of the prefetch predictor; 0 means the default (32)")
	fs.Float64Var(&p.PrefetchConfidence, "prefetch-confidence", 0, "Markov confidence threshold in (0,1] for speculative loads; 0 means the default (0.55)")

	fs.StringVar(&c.metricsPath, "metrics", "", "write telemetry to this file (\"-\" for stdout)")
	fs.IntVar(&c.metricsInterval, "metrics-interval", repro.DefaultMetricsInterval, "cycles between telemetry samples")
	fs.StringVar(&c.metricsFormat, "metrics-format", "jsonl", "telemetry format: jsonl, csv, prom")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for profiling the simulator")

	fs.StringVar(&c.spansPath, "trace-spans", "", "write a span trace of the run to this file (\"-\" for stdout)")
	fs.StringVar(&c.spansFormat, "trace-spans-format", "chrome", "span trace format: chrome (Perfetto-loadable Chrome Trace JSON) or jsonl")
	fs.StringVar(&c.flightPath, "flight-dump", "", "arm the flight recorder: dump the last-N span ring to this file when an anomaly trigger fires (fault storm, IPC collapse)")

	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	policySet := false
	fs.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" })

	err := c.run(stdout, stderr, policySet)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	case !errors.Is(err, errReported):
		fmt.Fprintln(stderr, "rsssim:", err)
	}
	return 1
}

// run builds the machine from the spec, attaches the requested sinks,
// runs it and prints the report.
func (c *command) run(stdout, stderr io.Writer, policySet bool) error {
	if err := c.checkOptions(policySet); err != nil {
		return err
	}
	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "rsssim: pprof server:", err)
			}
		}()
		fmt.Fprintf(stderr, "pprof listening on http://%s/debug/pprof/\n", c.pprofAddr)
	}
	if c.listKernels {
		for _, k := range repro.Kernels() {
			fmt.Fprintf(stdout, "%-10s %s\n", k.Name, k.Description)
		}
		return nil
	}
	if c.listPolicies {
		// The canonical cpu.Policy name table, in declaration order —
		// the same table ParsePolicy and the rssd error envelopes use.
		for _, p := range repro.Policies() {
			fmt.Fprintln(stdout, p)
		}
		return nil
	}

	var err error
	if c.spec.Policy, err = repro.ParsePolicy(c.policyName); err != nil {
		return err
	}
	if err := c.spec.Validate(); err != nil {
		return err
	}
	if c.spec.MaxCycles == 0 {
		c.spec.MaxCycles = repro.DefaultMaxCycles
	}
	if c.basisPath != "" {
		data, err := os.ReadFile(c.basisPath)
		if err != nil {
			return err
		}
		basis, err := repro.ParseBasis(data)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", c.basisPath, err)
		}
		c.spec.Basis = &basis
	}
	w, err := c.workload()
	if err != nil {
		return err
	}

	// Build: core i runs the workload drawn with seed+i, so every core
	// of a synthetic cluster gets its own variant.
	k := max(c.spec.Params.Cores, 1)
	progs := make([]repro.Program, k)
	for i := range progs {
		if progs[i], err = w.program(c.spec.Seed + int64(i)); err != nil {
			return err
		}
	}
	var est *repro.Estimate
	if c.estimate || c.estimateOnly {
		e, err := repro.EstimateIPC(progs[0], c.spec)
		if err != nil {
			return err
		}
		est = &e
		printEstimate(stdout, e, c.spec.Policy)
		if c.estimateOnly {
			return nil
		}
	}
	m := cluster.NewMulti(progs, c.spec)
	if w.setup != nil {
		for i := 0; i < k; i++ {
			w.setup(m.Core(i))
		}
	}
	m.SetSwitchEvery(c.switchEvery)

	// Attach the sinks.
	if c.traceN > 0 {
		m.Core(0).EnableTracingUntil(64*c.traceN, c.traceN)
	}
	var metricsFile *os.File
	if c.metricsPath != "" {
		mw := stdout
		if c.metricsPath != "-" {
			if metricsFile, err = os.Create(c.metricsPath); err != nil {
				return err
			}
			// Error paths close it here; the success path checks Close.
			defer metricsFile.Close()
			mw = metricsFile
		}
		if err := m.EnableTelemetry(mw, c.metricsFormat, c.metricsInterval); err != nil {
			return err
		}
	}
	var recs []*span.Recorder
	if c.spansPath != "" || c.flightPath != "" {
		recs = m.EnableSpans(c.spanConfig(stderr))
	}

	// Run.
	start := time.Now()
	stats, runErr := m.Run(c.spec.MaxCycles)
	elapsed := time.Since(start)
	if c.spansPath != "" {
		if err := writeSpans(m, recs, c.spansPath, c.spansFormat, stdout, stderr); err != nil {
			return err
		}
	}
	if c.flightPath != "" && recs[0].Triggers() == 0 {
		fmt.Fprintln(stderr, "flight recorder: no anomaly triggers fired; no dump written")
	}
	if runErr != nil {
		return runErr
	}
	if metricsFile != nil {
		// Run flushed the exporter; surface close errors so a full disk
		// is not silent.
		if err := metricsFile.Close(); err != nil {
			return err
		}
	}

	// Report.
	if k > 1 && !c.jsonOut {
		return printClusterTable(stdout, m, stats, w.validate, elapsed)
	}
	for i := 0; i < k && w.validate != nil; i++ {
		if err := w.validate(m.Core(i)); err != nil {
			if k == 1 {
				return fmt.Errorf("validation: %w", err)
			}
			return fmt.Errorf("core %d validation: %w", i, err)
		}
	}
	if w.validate != nil && k == 1 {
		fmt.Fprintln(stdout, "kernel output validated OK")
	}
	if c.traceN > 0 {
		fmt.Fprintf(stdout, "pipeline chart, cycles 0..%d (F fetch, D dispatch, I issue, = executing, R retire, x flushed):\n", c.traceN)
		fmt.Fprintln(stdout, m.Core(0).Pipeview(0, c.traceN))
	}
	if est != nil {
		// The line the flag exists for: model next to measurement. On
		// -json it goes to stderr so the report stays machine-parseable.
		out := stdout
		if c.jsonOut {
			out = stderr
		}
		measured := stats.Cores[0].IPC()
		errPct := 0.0
		if measured > 0 {
			errPct = 100 * (est.PredictedIPC - measured) / measured
		}
		fmt.Fprintf(out, "analytic model: predicted IPC %.3f vs measured %.3f (%+.1f%%)\n",
			est.PredictedIPC, measured, errPct)
	}
	if c.jsonOut {
		data, err := m.ReportJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	fmt.Fprint(stdout, m.Core(0).Report())
	return nil
}

// checkOptions checks the options that are not run-spec fields; the
// spec itself goes through Options.Validate.
func (c *command) checkOptions(policySet bool) error {
	if c.metricsInterval <= 0 {
		return fmt.Errorf("-metrics-interval must be positive, got %d", c.metricsInterval)
	}
	if c.spansFormat != "chrome" && c.spansFormat != "jsonl" {
		return fmt.Errorf("-trace-spans-format must be chrome or jsonl, got %q", c.spansFormat)
	}
	if c.switchEvery < 0 {
		return fmt.Errorf("-cluster-switch-every must be non-negative, got %d", c.switchEvery)
	}
	if c.spec.Params.Cores > 1 {
		for _, conflict := range []struct {
			set  bool
			name string
		}{
			{c.traceN > 0, "-trace"},
			{c.flightPath != "", "-flight-dump"},
			{c.estimate || c.estimateOnly, "-estimate"},
			{c.metricsPath != "" && c.metricsFormat == "prom", "-metrics-format prom (one registry snapshot cannot merge K cores)"},
		} {
			if conflict.set {
				return fmt.Errorf("%s conflicts with -cores", conflict.name)
			}
		}
	}
	if c.prefetch {
		if policySet && c.policyName != repro.PolicyPrefetch.String() {
			return fmt.Errorf("-prefetch conflicts with -policy %s", c.policyName)
		}
		c.policyName = repro.PolicyPrefetch.String()
	}
	return nil
}

// workload is what runs on each core: program yields the instruction
// stream for a seed, and setup / validate prepare and check one core's
// machine (nil means nothing to do).
type workload struct {
	program  func(seed int64) (repro.Program, error)
	setup    func(*repro.Machine)
	validate func(*repro.Machine) error
}

// workload resolves -kernel, -asm or -synthetic.
func (c *command) workload() (workload, error) {
	var w workload
	switch {
	case c.kernelName != "":
		k := repro.KernelByName(c.kernelName)
		if k == nil {
			return w, fmt.Errorf("unknown kernel %q; try -kernels", c.kernelName)
		}
		if k.Setup != nil {
			w.setup = func(m *repro.Machine) {
				k.Setup(m.Processor().Memory(), m.Processor().SetReg)
			}
		}
		if k.Validate != nil {
			w.validate = func(m *repro.Machine) error {
				return k.Validate(m.Processor().Reg, m.Processor().Memory())
			}
		}
		w.program = func(int64) (repro.Program, error) { return k.Program(), nil }

	case c.asmPath != "":
		src, err := os.ReadFile(c.asmPath)
		if err != nil {
			return w, err
		}
		unit, err := repro.AssembleUnit(string(src))
		if err != nil {
			return w, err
		}
		w.program = func(int64) (repro.Program, error) { return unit.Program, nil }
		w.setup = func(m *repro.Machine) { unit.Apply(m.Processor().Memory()) }

	case c.synthetic != "":
		w.program = func(seed int64) (repro.Program, error) { return syntheticProgram(c.synthetic, seed) }

	default:
		return w, errUsage
	}
	return w, nil
}

// spanConfig arms the flight recorder when -flight-dump is set: the
// ring is dumped once, at the first anomaly, so the file captures the
// spans surrounding the trigger rather than whatever the ring holds at
// exit.
func (c *command) spanConfig(stderr io.Writer) repro.SpanConfig {
	var cfg repro.SpanConfig
	if c.flightPath == "" {
		return cfg
	}
	dumped := false
	path := c.flightPath
	cfg.OnTrigger = func(r *span.Recorder, reason string) {
		if dumped {
			return
		}
		dumped = true
		f, err := os.Create(path)
		if err == nil {
			err = r.DumpFlight(f, reason)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "rsssim: flight dump:", err)
			return
		}
		fmt.Fprintf(stderr, "flight recorder: %s trigger, ring dumped to %s\n", reason, path)
	}
	return cfg
}

// printClusterTable prints a K-core run as a per-core result table plus
// the cluster aggregates: total IPC, Jain fairness, and the mode-switch
// history. A core that fails validation fails the run.
func printClusterTable(w io.Writer, m *cluster.Machine, stats cluster.Stats, validate func(*repro.Machine) error, elapsed time.Duration) error {
	var err error
	fmt.Fprintf(w, "%-5s %12s %12s %8s  %s\n", "core", "cycles", "retired", "IPC", "status")
	for k, cs := range stats.Cores {
		status := "halt"
		if validate != nil {
			if verr := validate(m.Core(k)); verr != nil {
				status = fmt.Sprintf("validation: %v", verr)
				err = errReported
			} else {
				status = "halt, validated OK"
			}
		}
		fmt.Fprintf(w, "%-5d %12d %12d %8.3f  %s\n", k, cs.Cycles, cs.Retired, cs.IPC(), status)
	}
	fmt.Fprintf(w, "\ncluster: %d cores, mode %s, arbiter %s, %d mode switches\n",
		len(stats.Cores), stats.Mode, stats.Arbiter, stats.ModeSwitches)
	fmt.Fprintf(w, "aggregate IPC: %.3f   fairness (Jain): %.3f\n", stats.AggregateIPC(), stats.Fairness())
	totalCycles := 0
	for _, cs := range stats.Cores {
		totalCycles += cs.Cycles
	}
	fmt.Fprintf(w, "throughput: %d core-cycles in %v = %.3g cycles/sec\n",
		totalCycles, elapsed.Round(time.Microsecond), float64(totalCycles)/elapsed.Seconds())
	return err
}

// printEstimate renders one analytic prediction in the same spirit as
// the run report: headline IPC, the per-class station solutions, and
// the validity envelope the number is only good inside.
func printEstimate(w io.Writer, e repro.Estimate, policy repro.Policy) {
	fmt.Fprintf(w, "analytic estimate (policy %s, model v%d):\n", policy, e.ModelVersion)
	fmt.Fprintf(w, "  predicted IPC      %8.3f\n", e.PredictedIPC)
	fmt.Fprintf(w, "  predicted cycles   %8.0f\n", e.PredictedCycles)
	fmt.Fprintf(w, "  instructions       %8d in %d segments (ILP %.2f)\n", e.Instructions, e.Segments, e.ILP)
	fmt.Fprintf(w, "  reconfig overhead  %8.0f cycles\n", e.ReconfigOverhead)
	fmt.Fprintf(w, "  bottleneck         %s\n", e.Bottleneck)
	for _, c := range e.Classes {
		fmt.Fprintf(w, "  %-7s capacity %5.2f  utilization %5.1f%%  queue delay %6.2f cyc\n",
			c.Unit, c.Capacity, 100*c.Utilization, c.QueueDelay)
	}
	fmt.Fprintf(w, "  envelope: %s\n", e.Envelope)
}

func syntheticProgram(kind string, seed int64) (repro.Program, error) {
	const n = 3000
	switch kind {
	case "int":
		return repro.Synthesize([]repro.Phase{{Mix: repro.MixIntHeavy, Instructions: n}}, seed), nil
	case "fp":
		return repro.Synthesize([]repro.Phase{{Mix: repro.MixFPHeavy, Instructions: n}}, seed), nil
	case "mem":
		return repro.Synthesize([]repro.Phase{{Mix: repro.MixMemHeavy, Instructions: n}}, seed), nil
	case "mdu":
		return repro.Synthesize([]repro.Phase{{Mix: repro.MixMDUHeavy, Instructions: n}}, seed), nil
	case "uniform":
		return repro.Synthesize([]repro.Phase{{Mix: repro.MixUniform, Instructions: n}}, seed), nil
	case "phased":
		return repro.Synthesize([]repro.Phase{
			{Mix: repro.MixIntHeavy, Instructions: n / 4},
			{Mix: repro.MixFPHeavy, Instructions: n / 4},
			{Mix: repro.MixMemHeavy, Instructions: n / 4},
			{Mix: repro.MixFPHeavy, Instructions: n / 4},
		}, seed), nil
	case "alternating":
		return repro.Synthesize(repro.AlternatingPhases(n, 250), seed), nil
	}
	return nil, fmt.Errorf("unknown synthetic workload %q", kind)
}

// writeSpans exports the cluster's span trace to path ("-" for stdout):
// the chrome format renders each core under its own process lane; jsonl
// concatenates the per-core streams (rows carry core labels).
func writeSpans(m *cluster.Machine, recs []*span.Recorder, path, format string, stdout, stderr io.Writer) error {
	w := stdout
	var f *os.File
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		w = f
	}
	var err error
	if format == "jsonl" {
		for _, rec := range recs {
			if err = rec.WriteJSONL(w); err != nil {
				break
			}
		}
	} else {
		err = m.WriteChromeTrace(w)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	dropped := 0
	for _, rec := range recs {
		dropped += rec.Dropped()
	}
	if dropped > 0 {
		fmt.Fprintf(stderr, "span trace: %d entries dropped (trace buffer full; raise SpanConfig.MaxTrace)\n", dropped)
	}
	return nil
}
