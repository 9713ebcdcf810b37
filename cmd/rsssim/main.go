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
//	rsssim -kernels            # list built-in kernels
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/span"
)

func main() {
	var (
		asmPath    = flag.String("asm", "", "assembly source file to run")
		kernelName = flag.String("kernel", "", "built-in kernel to run")
		synthetic  = flag.String("synthetic", "", "synthetic workload: int, fp, mem, mdu, uniform, phased, alternating")
		policyName = flag.String("policy", repro.PolicySteering.String(), "configuration policy")
		listK      = flag.Bool("kernels", false, "list built-in kernels and exit")
		listP      = flag.Bool("list-policies", false, "list configuration policies and exit")
		maxCycles  = flag.Int("max-cycles", 50_000_000, "cycle budget")
		seed       = flag.Int64("seed", 7, "seed for synthetic workloads / random policy")
		window     = flag.Int("window", 0, "scheduling window size; 0 means use the default (7), negative is an error")
		reconfig   = flag.Int("reconfig-latency", 0, "cycles per RFU span reconfiguration; 0 means use the default (8), negative is an error (near-instant reconfiguration is 1)")
		disableFFU = flag.Bool("no-ffus", false, "disable the fixed functional units (X4 ablation)")
		traceN     = flag.Int("trace", 0, "print a pipeline trace and chart of the first N cycles")
		basisPath  = flag.String("basis", "", "JSON file with a custom 3-configuration steering basis")
		lookahead  = flag.Bool("lookahead", false, "feed the manager fetched-but-undispatched demand too (X10)")
		residency  = flag.Int("residency", 0, "minimum cycles between configuration loads (X11)")
		jsonOut    = flag.Bool("json", false, "emit the run report as JSON instead of text")

		cores       = flag.Int("cores", 1, "run K cores as a reconfigurable cluster sharing one fabric and print per-core plus aggregate IPC")
		clusterMode = flag.String("cluster-mode", "", "cluster fabric-sharing mode: merged (default) or split")
		clusterArb  = flag.String("cluster-arbiter", "", "cluster arbitration policy: round-robin (default) or demand-weighted")
		clusterFlip = flag.Int("cluster-switch-every", 0, "toggle merged/split every N cluster cycles at the next quiescent phase boundary (0 never switches)")

		estimate     = flag.Bool("estimate", false, "also solve the analytic queueing model and print its prediction next to the measured IPC")
		estimateOnly = flag.Bool("estimate-only", false, "print the analytic prediction and skip simulation entirely")

		faultRate     = flag.Float64("fault-rate", 0, "per-slot per-cycle probability of a transient configuration upset (0 disables fault injection)")
		faultPermRate = flag.Float64("fault-permanent-rate", 0, "per-slot per-cycle probability of a permanent configuration fault")
		faultSeed     = flag.Int64("fault-seed", 1, "seed for the fault injector's PRNG stream")
		faultScrub    = flag.Int("fault-scrub-interval", 0, "cycles between readback scrub scans; 0 means the default (64)")

		prefetchOn   = flag.Bool("prefetch", false, "shorthand for -policy prefetch (phase-aware speculative reconfiguration)")
		prefetchHist = flag.Int("prefetch-history", 0, "demand-history ring depth of the prefetch predictor; 0 means the default (32)")
		prefetchConf = flag.Float64("prefetch-confidence", 0, "Markov confidence threshold in (0,1] for speculative loads; 0 means the default (0.55)")

		metricsPath     = flag.String("metrics", "", "write telemetry to this file (\"-\" for stdout)")
		metricsInterval = flag.Int("metrics-interval", repro.DefaultMetricsInterval, "cycles between telemetry samples")
		metricsFormat   = flag.String("metrics-format", "jsonl", "telemetry format: jsonl, csv, prom")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for profiling the simulator")

		spansPath   = flag.String("trace-spans", "", "write a span trace of the run to this file (\"-\" for stdout)")
		spansFormat = flag.String("trace-spans-format", "chrome", "span trace format: chrome (Perfetto-loadable Chrome Trace JSON) or jsonl")
		flightPath  = flag.String("flight-dump", "", "arm the flight recorder: dump the last-N span ring to this file when an anomaly trigger fires (fault storm, IPC collapse)")
	)
	flag.Parse()

	if *window < 0 {
		fail(fmt.Errorf("-window must be non-negative (0 selects the default of 7), got %d", *window))
	}
	if *reconfig < 0 {
		fail(fmt.Errorf("-reconfig-latency must be non-negative (0 selects the default of 8; use 1 for near-instant reconfiguration), got %d", *reconfig))
	}
	if *metricsInterval <= 0 {
		fail(fmt.Errorf("-metrics-interval must be positive, got %d", *metricsInterval))
	}
	if *faultRate < 0 || *faultRate > 1 {
		fail(fmt.Errorf("-fault-rate must be a probability in [0,1], got %g", *faultRate))
	}
	if *faultPermRate < 0 || *faultPermRate > 1 {
		fail(fmt.Errorf("-fault-permanent-rate must be a probability in [0,1], got %g", *faultPermRate))
	}
	if *faultRate+*faultPermRate > 1 {
		fail(fmt.Errorf("-fault-rate + -fault-permanent-rate must not exceed 1, got %g", *faultRate+*faultPermRate))
	}
	if *faultScrub < 0 {
		fail(fmt.Errorf("-fault-scrub-interval must be non-negative (0 selects the default of 64), got %d", *faultScrub))
	}
	if *prefetchHist < 0 {
		fail(fmt.Errorf("-prefetch-history must be non-negative (0 selects the default of 32), got %d", *prefetchHist))
	}
	if *prefetchConf < 0 || *prefetchConf > 1 {
		fail(fmt.Errorf("-prefetch-confidence must be in [0,1] (0 selects the default of 0.55), got %g", *prefetchConf))
	}
	if *spansFormat != "chrome" && *spansFormat != "jsonl" {
		fail(fmt.Errorf("-trace-spans-format must be chrome or jsonl, got %q", *spansFormat))
	}
	if *cores < 1 || *cores > cluster.MaxCores {
		fail(fmt.Errorf("-cores must be in [1,%d], got %d", cluster.MaxCores, *cores))
	}
	if _, err := cluster.ParseMode(*clusterMode); err != nil {
		fail(err)
	}
	if _, err := cluster.ParseArbiter(*clusterArb); err != nil {
		fail(err)
	}
	if *clusterFlip < 0 {
		fail(fmt.Errorf("-cluster-switch-every must be non-negative, got %d", *clusterFlip))
	}
	if *cores > 1 {
		for _, conflict := range []struct {
			set  bool
			name string
		}{
			{*traceN > 0, "-trace"},
			{*flightPath != "", "-flight-dump"},
			{*jsonOut, "-json"},
			{*estimate || *estimateOnly, "-estimate"},
			{*metricsPath != "" && *metricsFormat == "prom", "-metrics-format prom (one registry snapshot cannot merge K cores)"},
		} {
			if conflict.set {
				fail(fmt.Errorf("%s conflicts with -cores", conflict.name))
			}
		}
	}
	if *prefetchOn {
		policySet := false
		flag.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" })
		if policySet && *policyName != repro.PolicyPrefetch.String() {
			fail(fmt.Errorf("-prefetch conflicts with -policy %s", *policyName))
		}
		*policyName = repro.PolicyPrefetch.String()
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rsssim: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *listK {
		for _, k := range repro.Kernels() {
			fmt.Printf("%-10s %s\n", k.Name, k.Description)
		}
		return
	}
	if *listP {
		// The canonical cpu.Policy name table, in declaration order —
		// the same table ParsePolicy and the rssd error envelopes use.
		for _, p := range repro.Policies() {
			fmt.Println(p)
		}
		return
	}

	policy, err := repro.ParsePolicy(*policyName)
	if err != nil {
		fail(err)
	}
	params := repro.DefaultParams()
	params.WindowSize = *window
	params.ReconfigLatency = *reconfig
	params.DisableFFUs = *disableFFU
	params.ManagerLookahead = *lookahead
	params.FaultTransientRate = *faultRate
	params.FaultPermanentRate = *faultPermRate
	params.FaultSeed = *faultSeed
	params.FaultScrubInterval = *faultScrub
	params.PrefetchHistoryDepth = *prefetchHist
	params.PrefetchConfidence = *prefetchConf
	opt := repro.Options{Params: params, Policy: policy, Seed: *seed, MinResidency: *residency}
	if *basisPath != "" {
		data, err := os.ReadFile(*basisPath)
		if err != nil {
			fail(err)
		}
		basis, err := repro.ParseBasis(data)
		if err != nil {
			fail(fmt.Errorf("parsing %s: %w", *basisPath, err))
		}
		opt.Basis = &basis
	}

	// program yields the instruction stream for a seed: the run and the
	// analytic model use the base seed, and a synthetic -cores run draws
	// one variant per core. setup / validate prepare and check one
	// machine (every core of a cluster); nil means nothing to do.
	var program func(seed int64) repro.Program
	var setup func(*repro.Machine)
	var validate func(*repro.Machine) error
	switch {
	case *kernelName != "":
		k := repro.KernelByName(*kernelName)
		if k == nil {
			fail(fmt.Errorf("unknown kernel %q; try -kernels", *kernelName))
		}
		if k.Setup != nil {
			setup = func(m *repro.Machine) {
				k.Setup(m.Processor().Memory(), m.Processor().SetReg)
			}
		}
		if k.Validate != nil {
			validate = func(m *repro.Machine) error {
				return k.Validate(m.Processor().Reg, m.Processor().Memory())
			}
		}
		program = func(int64) repro.Program { return k.Program() }

	case *asmPath != "":
		src, err := os.ReadFile(*asmPath)
		if err != nil {
			fail(err)
		}
		unit, err := repro.AssembleUnit(string(src))
		if err != nil {
			fail(err)
		}
		program = func(int64) repro.Program { return unit.Program }
		setup = func(m *repro.Machine) { unit.Apply(m.Processor().Memory()) }

	case *synthetic != "":
		program = func(seed int64) repro.Program {
			prog, err := syntheticProgram(*synthetic, seed)
			if err != nil {
				fail(err)
			}
			return prog
		}

	default:
		fmt.Fprintln(os.Stderr, "one of -kernel, -asm or -synthetic is required")
		flag.Usage()
		os.Exit(2)
	}

	var est *repro.Estimate
	if *estimate || *estimateOnly {
		e, err := repro.EstimateIPC(program(*seed), opt)
		if err != nil {
			fail(err)
		}
		est = &e
		printEstimate(e, policy)
		if *estimateOnly {
			return
		}
	}

	if *cores > 1 {
		opt.Params.Cores = *cores
		opt.Params.ClusterMode = *clusterMode
		opt.Params.ClusterArbiter = *clusterArb
		runCluster(clusterRunConfig{
			opt: opt, program: program, setup: setup, validate: validate,
			cores: *cores, seed: *seed, maxCycles: *maxCycles, switchEvery: *clusterFlip,
			metricsPath: *metricsPath, metricsFormat: *metricsFormat, metricsInterval: *metricsInterval,
			spansPath: *spansPath, spansFormat: *spansFormat,
		})
		return
	}

	m := repro.NewMachine(program(*seed), opt)
	if setup != nil {
		setup(m)
	}

	if *traceN > 0 {
		m.EnableTracingUntil(64**traceN, *traceN)
	}
	var metricsFile *os.File
	if *metricsPath != "" {
		var w io.Writer
		if *metricsPath == "-" {
			w = os.Stdout
		} else {
			f, err := os.Create(*metricsPath)
			if err != nil {
				fail(err)
			}
			metricsFile = f
			w = f
		}
		if _, err := m.EnableTelemetry(w, *metricsFormat, *metricsInterval); err != nil {
			fail(err)
		}
	}
	if *spansPath != "" || *flightPath != "" {
		var cfg repro.SpanConfig
		if *flightPath != "" {
			// Dump the flight ring once, at the first anomaly, so the
			// file captures the spans surrounding the trigger rather
			// than whatever the ring holds at exit.
			dumped := false
			path := *flightPath
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
					fmt.Fprintln(os.Stderr, "rsssim: flight dump:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "flight recorder: %s trigger, ring dumped to %s\n", reason, path)
			}
		}
		m.EnableSpans(cfg)
	}
	_, runErr := m.Run(*maxCycles)
	if rec := m.Spans(); rec != nil {
		if *spansPath != "" {
			writeSpans(rec, *spansPath, *spansFormat)
		}
		if *flightPath != "" && rec.Triggers() == 0 {
			fmt.Fprintln(os.Stderr, "flight recorder: no anomaly triggers fired; no dump written")
		}
	}
	if runErr != nil {
		fail(runErr)
	}
	if metricsFile != nil {
		// Run flushed the exporter; surface close errors so a full disk
		// is not silent.
		if err := metricsFile.Close(); err != nil {
			fail(err)
		}
	}
	if validate != nil {
		if err := validate(m); err != nil {
			fail(fmt.Errorf("validation: %w", err))
		}
		fmt.Println("kernel output validated OK")
	}
	if *traceN > 0 {
		fmt.Printf("pipeline chart, cycles 0..%d (F fetch, D dispatch, I issue, = executing, R retire, x flushed):\n", *traceN)
		fmt.Println(m.Pipeview(0, *traceN))
	}
	if est != nil {
		// The line the flag exists for: model next to measurement. On
		// -json it goes to stderr so the report stays machine-parseable.
		out := io.Writer(os.Stdout)
		if *jsonOut {
			out = os.Stderr
		}
		measured := m.Stats().IPC()
		errPct := 0.0
		if measured > 0 {
			errPct = 100 * (est.PredictedIPC - measured) / measured
		}
		fmt.Fprintf(out, "analytic model: predicted IPC %.3f vs measured %.3f (%+.1f%%)\n",
			est.PredictedIPC, measured, errPct)
	}
	if *jsonOut {
		data, err := m.ReportJSON()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Print(m.Report())
}

// printEstimate renders one analytic prediction in the same spirit as
// the run report: headline IPC, the per-class station solutions, and
// the validity envelope the number is only good inside.
func printEstimate(e repro.Estimate, policy repro.Policy) {
	fmt.Printf("analytic estimate (policy %s, model v%d):\n", policy, e.ModelVersion)
	fmt.Printf("  predicted IPC      %8.3f\n", e.PredictedIPC)
	fmt.Printf("  predicted cycles   %8.0f\n", e.PredictedCycles)
	fmt.Printf("  instructions       %8d in %d segments (ILP %.2f)\n", e.Instructions, e.Segments, e.ILP)
	fmt.Printf("  reconfig overhead  %8.0f cycles\n", e.ReconfigOverhead)
	fmt.Printf("  bottleneck         %s\n", e.Bottleneck)
	for _, c := range e.Classes {
		fmt.Printf("  %-7s capacity %5.2f  utilization %5.1f%%  queue delay %6.2f cyc\n",
			c.Unit, c.Capacity, 100*c.Utilization, c.QueueDelay)
	}
	fmt.Printf("  envelope: %s\n", e.Envelope)
}

// clusterRunConfig carries the -cores run's inputs to runCluster.
type clusterRunConfig struct {
	opt                        repro.Options
	program                    func(int64) repro.Program
	setup                      func(*repro.Machine)
	validate                   func(*repro.Machine) error
	cores                      int
	seed                       int64
	maxCycles                  int
	switchEvery                int
	metricsPath, metricsFormat string
	metricsInterval            int
	spansPath, spansFormat     string
}

// runCluster runs K cores against the shared reconfigurable fabric and
// prints a per-core result table plus the cluster aggregates: total
// IPC, Jain fairness, and the mode-switch history. Synthetic workloads
// draw per-core variants (seeds seed..seed+K-1); kernels and assembly
// run the same program on every core.
func runCluster(cfg clusterRunConfig) {
	progs := make([]repro.Program, cfg.cores)
	for i := range progs {
		progs[i] = cfg.program(cfg.seed + int64(i))
	}
	c := cluster.NewMulti(progs, cfg.opt)
	if cfg.setup != nil {
		for k := 0; k < cfg.cores; k++ {
			cfg.setup(c.Core(k))
		}
	}
	if cfg.switchEvery > 0 {
		c.SetSwitchEvery(cfg.switchEvery)
	}
	var metricsFile *os.File
	if cfg.metricsPath != "" {
		w := io.Writer(os.Stdout)
		if cfg.metricsPath != "-" {
			f, err := os.Create(cfg.metricsPath)
			if err != nil {
				fail(err)
			}
			metricsFile = f
			w = f
		}
		if err := c.EnableTelemetry(w, cfg.metricsFormat, cfg.metricsInterval); err != nil {
			fail(err)
		}
	}
	var recs []*span.Recorder
	if cfg.spansPath != "" {
		recs = c.EnableSpans(repro.SpanConfig{})
	}
	start := time.Now()
	stats, runErr := c.Run(cfg.maxCycles)
	elapsed := time.Since(start)
	if recs != nil {
		writeClusterSpans(c, recs, cfg.spansPath, cfg.spansFormat)
	}
	if runErr != nil {
		fail(runErr)
	}
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fail(err)
		}
	}

	failed := false
	fmt.Printf("%-5s %12s %12s %8s  %s\n", "core", "cycles", "retired", "IPC", "status")
	for k, cs := range stats.Cores {
		status := "halt"
		if cfg.validate != nil {
			if err := cfg.validate(c.Core(k)); err != nil {
				status = fmt.Sprintf("validation: %v", err)
				failed = true
			} else {
				status = "halt, validated OK"
			}
		}
		fmt.Printf("%-5d %12d %12d %8.3f  %s\n", k, cs.Cycles, cs.Retired, cs.IPC(), status)
	}
	fmt.Printf("\ncluster: %d cores, mode %s, arbiter %s, %d mode switches\n",
		cfg.cores, stats.Mode, stats.Arbiter, stats.ModeSwitches)
	fmt.Printf("aggregate IPC: %.3f   fairness (Jain): %.3f\n", stats.AggregateIPC(), stats.Fairness())
	totalCycles := 0
	for _, cs := range stats.Cores {
		totalCycles += cs.Cycles
	}
	fmt.Printf("throughput: %d core-cycles in %v = %.3g cycles/sec\n",
		totalCycles, elapsed.Round(time.Microsecond), float64(totalCycles)/elapsed.Seconds())
	if failed {
		os.Exit(1)
	}
}

// writeClusterSpans exports the cluster's combined span trace: the
// chrome format renders each core under its own process lane; jsonl
// concatenates the per-core streams (rows carry core labels).
func writeClusterSpans(c *cluster.Machine, recs []*span.Recorder, path, format string) {
	var w io.Writer = os.Stdout
	var f *os.File
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			fail(err)
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
		err = c.WriteChromeTrace(w)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}
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

// writeSpans exports the recorded span trace to path ("-" for stdout)
// in the requested format.
func writeSpans(rec *span.Recorder, path, format string) {
	var w io.Writer = os.Stdout
	var f *os.File
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			fail(err)
		}
		w = f
	}
	var err error
	if format == "jsonl" {
		err = rec.WriteJSONL(w)
	} else {
		err = rec.WriteChromeTrace(w)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "span trace: %d entries dropped (trace buffer full; raise SpanConfig.MaxTrace)\n", n)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rsssim:", err)
	os.Exit(1)
}
