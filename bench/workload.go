package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix. build makes its inputs from the seed;
// start brings up what it runs against and sends one warm-up request;
// both count as set-up. run performs operations until the meter's
// window closes, recording spans when given a tracer. A traced run then
// calls replay, to time the layers a request passes through, and
// serverLayers, to read what rssd reports about the window.
type workload interface {
	cases() []simCase
	start(chk *checker) error
	run(m *meter, tr *tracer)
	replay(tr *tracer) error
	serverLayers(since time.Time) serverInfo
	close()
}

type workloadDef struct {
	name  string
	why   string
	build func(config) (workload, error)
}

// workloads are the benchmark's five traffic mixes; README.md explains
// what each one exercises and which it bypasses.
var workloads = []workloadDef{
	{"sim-steady", "rsssim-style facade runs, observers off: the cycle loop does nearly all the work; the bypass case for construct, GC and HTTP changes", buildSim(false)},
	{"sim-observed", "the same runs with telemetry and spans attached and a Chrome trace written: the observer layer carries the load; sim-steady is its bypass", buildSim(true)},
	{"serve-short", "short POST /v1/run requests from 2 closed-loop clients: per-request decode, construct, GC and encode dominate", buildServeShort},
	{"sweep-jobs", "60-point /v1/jobs sweeps followed over the events stream: the job coordinator, worker pool, lane batching and 2-core scaling", buildSweepJobs},
	{"mixed-interactive", "estimates and runs from 1 closed-loop client while a background job keeps every worker busy: interactive latency under saturation", buildMixed},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	root     string
	minOps   int // operations a window must complete, so op_p90_ms has 10 samples beyond it
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// pinned reports whether the inputs are the ones testdata/digests.json
// pins.
func (c config) pinned() bool { return c.seed == defaultSeed && c.scale == 1 }

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 9

// runRecord is one run's outcome, as the result line summarises it and
// result files keep it.
type runRecord struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Trace     bool         `json:"trace"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Metrics   metricSet    `json:"metrics"`
	Detail    metricSet    `json:"detail"`
	Layers    []layerShare `json:"layers,omitempty"`
}

// runWorkload sets up the configured workload, measures one window (two
// half windows when traced: untraced, then traced) and returns the run's
// record.
func runWorkload(cfg config) (*runRecord, error) {
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var pinned map[string]counts
	if cfg.pinned() {
		if pinned, err = pinnedDigests(); err != nil {
			return nil, err
		}
	}
	chk := newChecker(pinned)
	w, setups, err := setUp(def, cfg, chk)
	if err != nil {
		return nil, err
	}
	defer w.close()

	rec := &runRecord{Workload: def.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: metricSet{}, Detail: metricSet{}}
	var windows []*meter
	if cfg.trace {
		if windows, err = traced(w, cfg, chk, rec); err != nil {
			return nil, err
		}
	} else {
		probe := startProbe()
		m := newMeter(cfg.window(), cfg.minOps)
		w.run(m, nil)
		endToEndMetrics(rec, m, setups, probe.end())
		windows = []*meter{m}
	}
	detailMetrics(rec.Detail, windows[len(windows)-1])
	for _, m := range windows {
		rec.Attempted += m.attempted
		rec.Failed += m.failed
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// setUp builds and starts the workload setupReps times, timing each,
// and keeps the last instance.
func setUp(def workloadDef, cfg config, chk *checker) (workload, []float64, error) {
	var w workload
	var times []float64
	for range setupReps {
		if w != nil {
			w.close()
		}
		// Every set-up starts from a collected heap, so when a collection
		// falls inside it does not vary from repetition to repetition.
		runtime.GC()
		start := time.Now()
		next, err := def.build(cfg)
		if err == nil {
			if err = next.start(chk); err != nil {
				next.close()
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", def.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		w = next
	}
	return w, times, nil
}

// endToEndMetrics fills the result line's metrics from an untraced
// window, with throughput and latency scaled to reference-host time by
// the probe rate measured during the window. The wall-clock values and
// the probe rate go to the detail lines.
func endToEndMetrics(rec *runRecord, m *meter, setups []float64, probeRate float64) {
	s, d := rec.Metrics, rec.Detail
	slowdown := refProbeRate / probeRate // > 1 when the host ran slower than the reference
	mcps := float64(m.cycles) / m.elapsed().Seconds() / 1e6
	lat := sorted(m.opLat)
	p50, _ := percentile(lat, 0.50)
	p90, ok := percentile(lat, 0.90)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: op_p90 rests on %d operations, fewer than the 100 the percentile rule asks\n", len(lat))
	}
	s.setN("setup_s", median(setups), "s", len(setups))
	s.set("sim_mcycles_per_ref_s", mcps*slowdown, "Mcycles/ref_s")
	s.setN("op_p50_ref_ms", p50/slowdown, "ref_ms", len(lat))
	s.setN("op_p90_ref_ms", p90/slowdown, "ref_ms", len(lat))
	rss, err := peakRSSMiB()
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rss = float64(ms.Sys) / (1 << 20)
	}
	s.set("peak_rss_mb", rss, "MiB")
	d.set("sim_mcycles_per_s", mcps, "Mcycles/s")
	d.setN("op_p50_ms", p50, "ms", len(lat))
	d.setN("op_p90_ms", p90, "ms", len(lat))
	d.set("host.probe_rate", probeRate, "kernels/ms")
}

// detailMetrics adds the workload-specific end-to-end numbers: every
// latency series' median and highest allowed percentile, throughput by
// kind, and the failed fraction.
func detailMetrics(s metricSet, m *meter) {
	el := m.elapsed().Seconds()
	for _, kind := range sortedKeys(m.lat) {
		lat := sorted(m.lat[kind])
		p50, _ := percentile(lat, 0.50)
		s.setN(kind+"_p50_ms", p50, "ms", len(lat))
		if name, v, ok := tail(lat); ok {
			s.setN(kind+"_"+name+"_ms", v, "ms", len(lat))
		}
		if kind != "job" {
			s.set(kind+"s_per_s", float64(len(lat))/el, "1/s")
		}
	}
	for _, name := range sortedKeys(m.counters) {
		s.set(name+"_per_s", float64(m.counters[name])/el, "1/s")
	}
	if m.attempted > 0 {
		s.set("failed_frac", float64(m.failed)/float64(m.attempted), "ratio")
	}
}

// traced measures an untraced half window, then a traced one under the
// CPU profiler with the benchmark's spans on, then replays requests
// through their layers, and fills the per-layer metrics. It returns the
// two windows' meters, the traced one last.
func traced(w workload, cfg config, chk *checker, rec *runRecord) ([]*meter, error) {
	half := cfg.window() / 2
	probe := startProbe()
	mu := newMeter(half, 1)
	w.run(mu, nil)
	rateU := probe.end()

	dir := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, fmt.Sprintf("cpu-%d-%s.pprof", os.Getpid(), cfg.workload))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(profPath)
	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, since := cpuTime(), time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	probe = startProbe()
	mt := newMeter(half, 1)
	w.run(mt, tr)
	rateT := probe.end()
	pprof.StopCPUProfile()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	if err := f.Close(); err != nil {
		return nil, err
	}
	info := w.serverLayers(since)
	if err := w.replay(tr); err != nil {
		return nil, fmt.Errorf("replaying requests: %w", err)
	}
	stacks, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	layers, total := attribute(stacks)
	rec.Layers = layers
	layerMetrics(rec, layerInputs{
		untraced: mu, traced: mt, untracedRate: rateU, tracedRate: rateT,
		layers: layers, total: total, tr: tr, chk: chk, info: info,
		cpu: cpu1 - cpu0, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	})
	return []*meter{mu, mt}, nil
}

type layerInputs struct {
	untraced, traced *meter
	// probe rates of the two halves, so host drift between them does not
	// read as tracing overhead
	untracedRate, tracedRate float64
	layers                   []layerShare
	total                    time.Duration
	tr                       *tracer
	chk                      *checker
	info                     serverInfo
	cpu                      time.Duration
	allocBytes               uint64
}

// layerMetrics fills the per-layer metrics: the ones every workload
// exercises go to rec.Metrics (the result line), the rest to rec.Detail
// where this workload exercises them.
func layerMetrics(rec *runRecord, in layerInputs) {
	s, d := rec.Metrics, rec.Detail
	cycles := float64(in.traced.cycles)
	cpuOf := map[string]float64{}
	for _, l := range in.layers {
		cpuOf[l.Layer] = l.CPUms * 1e6 // ns
	}
	perCycle := func(ns float64) float64 {
		if cycles == 0 {
			return 0
		}
		return ns / cycles
	}
	s.set("sim.ns_per_cycle", perCycle(float64(in.total)), "ns/cycle")
	for _, layer := range []string{"cpu.retire", "cpu.issue", "cpu.execute", "cpu.dispatch", "cpu.fill", "wakeup", "fetch", "rfu", "isa", "core", "mem"} {
		s.set(layer+".ns_per_cycle", perCycle(cpuOf[layer]), "ns/cycle")
	}
	for _, layer := range []string{"cpu.cycle", "predict", "observer"} {
		if cpuOf[layer] > 0 {
			d.set(layer+".ns_per_cycle", perCycle(cpuOf[layer]), "ns/cycle")
		}
	}
	for _, name := range []string{"repro.construct", "repro.report"} {
		v, n := in.tr.medianUs(name)
		s.setN(name+".us", v, "us", n)
	}
	for _, name := range []string{"api.decode", "api.encode", "isa.decode_words", "isa.assemble", "queue.estimate"} {
		if v, n := in.tr.medianUs(name); n > 0 {
			d.setN(name+".us", v, "us", n)
		}
	}
	share := 0.0
	if in.total > 0 {
		share = cpuOf["runtime.gc"] / float64(in.total)
	}
	s.set("runtime.gc.share", share, "ratio")
	units := in.traced.attempted - in.traced.failed
	s.set("runtime.alloc_kb_per_op", float64(in.allocBytes)/1024/float64(max(units, 1)), "KiB")
	el := in.traced.elapsed()
	s.set("runtime.cpu_util", float64(in.cpu)/(float64(el)*float64(runtime.NumCPU())), "ratio")
	if ops := in.traced.ops; ops > 0 {
		d.set("mem.us_per_op", cpuOf["mem"]/1e3/float64(ops), "us")
	}

	t := in.chk.totals()
	s.set("cpu.ipc", ratio(t.Retired, t.Cycles), "instr/cycle")
	s.set("core.steer_cache.hit_ratio", ratio(t.steerHits, t.steerHits+t.steerMisses), "ratio")
	s.set("core.reconfigs_per_kcycle", 1000*ratio(t.reconfigs, t.Cycles), "1/kcycle")
	if t.prefetchIssued > 0 {
		d.set("predict.confirmed_ratio", ratio(t.prefetchConfirmed, t.prefetchIssued), "ratio")
	}

	rate := func(m *meter, probe float64) float64 { return float64(m.cycles) / m.elapsed().Seconds() / probe }
	overhead := 0.0
	if r := rate(in.traced, in.tracedRate); r > 0 {
		overhead = rate(in.untraced, in.untracedRate) / r
	}
	s.set("trace.overhead_ratio", overhead, "ratio")
	s.set("attribution.named_share", namedShare(in.layers), "ratio")

	serverDetail(d, in.info, in.traced)
}

// serverDetail adds what rssd reports about the traced window: queue
// waits and the request overhead outside rssd's own spans, job-point
// batching, the program cache and the model's solve time.
func serverDetail(d metricSet, info serverInfo, m *meter) {
	var runWait, pointWait []float64
	runServer := map[uint64]float64{} // per /v1/run request: queue-wait + execute + encode, µs
	batches := map[[2]int64]int{}     // job points sharing a request and start time ran as one batch
	for _, sp := range info.spans {
		switch {
		case sp.Kind == "run" && (sp.Name == "queue-wait" || sp.Name == "execute" || sp.Name == "encode"):
			runServer[sp.Req] += float64(sp.DurUs)
			if sp.Name == "queue-wait" {
				runWait = append(runWait, float64(sp.DurUs))
			}
		case sp.Kind == "job_point" && sp.Name == "queue-wait":
			pointWait = append(pointWait, float64(sp.DurUs)/1e3)
		case sp.Kind == "job_point" && sp.Name == "point":
			batches[[2]int64{int64(sp.Req), sp.StartUs}]++
		}
	}
	if len(runWait) > 0 {
		w := sorted(runWait)
		p50, _ := percentile(w, 0.50)
		d.setN("server.queue_wait.p50_us", p50, "us", len(w))
		if name, v, ok := tail(w); ok {
			d.setN("server.queue_wait."+name+"_us", v, "us", len(w))
		}
		var perReq []float64
		for _, v := range runServer {
			perReq = append(perReq, v)
		}
		if client := m.lat["run"]; len(client) > 0 {
			d.setN("server.overhead.us", median(client)*1e3-median(perReq), "us", len(perReq))
		}
	}
	if len(pointWait) > 0 {
		d.setN("job.point_queue_wait.ms", median(pointWait), "ms", len(pointWait))
	}
	if len(batches) > 0 {
		points := 0
		for _, n := range batches {
			points += n
		}
		d.setN("job.points_per_batch", float64(points)/float64(len(batches)), "points", len(batches))
	}
	hits, hok := promValue(info.metrics, "rssd_program_cache_hits_total")
	misses, mok := promValue(info.metrics, "rssd_program_cache_misses_total")
	if hok && mok && hits+misses > 0 {
		d.set("server.program_cache.hit_ratio", hits/(hits+misses), "ratio")
	}
	if solve := m.side["estimate_solve_us"]; len(solve) > 0 {
		d.setN("queue.solve.us", median(solve), "us", len(solve))
	}
}

// promValue reads an unlabelled sample from Prometheus text.
func promValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f, err == nil
		}
	}
	return 0, false
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
