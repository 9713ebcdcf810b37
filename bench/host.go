package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and the inputs a result was measured
// with. Two results compare only when the host, Go version, GC setting
// and inputs (seed, scale, window) match; the commit is what a
// comparison varies.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func hostFingerprint(cfg config) fingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(cfg.root),
		Seed:       cfg.seed,
		Scale:      cfg.scale,
		Seconds:    cfg.seconds,
	}
}

// comparable reports why results measured under a and b must not be
// compared, or nil when they may.
func (a fingerprint) comparable(b fingerprint) error {
	var diffs []string
	check := func(name string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("nproc", a.NProc, b.NProc)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("gogc", a.GOGC, b.GOGC)
	check("go_version", a.GoVersion, b.GoVersion)
	check("seed", a.Seed, b.Seed)
	check("scale", a.Scale, b.Scale)
	check("seconds", a.Seconds, b.Seconds)
	if len(diffs) > 0 {
		return fmt.Errorf("results come from different hosts or inputs: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly, so it works without
// a git binary; outside a git checkout it returns "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// findRoot walks up from the working directory to the repository root:
// the directory holding both go.mod and bench/go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root not found: run from the repository or bench/")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refProbeRate is the host-speed probe's rate, in kernels per
// millisecond, on the reference host the committed results were
// measured on. Timing metrics are scaled by refProbeRate over the rate
// measured during their window, which states them in reference-host
// time and cancels most of a shared host's minute-to-minute speed drift.
const refProbeRate = 16.0

// probeKernel is fixed CPU work that shares no code with the simulator
// or the server: FNV-1a over a 16 KiB buffer, then a sort of 1024
// pseudo-random integers. Both fit in the first-level caches.
func probeKernel(buf []byte, xs []int) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	x := h
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = int(x >> 33)
	}
	sort.Ints(xs)
	return h ^ uint64(xs[len(xs)/2])
}

// hostProbe measures how fast the host executes probeKernel while a
// window runs: every 100 ms it times three bursts of two kernels and
// keeps the fastest, so waiting for a CPU does not count, only how fast
// the CPU runs once it has the probe (about 0.3% of one CPU).
type hostProbe struct {
	stop  chan struct{}
	done  chan struct{}
	rates []float64 // kernels per millisecond, one per tick
	sink  uint64
}

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *hostProbe) loop() {
	defer close(p.done)
	buf := make([]byte, 16<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	xs := make([]int, 1024)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			p.sink += probeKernel(buf, xs) + probeKernel(buf, xs)
			best = min(best, time.Since(start))
		}
		p.rates = append(p.rates, 2/(float64(best)/float64(time.Millisecond)))
	}
}

// end stops the probe and returns its median rate, or refProbeRate when
// the window was too short for a single tick.
func (p *hostProbe) end() float64 {
	close(p.stop)
	<-p.done
	if len(p.rates) == 0 {
		return refProbeRate
	}
	return median(p.rates)
}
