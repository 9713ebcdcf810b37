package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stack is one distinct call stack of a CPU profile as `go tool pprof
// -traces` prints it: the CPU time sampled in it and its frames, leaf
// first.
type stack struct {
	cpu    time.Duration
	frames []string
}

// foldProfile runs `go tool pprof -traces` over a CPU profile and parses
// its output.
func foldProfile(profile string) ([]stack, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(bytes.NewReader(out))
}

// traceValue matches the first line of a stack block: the sampled time
// and the leaf frame.
var traceValue = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|µs|ms|s|mins|hrs)\s+(\S.*)$`)

var traceUnits = map[string]time.Duration{
	"ns": time.Nanosecond, "us": time.Microsecond, "µs": time.Microsecond,
	"ms": time.Millisecond, "s": time.Second, "mins": time.Minute, "hrs": time.Hour,
}

// parseTraces parses `pprof -traces` text: a header, then blocks
// separated by "-----------+---..." lines, each a value-and-leaf line
// followed by one caller per line. Label lines before the value line
// are skipped; "(inline)" markers are dropped.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		if cur == nil {
			m := traceValue.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing sample value %q: %w", m[1], err)
			}
			out = append(out, stack{cpu: time.Duration(v * float64(traceUnits[m[2]]))})
			cur = &out[len(out)-1]
			cur.frames = append(cur.frames, frameName(m[3]))
			continue
		}
		if f := frameName(line); f != "" {
			cur.frames = append(cur.frames, f)
		}
	}
	return out, sc.Err()
}

func frameName(s string) string {
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "(inline)"))
}

// funcPackage is the import path of a symbol such as
// "repro/internal/cpu.(*Processor).Cycle" or "encoding/json.Unmarshal".
// Symbols without a package, such as the runtime's assembly routines
// gcWriteBarrier and memeqbody, belong to the runtime.
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// transparent packages are helpers whose time belongs to their caller:
// the runtime (allocation, memory clearing, scheduling calls) and the
// general-purpose standard library. A sample is charged past them to
// the innermost frame of a package that names a layer.
func transparent(pkg string) bool {
	switch pkg {
	case "runtime", "sync", "sync/atomic", "reflect", "strconv", "strings", "bytes",
		"sort", "slices", "maps", "math", "math/bits", "unicode", "unicode/utf8",
		"fmt", "errors", "io", "bufio", "context", "time", "iter", "unique", "syscall":
		return true
	}
	return strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "internal/reflectlite" ||
		pkg == "internal/fmtsort" || pkg == "internal/godebug" || pkg == "internal/sync" ||
		pkg == "internal/itoa" || pkg == "internal/chacha8rand"
}

// gcFrames mark a stack as garbage-collector work: background mark
// workers, mark assists, sweeping and scavenging.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC"}

// layerPackages maps a package to its layer. The repository's own
// packages are its layers; a few standard-library packages are layers
// of the service path. Unlisted repository packages are their own
// layer under their last path element.
var layerPackages = map[string]string{
	"repro/internal/core":      "core",
	"repro/internal/cem":       "core",
	"repro/internal/config":    "core",
	"repro/internal/baseline":  "core",
	"repro/internal/telemetry": "observer",
	"repro/internal/span":      "observer",
	"repro/internal/trace":     "observer",
	"repro":                    "repro",
	"main":                     "bench",
	"encoding/json":            "json",
	"net/http":                 "net",
	"net":                      "net",
	"net/textproto":            "net",
	"net/url":                  "net",
	"internal/poll":            "net",
	"os":                       "os",
	"runtime/pprof":            "profiler",
	"compress/flate":           "profiler",
	"compress/gzip":            "profiler",
	"hash/crc32":               "profiler",
}

// cpuStages are the pipeline stage methods of repro/internal/cpu.
var cpuStages = []string{"retire", "issue", "execute", "dispatch", "fill"}

// layerOf charges one stack to a layer: garbage-collector work to
// runtime.gc; otherwise the innermost frame outside the transparent
// packages decides, with repro/internal/cpu split by the pipeline stage
// on the stack ("cpu.cycle" for the rest of the cycle loop); a stack of
// runtime frames only is runtime.sched (scheduler, idle, system calls).
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, gc := range gcFrames {
			if f == gc {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if transparent(pkg) {
			continue
		}
		if pkg == "repro/internal/cpu" {
			return cpuStage(frames)
		}
		if l, ok := layerPackages[pkg]; ok {
			return l
		}
		if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			return rest
		}
		return "other:" + pkg
	}
	return "runtime.sched"
}

func cpuStage(frames []string) string {
	for _, f := range frames {
		for _, st := range cpuStages {
			if f == "repro/internal/cpu.(*Processor)."+st {
				return "cpu." + st
			}
		}
	}
	return "cpu.cycle"
}

// layerShare is one layer's CPU time in a traced window.
type layerShare struct {
	Layer string  `json:"layer"`
	CPUms float64 `json:"cpu_ms"`
	Share float64 `json:"share"`
}

// attribute charges every stack to its layer and returns the layers by
// descending CPU time, plus the total.
func attribute(stacks []stack) ([]layerShare, time.Duration) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, s := range stacks {
		byLayer[layerOf(s.frames)] += s.cpu
		total += s.cpu
	}
	out := make([]layerShare, 0, len(byLayer))
	for l, d := range byLayer {
		share := 0.0
		if total > 0 {
			share = float64(d) / float64(total)
		}
		out = append(out, layerShare{Layer: l, CPUms: float64(d) / float64(time.Millisecond), Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUms != out[j].CPUms {
			return out[i].CPUms > out[j].CPUms
		}
		return out[i].Layer < out[j].Layer
	})
	return out, total
}

// namedShare is the share of CPU time charged to named layers, that is
// to anything but "other:" packages.
func namedShare(layers []layerShare) float64 {
	named := 0.0
	for _, l := range layers {
		if !strings.HasPrefix(l.Layer, "other:") {
			named += l.Share
		}
	}
	return named
}
