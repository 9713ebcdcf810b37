// Command bench is the repository's end-to-end benchmark. Five
// workloads cover the paths people use: an rsssim-style facade run with
// and without observers, short POST /v1/run traffic, /v1/jobs sweeps,
// and interactive /v1/estimate and /v1/run traffic beside a background
// job. Every simulated result is checked against a functional reference
// (and, for the default seed, against pinned digests); every metric is
// printed by name and unit; the last line of output is one JSON result.
//
// Run it from the repository root through bench/run.sh, which builds it
// from source first:
//
//	bash bench/run.sh                          # all workloads, each in a child process
//	bash bench/run.sh -workload serve-short    # one workload in this process
//	bash bench/run.sh -trace 1                 # traced: per-layer metrics
//	bash bench/run.sh -runs 5 -o set.json      # a five-run set
//	bash bench/run.sh -compare A.json B.json   # same-host comparison
//
// See README.md for the workloads, metrics, bounds and how to read the
// traced output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload in this process (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	scale := fs.Float64("scale", 1, "scale factor on program sizes (at most 1; 0.01 for a smoke run)")
	runs := fs.Int("runs", 1, "with every workload: repeat the whole set this many times")
	out := fs.String("o", "", "write a result file (fingerprint plus every run) here")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	if err := checkFlags(fs.NArg(), *trace, *seconds, *scale, *runs, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, root: root, minOps: 100}
	if *workload == "" {
		return runAll(cfg, *runs, *out, stdout)
	}
	rec, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printRun(stdout, rec)
	if *out != "" {
		if err := writeResults(*out, resultFile{Fingerprint: hostFingerprint(cfg), Runs: []*runRecord{rec}}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics.only(defs)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func checkFlags(nargs, trace int, seconds, scale float64, runs int, workload string) error {
	switch {
	case nargs > 0:
		return errors.New("unexpected arguments (only -compare takes file arguments)")
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case seconds <= 0:
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	case scale <= 0 || scale > 1:
		// Above 1 the sweep's 60k-instruction programs outgrow rssd's
		// default 1 MiB request body limit.
		return fmt.Errorf("-scale must be in (0, 1], got %v", scale)
	case runs < 1:
		return fmt.Errorf("-runs must be at least 1, got %d", runs)
	case runs > 1 && workload != "":
		return errors.New("-runs repeats the whole set; drop -workload")
	}
	return nil
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runRecord `json:"runs"`
}

func writeResults(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runAll runs every workload, runs times over, each in a fresh child
// process of this binary, and merges the children's results into one
// result file.
func runAll(cfg config, runs int, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(build, "set-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if out == "" {
		out = filepath.Join(build, "results-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	rf := resultFile{Fingerprint: hostFingerprint(cfg)}
	status := 0
	for r := range runs {
		for _, def := range workloads {
			child := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", def.name, r))
			trace := "0"
			if cfg.trace {
				trace = "1"
			}
			cmd := exec.Command(exe, "-workload", def.name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-scale", fmt.Sprint(cfg.scale), "-o", child)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (run %d): %v\n", def.name, r+1, err)
				status = 1
			}
			got, err := readResults(child)
			if err != nil {
				status = 1
				continue
			}
			rf.Runs = append(rf.Runs, got.Runs...)
		}
	}
	if err := writeResults(out, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printSummary(stdout, rf, cfg.trace)
	fmt.Fprintf(stdout, "results: %s\n", out)
	return status
}
