// Command benchdiff compares two `go test -bench` outputs, one from a
// base build and one from a head build measured on the same host, and
// fails when ns/op regresses beyond a threshold — the CI gate that
// keeps the zero-allocation cycle loop and the selection-unit fast path
// from eroding silently.
//
// Usage:
//
//	benchdiff -base base.out -in head.out
//	benchdiff -base base.out -in head.out -threshold 15 -require Fig2SelectionUnit,Fig3CEMBehavioural
//	go test -run '^$' -bench Fig2 . | benchdiff -base base.out
//
// Each side may hold several runs of a name (-count > 1, or rounds
// appended to one file); the fastest is kept, damping scheduler noise.
// Benchmarks present in only one side are reported and skipped, never
// fatal: head-only names print as NEW, base-only names as SKIP. -require
// names benchmarks that must appear in the head run, so a gate that must
// compare something cannot silently pass because its subject was
// renamed away. Exit status: 0 clean, 1 regression or missing required
// benchmark, 2 usage or I/O error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command with its arguments and standard output passed in;
// it returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		basePath  = fs.String("base", "", "`file` holding the base build's go test -bench output (required)")
		inPath    = fs.String("in", "-", "`file` holding the head build's go test -bench output (\"-\" for stdin)")
		threshold = fs.Float64("threshold", 15, "maximum allowed ns/op regression in percent")
		require   = fs.String("require", "", "comma-separated benchmark names (without the Benchmark prefix) that must appear in the head run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base is required")
		fs.Usage()
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: -threshold must be positive, got %g\n", *threshold)
		return 2
	}

	base, err := readFresh(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	head, err := readFresh(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results in one of the inputs")
		return 2
	}

	failed := false
	for _, name := range splitList(*require) {
		full := "Benchmark" + name
		if _, ok := head[full]; !ok {
			fmt.Fprintf(stdout, "MISSING  %-45s required benchmark absent from head run\n", full)
			failed = true
		}
	}

	compared := 0
	for _, name := range sortedNames(head) {
		cur := head[name]
		ref, ok := base[name]
		if !ok {
			fmt.Fprintf(stdout, "NEW      %-45s %10.1f ns/op (not in base)\n", name, cur)
			continue
		}
		if ref <= 0 {
			continue
		}
		compared++
		pct := 100 * (cur - ref) / ref
		if pct > *threshold {
			fmt.Fprintf(stdout, "REGRESS  %-45s %10.1f -> %10.1f ns/op  %+6.1f%% (limit %+.0f%%)\n",
				name, ref, cur, pct, *threshold)
			failed = true
		} else {
			fmt.Fprintf(stdout, "ok       %-45s %10.1f -> %10.1f ns/op  %+6.1f%%\n",
				name, ref, cur, pct)
		}
	}
	// Base benchmarks the head run did not exercise: a renamed or
	// deleted benchmark. Report and skip; -require is the strict form
	// when a particular comparison must not vanish.
	for _, name := range sortedNames(base) {
		if _, ok := head[name]; !ok {
			fmt.Fprintf(stdout, "SKIP     %-45s in base only; not compared\n", name)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: warning: no benchmark appears in both runs; nothing compared")
	}
	if failed {
		fmt.Fprintf(stdout, "\nFAIL: ns/op regression beyond %.0f%% against %s\n", *threshold, *basePath)
		return 1
	}
	fmt.Fprintf(stdout, "\nPASS: %d benchmark(s) within %.0f%% of %s\n", compared, *threshold, *basePath)
	return 0
}

// readFresh parses a `go test -bench` output file ("-" for stdin) into
// ns/op by benchmark name.
func readFresh(path string) (map[string]float64, error) {
	if path == "-" {
		return parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reads benchmark results from r, skipping non-result lines.
// Duplicate names keep the fastest run.
func parse(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		name, ns, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := out[name]; !seen || ns < prev {
			out[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("reading benchmark output: %w", err)
	}
	return out, nil
}

// parseLine parses one result line of `go test -bench` output, e.g.
//
//	BenchmarkFig2SelectionUnit-8  7651778  155.0 ns/op  0 B/op  0 allocs/op
//
// into its name, with the -GOMAXPROCS suffix stripped (sub-benchmarks
// keep their slash-separated path), and its ns/op (0 when the line
// reports none). ok is false for lines that are not benchmark results.
func parseLine(line string) (name string, nsPerOp float64, ok bool) {
	fields := strings.Fields(line)
	// A result line is "BenchmarkName[-P] N value unit [value unit]...".
	if len(fields) < 4 || (len(fields)-2)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	// The rune after "Benchmark" must be uppercase or a digit — this is
	// how `go test` itself distinguishes benchmark identifiers.
	rest := fields[0][len("Benchmark"):]
	if rest == "" || !(rest[0] >= 'A' && rest[0] <= 'Z' || rest[0] >= '0' && rest[0] <= '9') {
		return "", 0, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name = name[:i]
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", 0, false
	}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, false
		}
		if fields[i+1] == "ns/op" {
			nsPerOp = v
		}
	}
	return name, nsPerOp, true
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
