package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of a comparison, following the choosing-metrics rules: a
// metric is worse when B's median is worse than A's by more than the
// metric's bound; unresolved when either side's spread (interquartile
// distance over median) exceeds the bound, unless every B run beats
// every A run; improved only with at least 10 pairs of which B wins 9
// in 10, and medians further apart than A's interquartile distance;
// unchanged otherwise. setup_s is judged on its median alone: a set-up
// takes milliseconds, so its spread is wide, and a set-up that got
// slower still moves the median.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// comparison is one (workload, metric) row of a comparison.
type comparison struct {
	workload, metric string
	a, b             []float64
	change           float64 // (median B - median A) / median A
	wins, pairs      int
	verdict          string
}

func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files: -compare A.json B.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := a.Fingerprint.comparable(b.Fingerprint); err != nil {
		fmt.Fprintln(os.Stderr, "bench: refusing to compare:", err)
		return 2
	}
	rows := compareSets(a, b)
	fmt.Fprintf(stdout, "A: %s (commit %.12s)\nB: %s (commit %.12s)\n", args[0], a.Fingerprint.Commit, args[1], b.Fingerprint.Commit)
	fmt.Fprintf(stdout, "%-18s %-18s %26s %26s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "wins", "verdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-18s %-18s %26s %26s %+7.1f%% %6s  %s\n", r.workload, r.metric,
			quartileCell(r.a), quartileCell(r.b), 100*r.change, fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
		if r.verdict == verdictWorse {
			status = 1
		}
	}
	return status
}

func quartileCell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// compareSets compares the untraced runs of two result files, workload
// by workload, on every end-to-end metric and on the failed fraction.
func compareSets(a, b resultFile) []comparison {
	var rows []comparison
	for _, def := range workloads {
		ra, rb := untracedRuns(a, def.name), untracedRuns(b, def.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			rows = append(rows, compareMetric(def.name, m, metricValues(ra, m.Name), metricValues(rb, m.Name)))
		}
		rows = append(rows, compareFailures(def.name, ra, rb))
	}
	return rows
}

func untracedRuns(rf resultFile, workload string) []*runRecord {
	var out []*runRecord
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(runs []*runRecord, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// compareMetric gives one metric's verdict. Pairs are runs of equal
// index on each side, which the caller is expected to have alternated.
func compareMetric(workload string, def metricDef, a, b []float64) comparison {
	c := comparison{workload: workload, metric: def.Name, a: a, b: b}
	better := func(x, y float64) bool { // x reads better than y
		if def.Better == "lower" {
			return x < y
		}
		return x > y
	}
	medA, medB := median(a), median(b)
	if medA != 0 {
		c.change = (medB - medA) / math.Abs(medA)
	}
	c.pairs = min(len(a), len(b))
	for i := range c.pairs {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	worsening := c.change
	if def.Better == "higher" {
		worsening = -c.change
	}
	dominates := better(worstOf(b, def), bestOf(a, def))
	q1A, q3A := quartiles(a)
	switch {
	case worsening > def.Bound:
		c.verdict = verdictWorse
	case def.Name != "setup_s" && (spread(a) > def.Bound || spread(b) > def.Bound) && !dominates:
		c.verdict = verdictUnresolved
	case c.pairs >= minPairs && 10*c.wins >= 9*c.pairs && math.Abs(medB-medA) > q3A-q1A && better(medB, medA):
		c.verdict = verdictImproved
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

func worstOf(xs []float64, def metricDef) float64 {
	if def.Better == "lower" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func bestOf(xs []float64, def metricDef) float64 {
	if def.Better == "lower" {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}

// compareFailures compares the failed fraction of all attempted
// operations: any increase is a regression.
func compareFailures(workload string, a, b []*runRecord) comparison {
	frac := func(runs []*runRecord) float64 {
		attempted, failed := 0, 0
		for _, r := range runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		return ratio(failed, attempted)
	}
	fa, fb := frac(a), frac(b)
	c := comparison{workload: workload, metric: "failed_frac", a: []float64{fa}, b: []float64{fb}, verdict: verdictUnchanged}
	if fb > fa {
		c.verdict = verdictWorse
	}
	return c
}
