package main

import (
	"fmt"
	"io"
	"strings"
)

// printRun prints one run for people: the result-line metrics, the
// workload's detail numbers and, when traced, the per-layer table.
func printRun(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  attempted=%d  failed=%d  correct=%v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		printMetric(w, d.Name, rec.Metrics[d.Name])
	}
	fmt.Fprintln(w, "  -- detail")
	for _, name := range sortedKeys(rec.Detail) {
		printMetric(w, name, rec.Detail[name])
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintln(w, "  -- CPU profile by layer (traced window)")
		for _, l := range rec.Layers {
			fmt.Fprintf(w, "  %-28s %9.0f ms  %5.1f%%\n", l.Layer, l.CPUms, 100*l.Share)
		}
	}
}

func printMetric(w io.Writer, name string, m metric) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf("  (n=%d)", m.N)
	}
	fmt.Fprintf(w, "  %-34s %12.4f %s%s\n", name, m.Value, m.Unit, n)
}

// printSummary prints, for each workload of a set, every result-line
// metric's median over the set's runs.
func printSummary(w io.Writer, rf resultFile, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "== summary: medians over runs (%s, %d CPUs, %s, commit %.12s)\n",
		rf.Fingerprint.CPUModel, rf.Fingerprint.NProc, rf.Fingerprint.GoVersion, rf.Fingerprint.Commit)
	for _, def := range workloads {
		values := map[string][]float64{}
		runs, failed := 0, 0
		for _, r := range rf.Runs {
			if r.Workload != def.name {
				continue
			}
			runs++
			failed += r.Failed
			for _, d := range defs {
				values[d.Name] = append(values[d.Name], r.Metrics[d.Name].Value)
			}
		}
		if runs == 0 {
			continue
		}
		var cells []string
		for _, d := range defs {
			cells = append(cells, fmt.Sprintf("%s=%.4g", d.Name, median(values[d.Name])))
		}
		fmt.Fprintf(w, "  %-18s runs=%d failed=%d  %s\n", def.name, runs, failed, strings.Join(cells, " "))
	}
}
