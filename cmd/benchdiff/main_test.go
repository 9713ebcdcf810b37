package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLineStandard(t *testing.T) {
	name, ns, ok := parseLine("BenchmarkFig2SelectionUnit-8   \t 7651778\t       155.0 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if name != "BenchmarkFig2SelectionUnit" || ns != 155.0 {
		t.Fatalf("name/ns = %q/%v", name, ns)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	name, ns, ok := parseLine("BenchmarkX1Phased/steering-4     343   3506586 ns/op     0.8123 IPC     3.456 Mcycles/s   1048576 B/op   8089 allocs/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if name != "BenchmarkX1Phased/steering" || ns != 3506586 {
		t.Fatalf("name/ns = %q/%v", name, ns)
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \trepro\t12.3s",
		"goos: linux",
		"BenchmarkFoo", // no fields
		"Benchmarking is fun 3 ns/op",
		"BenchmarkOdd-8 100 1.0", // dangling value without unit
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("line %q parsed as a result", line)
		}
	}
}

func TestParseStream(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkFig3CEMBehavioural-8   	246170518	         4.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig3CEMGateLevel-8   	 1000000	      1137 ns/op	     488 B/op	      53 allocs/op
BenchmarkFig3CEMGateLevel-8   	 1000000	      1012 ns/op	     488 B/op	      53 allocs/op
BenchmarkFig3CEMGateLevel-8   	 1000000	      1250 ns/op	     488 B/op	      53 allocs/op
PASS
ok  	repro	3.1s
`
	rs, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(rs), rs)
	}
	if rs["BenchmarkFig3CEMBehavioural"] != 4.9 || rs["BenchmarkFig3CEMGateLevel"] != 1012 {
		t.Fatalf("results = %v (duplicates must keep the fastest run)", rs)
	}
}

// benchOut renders `go test -bench` output with one result line per
// name/ns pair, between the header and trailer go test prints.
func benchOut(lines ...string) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for _, l := range lines {
		f := strings.Fields(l)
		b.WriteString(f[0] + "-2   \t 20000\t " + f[1] + " ns/op\t 0 B/op\t 0 allocs/op\n")
	}
	b.WriteString("PASS\nok  \trepro\t1.0s\n")
	return b.String()
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, head string
		require    string
		wantCode   int
		want       []string
	}{
		{
			name:     "within threshold",
			base:     benchOut("BenchmarkA 100", "BenchmarkB 50"),
			head:     benchOut("BenchmarkA 110", "BenchmarkB 45"),
			require:  "A,B",
			wantCode: 0,
			want:     []string{"ok       BenchmarkA", "ok       BenchmarkB", "PASS: 2 benchmark(s) within 15%"},
		},
		{
			name:     "regression beyond threshold",
			base:     benchOut("BenchmarkA 100", "BenchmarkB 50"),
			head:     benchOut("BenchmarkA 116", "BenchmarkB 50"),
			wantCode: 1,
			want:     []string{"REGRESS  BenchmarkA", "+16.0%", "ok       BenchmarkB", "FAIL:"},
		},
		{
			name:     "required name missing from head",
			base:     benchOut("BenchmarkA 100", "BenchmarkB 50"),
			head:     benchOut("BenchmarkA 100"),
			require:  "A,B",
			wantCode: 1,
			want:     []string{"MISSING  BenchmarkB", "SKIP     BenchmarkB", "FAIL:"},
		},
		{
			name:     "slow duplicate in head",
			base:     benchOut("BenchmarkA 100"),
			head:     benchOut("BenchmarkA 180", "BenchmarkA 105", "BenchmarkA 300"),
			require:  "A",
			wantCode: 0,
			want:     []string{"ok       BenchmarkA", "100.0 ->      105.0", "PASS: 1 benchmark(s)"},
		},
		{
			name:     "slow duplicate in base",
			base:     benchOut("BenchmarkA 400", "BenchmarkA 100"),
			head:     benchOut("BenchmarkA 112"),
			wantCode: 0,
			want:     []string{"ok       BenchmarkA", "100.0 ->      112.0", "PASS: 1 benchmark(s)"},
		},
		{
			name:     "base-only and head-only names",
			base:     benchOut("BenchmarkA 100", "BenchmarkOld 10"),
			head:     benchOut("BenchmarkA 100", "BenchmarkNew 20"),
			wantCode: 0,
			want:     []string{"SKIP     BenchmarkOld", "NEW      BenchmarkNew", "PASS: 1 benchmark(s)"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath := filepath.Join(dir, "base.out")
			headPath := filepath.Join(dir, "head.out")
			if err := os.WriteFile(basePath, []byte(tc.base), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(headPath, []byte(tc.head), 0o644); err != nil {
				t.Fatal(err)
			}
			args := []string{"-base", basePath, "-in", headPath}
			if tc.require != "" {
				args = append(args, "-require", tc.require)
			}
			var out strings.Builder
			if code := run(args, &out); code != tc.wantCode {
				t.Errorf("exit %d, want %d\n%s", code, tc.wantCode, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.out")
	empty := filepath.Join(dir, "empty.out")
	if err := os.WriteFile(good, []byte(benchOut("BenchmarkA 100")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", good},                                   // no -base
		{"-baseline", good, "-in", good},                // the removed flag
		{"-base", good, "-in", good, "-threshold", "0"}, // non-positive threshold
		{"-base", filepath.Join(dir, "absent.out"), "-in", good},
		{"-base", empty, "-in", good}, // no results on one side
	} {
		if code := run(args, &strings.Builder{}); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
