package sweep

import (
	"sync/atomic"
	"testing"
)

func TestRunOrderAndCompleteness(t *testing.T) {
	got := Run(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got := Run(0, 4, func(int) int { return 1 }); got != nil {
		t.Errorf("Run(0) = %v", got)
	}
	got := Run(1, 4, func(int) string { return "x" })
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("Run(1) = %v", got)
	}
}

func TestRunDefaultsWorkers(t *testing.T) {
	got := Run(10, 0, func(i int) int { return i })
	for i, v := range got {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestRunActuallyParallel(t *testing.T) {
	var peak, cur atomic.Int32
	gate := make(chan struct{})
	go func() {
		Run(4, 4, func(i int) int {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-gate // hold all workers until everyone arrived
			cur.Add(-1)
			return i
		})
	}()
	// Wait for all four workers to be inside the job.
	for peak.Load() < 4 {
	}
	close(gate)
	if peak.Load() != 4 {
		t.Errorf("peak concurrency = %d, want 4", peak.Load())
	}
}

func TestGridShape(t *testing.T) {
	got := Grid(3, 4, 2, func(r, c int) int { return 10*r + c })
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	for r := range got {
		if len(got[r]) != 4 {
			t.Fatalf("cols = %d", len(got[r]))
		}
		for c := range got[r] {
			if got[r][c] != 10*r+c {
				t.Errorf("grid[%d][%d] = %d", r, c, got[r][c])
			}
		}
	}
}

func TestGridDeterministicAcrossRuns(t *testing.T) {
	f := func() [][]int {
		return Grid(5, 5, 3, func(r, c int) int { return r*c + r + c })
	}
	a, b := f(), f()
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatal("grid not deterministic")
			}
		}
	}
}
