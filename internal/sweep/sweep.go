// Package sweep is a small parallel parameter-sweep harness for the
// experiment grids: it fans a set of independent simulation jobs out over
// a bounded worker pool and returns their results in submission order, so
// experiment tables stay deterministic while wall-clock time drops by the
// core count. Every simulator object is confined to a single worker
// goroutine; only results cross the channel.
package sweep

import (
	"runtime"
	"sync"
)

// Run executes jobs(i) for i in [0, n) on min(workers, n) goroutines and
// returns the results indexed by i. A non-positive workers count uses
// GOMAXPROCS. The job function must be safe to call concurrently for
// different i (each call builds its own machine).
func Run[T any](n, workers int, job func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// Grid runs a two-dimensional sweep — rows x cols independent jobs — and
// returns results[row][col], again in deterministic order.
func Grid[T any](rows, cols, workers int, job func(row, col int) T) [][]T {
	flat := Run(rows*cols, workers, func(i int) T {
		return job(i/cols, i%cols)
	})
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
