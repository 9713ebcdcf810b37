package wakeup

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/arch"
)

// FuzzWakeupArray drives the array through arbitrary Allocate, Grant,
// Reschedule, ExtendTimer, Tick, Advance and Release sequences and,
// after every operation, checks the incrementally kept boards against a
// from-scratch recomputation: RequestMask against Request row by row for
// every unit-availability set and against the gate-level CircuitRequest
// (Fig. 6) for one, ReadyMask against Request with every unit
// available, and RequiredCounts against a count of the unscheduled
// rows. A per-row countdown model (§4.1: N-1 at grant, one per Tick)
// holds the result-available lines and NextEvent to the deadline wheel.
func FuzzWakeupArray(f *testing.F) {
	f.Add([]byte{6, 0, 0, 0, 1, 0, 1, 9, 2, 1, 0, 0, 4, 0, 5, 1, 0})
	f.Add([]byte{63, 0, 63, 3, 7, 0, 0, 1, 1, 1, 0, 3, 0, 2, 4, 4, 4, 5, 0, 0})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 3, 0, 4, 5, 1, 4, 4, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a := New(1 + int(data[0])%MaxSize)
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Dependency masks come from a generator seeded by the input, so
		// short inputs still reach dense dependency graphs.
		var state uint64 = 0x9E3779B97F4A7C15
		draw := func() uint64 {
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			return z ^ z>>31
		}
		// pick returns the k-th set row of m (k taken modulo its size).
		pick := func(m uint64, k byte) (int, bool) {
			n := bits.OnesCount64(m)
			if n == 0 {
				return 0, false
			}
			for skip := int(k) % n; skip > 0; skip-- {
				m &= m - 1
			}
			return bits.TrailingZeros64(m), true
		}
		// The countdown model: each row's latency, timer and line.
		var lat, left [MaxSize]int
		var up [MaxSize]bool
		tick := func() {
			for i := 0; i < a.size; i++ {
				if a.Used(i) && scheduled(a, i) && !up[i] {
					left[i] = max(left[i]-1, 0)
					up[i] = left[i] == 0
				}
			}
		}
		for step := 0; len(data) > 0; step++ {
			op, arg := next(), next()
			switch op % 7 {
			case 0:
				row, ok := pick(^a.used&(1<<uint(a.size)-1), arg)
				if !ok {
					break
				}
				state ^= uint64(next())
				deps := draw() & a.used
				if arg&1 != 0 {
					deps &= draw() // sparser
				}
				lat[row] = 1 + int(next()%8)
				a.Allocate(row, arch.UnitType(next()%arch.NumUnitTypes), deps, lat[row])
				left[row], up[row] = 0, false
			case 1:
				// The scheduler grants requesters; an odd argument grants
				// any unscheduled row, which the array allows too.
				m := a.RequestMask(1<<arch.NumUnitTypes - 1)
				if arg&1 != 0 {
					m = a.used &^ a.scheduled
				}
				if row, ok := pick(m, arg>>1); ok {
					a.Grant(row)
					left[row] = lat[row] - 1
					up[row] = left[row] == 0
				}
			case 2:
				if row, ok := pick(a.used, arg); ok {
					a.Reschedule(row)
					left[row], up[row] = 0, false
				}
			case 3:
				if row, ok := pick(a.used&a.scheduled, arg); ok {
					extra := int(next() % 5)
					a.ExtendTimer(row, extra)
					left[row] += extra
					up[row] = false
				}
			case 4:
				a.Tick()
				tick()
			case 5:
				if row, ok := pick(a.used, arg); ok {
					a.Release(row)
					left[row], up[row] = 0, false
				}
			case 6:
				if n := min(int(arg%16), a.NextEvent()-1); n > 0 {
					a.Advance(n)
					for ; n > 0; n-- {
						tick()
					}
				}
			}
			want := math.MaxInt
			for i := 0; i < a.size; i++ {
				if !a.Used(i) {
					continue
				}
				if a.ResultAvailable(i) != up[i] {
					t.Fatalf("step %d: row %d result line %v, countdown model %v", step, i, a.ResultAvailable(i), up[i])
				}
				if scheduled(a, i) && !up[i] {
					want = min(want, max(left[i], 1))
				}
			}
			if got := a.NextEvent(); got != want {
				t.Fatalf("step %d: NextEvent = %d, countdown model %d", step, got, want)
			}
			checkBoards(t, a, step, next())
		}
	})
}

// checkBoards recomputes the request, ready and requirement views from
// the rows' raw vectors and compares them with the array's boards.
func checkBoards(t *testing.T, a *Array, step int, circuitSet byte) {
	t.Helper()
	for set := uint8(0); set < 1<<arch.NumUnitTypes; set++ {
		avail := unpackAvail(set)
		var want uint64
		for i := 0; i < a.size; i++ {
			if a.Request(i, avail) {
				want |= 1 << uint(i)
			}
		}
		if got := a.RequestMask(set); got != want {
			t.Fatalf("step %d: RequestMask(%05b) = %#x, Request rows = %#x", step, set, got, want)
		}
		if set == 1<<arch.NumUnitTypes-1 {
			if got := a.ReadyMask(); got != want {
				t.Fatalf("step %d: ReadyMask = %#x, Request rows = %#x", step, got, want)
			}
		}
	}
	set := circuitSet % (1 << arch.NumUnitTypes)
	avail := unpackAvail(set)
	mask := a.RequestMask(set)
	depOK := make([]bool, a.size)
	for j := range depOK {
		depOK[j] = a.ResultAvailable(j)
	}
	var counts arch.Counts
	for i := 0; i < a.size; i++ {
		if !a.Used(i) {
			continue
		}
		if !scheduled(a, i) {
			counts[a.Unit(i)]++
		}
		depNeed := make([]bool, a.size)
		for j := range depNeed {
			depNeed[j] = a.DependsOn(i, j)
		}
		got := CircuitRequest(oneHot(a.Unit(i)), avail, depNeed, depOK, scheduled(a, i))
		if got != (mask>>uint(i)&1 != 0) {
			t.Fatalf("step %d: row %d CircuitRequest = %v, RequestMask bit = %v", step, i, got, !got)
		}
	}
	if got := a.RequiredCounts(); got != counts {
		t.Fatalf("step %d: RequiredCounts = %v, unscheduled rows = %v", step, got, counts)
	}
}

// unpackAvail expands a packed availability set into per-type lines.
func unpackAvail(set uint8) [arch.NumUnitTypes]bool {
	var av [arch.NumUnitTypes]bool
	for t := range av {
		av[t] = set>>uint(t)&1 != 0
	}
	return av
}

// oneHot is a row's one-hot required-unit vector.
func oneHot(u arch.UnitType) [arch.NumUnitTypes]bool {
	var v [arch.NumUnitTypes]bool
	v[u] = true
	return v
}
