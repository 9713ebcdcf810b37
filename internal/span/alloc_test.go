//go:build !race

// The race detector instruments allocations, so this file builds only
// without it; CI runs it in the non-race alloc step.

package span

import (
	"bufio"
	"io"
	"testing"
)

// TestZeroAllocEventWriters pins the per-event writers at zero
// allocations once their buffers have grown: one Chrome event of each
// simulator kind and one service event, and one span-JSONL row.
func TestZeroAllocEventWriters(t *testing.T) {
	entries := []Entry{
		{Kind: KindReconfig, Slot: 2, A: 2, B: 16, Start: 5, Dur: 16, Name: "FPMul"},
		{Kind: KindRepair, Slot: 1, Start: 9, Dur: 40, Name: "repair", Aux: "repaired"},
		{Kind: KindSpec, Slot: -1, A: 3, B: 80, Start: 7, Dur: 90, Name: "floating", Aux: OutcomeConfirm},
		{Kind: KindPhase, Slot: -1, A: 4, Start: 0, Dur: 250, Name: "phase"},
		{Kind: KindFault, Slot: 3, Start: 12, Name: "inject", Aux: "transient"},
		{Kind: KindTrigger, Slot: -1, A: 17, B: 16, Start: 1024, Name: TriggerFaultStorm},
	}
	svc := ServiceSpan{Req: 7, Name: "execute", Kind: "run", Point: -1, StartUs: 10, DurUs: 900}
	cw := newChromeWriter(io.Discard)
	chrome := func() {
		for i := range entries {
			cw.entry(&entries[i], simPID)
		}
		cw.service(&svc)
	}
	bw := bufio.NewWriter(io.Discard)
	var row []byte
	jsonl := func() {
		for i := range entries {
			row = append(appendJSONLEntry(row[:0], &entries[i], 0), '\n')
			if _, err := bw.Write(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	chrome() // warm-up: the buffers grow to the longest event
	jsonl()
	for _, tc := range []struct {
		what string
		fn   func()
	}{{"chrome events", chrome}, {"span JSONL rows", jsonl}} {
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 100; i++ {
				tc.fn()
			}
		}); allocs != 0 {
			t.Errorf("%s: %.0f allocs in 100 rounds, want 0", tc.what, allocs)
		}
	}
	if cw.err != nil {
		t.Fatal(cw.err)
	}
}
