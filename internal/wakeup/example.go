package wakeup

import "repro/internal/arch"

// PaperExampleLabels names the seven instructions of the paper's worked
// example (Figs. 4–5), in entry order.
var PaperExampleLabels = []string{"Shift", "Sub", "Add", "Mul", "Load", "FPMul", "FPAdd"}

// PaperExample builds the wake-up array of the paper's Figs. 4–5: seven
// instructions — Shift, Sub, Add, Mul, Load, FPMul, FPAdd — with the
// dependency graph of Fig. 4. The text states two rows explicitly (the
// Load, entry 5, depends on nothing and needs only the LSU; the Multiply,
// entry 4, needs the IntMDU and depends only on the Subtract, entry 2);
// the remaining edges are reconstructed from the dependency graph: the
// Add consumes the Shift and Sub results, the FPMul consumes the Load,
// and the FPAdd consumes the FPMul.
//
// Entry N sits in row N-1.
func PaperExample() *Array {
	a := New(arch.QueueSize)
	a.Allocate(0, arch.IntALU, 0, 1)         // entry 1: Shift
	a.Allocate(1, arch.IntALU, 0, 1)         // entry 2: Sub
	a.Allocate(2, arch.IntALU, 1<<0|1<<1, 1) // entry 3: Add <- Shift, Sub
	a.Allocate(3, arch.IntMDU, 1<<1, 4)      // entry 4: Mul <- Sub (explicit in §4.1)
	a.Allocate(4, arch.LSU, 0, 2)            // entry 5: Load, no dependencies (explicit)
	a.Allocate(5, arch.FPMDU, 1<<4, 5)       // entry 6: FPMul <- Load
	a.Allocate(6, arch.FPALU, 1<<5, 3)       // entry 7: FPAdd <- FPMul
	return a
}
