// Phases: the paper's motivating scenario — a workload whose unit demand
// shifts between integer, floating-point and memory phases. The example
// runs the same program under every configuration policy and shows how
// the steering manager adapts (configuration residency, reconfigurations)
// while static machines pay for their mismatch.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	prog := repro.Synthesize([]repro.Phase{
		{Mix: repro.MixIntHeavy, Instructions: 1000},
		{Mix: repro.MixFPHeavy, Instructions: 1000},
		{Mix: repro.MixMemHeavy, Instructions: 1000},
		{Mix: repro.MixFPHeavy, Instructions: 1000},
	}, 42)
	fmt.Printf("workload: %d instructions in 4 phases (int -> fp -> mem -> fp)\n\n", len(prog))

	policies := []repro.Policy{
		repro.PolicySteering,
		repro.PolicyStaticInteger,
		repro.PolicyStaticMemory,
		repro.PolicyStaticFloating,
		repro.PolicyNone,
		repro.PolicyFullReconfig,
		repro.PolicyOracle,
	}

	fmt.Printf("%-16s %8s %8s %10s\n", "policy", "cycles", "IPC", "reconfigs")
	var steeringIPC, bestStaticIPC float64
	for _, pol := range policies {
		params := repro.DefaultParams()
		if pol == repro.PolicyOracle {
			params.ReconfigLatency = 1
		}
		m := repro.NewMachine(prog, repro.Options{Params: params, Policy: pol})
		stats, err := m.Run(50_000_000)
		if err != nil {
			log.Fatalf("%v: %v", pol, err)
		}
		fmt.Printf("%-16s %8d %8.3f %10d\n", pol, stats.Cycles, stats.IPC(), m.Reconfigurations())
		switch pol {
		case repro.PolicySteering:
			steeringIPC = stats.IPC()
		case repro.PolicyStaticInteger, repro.PolicyStaticMemory, repro.PolicyStaticFloating:
			if stats.IPC() > bestStaticIPC {
				bestStaticIPC = stats.IPC()
			}
		}
	}

	// Show the steering manager's view of the run.
	m := repro.NewMachine(prog, repro.Options{Policy: repro.PolicySteering})
	if _, err := m.Run(50_000_000); err != nil {
		log.Fatal(err)
	}
	r := m.Report()
	fmt.Printf("\nsteering selections: current=%d integer=%d memory=%d floating=%d\n",
		r.Selections[0], r.Selections[1], r.Selections[2], r.Selections[3])
	fmt.Printf("hybrid-configuration cycles: %d\n", r.HybridCycles)
	fmt.Printf("\nsteering vs best single static configuration: %.3f vs %.3f IPC\n",
		steeringIPC, bestStaticIPC)
}
