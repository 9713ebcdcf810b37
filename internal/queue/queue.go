// Package queue is the analytic fast path beside the cycle simulator:
// an M/M/c-style queueing model of the FFU/RFU pool that answers
// configuration-exploration questions in microseconds instead of
// simulated milliseconds (Carroll & Lin, arXiv:1807.08586, applied to
// the paper's reconfigurable superscalar).
//
// The model is parameterized by the exact same cpu.Params as the
// simulator. Each unit class is a c-server queueing station whose
// service time comes from the ISA latency table (plus an amortised
// cache-miss share for loads), whose server count comes from the
// configuration the modeled policy would choose for the segment's 3-bit
// demand vector, and whose waiting time comes from the Erlang-C delay
// formula. A damped fixed point couples the stations to the frontend
// width and the register-dataflow critical path, and reconfiguration
// overhead is charged at segment boundaries where the chosen
// configuration changes.
//
// Validity envelope — the model is trustworthy when:
//   - the program is straight-line (everything workload.Synthesize and
//     the assembler produce today; speculative control flow is not
//     modeled),
//   - fault injection is off (a degrading fabric violates the
//     stationary-capacity assumption; Estimate still answers but notes
//     the exclusion),
//   - the policy is deterministic (PolicyRandom is modeled as the mean
//     basis capacity, which tracks the simulator only in expectation).
//
// Within the envelope the mean absolute IPC error across the X1–X6
// reference workloads under the steering and prefetch policies is
// under 10%, and every workload is within ±25% — the worst case is the
// X4 FFU-less ablation, where the model's single-server stations
// overstate queueing (study X21 in EXPERIMENTS.md has the full table).
// Use /v1/estimate to rank configurations and /v1/run to certify the
// survivors.
package queue

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// ModelVersion identifies the calibration generation of the analytic
// model. Bump it whenever constants or structure change enough to move
// predictions, so cached estimates can be invalidated.
const ModelVersion = 1

// Calibration constants. These are fit once against the simulator on
// the X1–X6 reference workloads (see TestModelErrorBound) and are not
// per-workload knobs.
const (
	// pipeFill approximates the fetch/dispatch fill and drain of the
	// pipeline, charged once per run.
	pipeFill = 6.0
	// queueShare scales the Erlang-C waiting time actually exposed as
	// extra cycles: queueing delays overlap with dataflow stalls, so
	// only part of the raw waiting time lengthens the run.
	queueShare = 0.45
	// queueCap bounds the queueing inflation relative to the segment's
	// binding constraint. The window is a closed system — at most
	// WindowSize instructions can ever wait — so the open-network
	// Erlang-C tail, which grows without bound as a station
	// saturates, must be clipped; beyond the cap the station's delay
	// is already accounted for by its service bound.
	queueCap = 0.40
	// reconfigOverlap is the fraction of a reconfiguration's bus
	// occupancy that steering-family policies fail to hide behind
	// execution on the fixed units.
	reconfigOverlap = 0.45
	// prefetchOverlap is the same fraction for the prefetch policy,
	// which speculatively reconfigures ahead of the phase change.
	prefetchOverlap = 0.40
	// demandChurn and demandChurnFixed charge the demand policy's
	// per-window incremental reconfigurations — it rewrites slots
	// nearly every window, so every segment pays a latency-dependent
	// share plus a fixed arbitration cost.
	demandChurn      = 0.60
	demandChurnFixed = 6.0
	// drainPenalty is the extra full-reconfig cost of waiting for the
	// fabric to drain before a whole-configuration swap.
	drainPenalty = 4.0
)

// Model is an analytic stand-in for one simulated machine
// configuration: a policy, a parameter set, and a steering basis.
type Model struct {
	policy cpu.Policy
	params cpu.Params // defaults applied
	basis  [3]config.Configuration
}

// New builds a model for the given policy and parameters, applying the
// same zero-field defaulting as cpu.New. The params are validated first
// so servers can map a failure straight to a 4xx; the error wraps
// cpu.ErrInvalidParams. A nil basis selects the Table 1 default.
func New(policy cpu.Policy, params cpu.Params, basis *[3]config.Configuration) (*Model, error) {
	if !policy.Valid() {
		return nil, fmt.Errorf("%w: unknown policy %d", cpu.ErrInvalidParams, int(policy))
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	b := config.DefaultBasis()
	if basis != nil {
		b = *basis
	}
	return &Model{policy: policy, params: params.WithDefaults(), basis: b}, nil
}

// ClassEstimate reports one unit class's steady-state station solution,
// averaged over segments weighted by predicted segment cycles.
type ClassEstimate struct {
	Unit        string  `json:"unit"`
	Capacity    float64 `json:"capacity"`    // mean configured servers
	Utilization float64 `json:"utilization"` // busy fraction in [0,1]
	QueueDelay  float64 `json:"queue_delay"` // mean Erlang-C wait per op, cycles
}

// Estimate is the analytic prediction for one program under the model's
// policy and parameters.
type Estimate struct {
	PredictedIPC     float64         `json:"predicted_ipc"`
	PredictedCycles  float64         `json:"predicted_cycles"`
	Instructions     int             `json:"instructions"`
	Segments         int             `json:"segments"`
	ILP              float64         `json:"ilp"` // instructions / critical path
	ReconfigOverhead float64         `json:"reconfig_overhead"`
	Bottleneck       string          `json:"bottleneck"`
	Classes          []ClassEstimate `json:"classes"`
	ModelVersion     int             `json:"model_version"`
	Envelope         string          `json:"envelope"`
}

// Envelope is the one-line validity statement attached to every
// estimate; ARCHITECTURE §16 documents the full contract.
const Envelope = "straight-line programs, healthy fabric, deterministic policy; rank with estimates, certify with runs"

// Estimate solves the model for one program.
func (m *Model) Estimate(prog isa.Program) (Estimate, error) {
	p := m.params
	// Long programs are profiled by strided sampling (see sampleWindows)
	// so the model's cost stays roughly constant in program length; the
	// footprint scan runs over the same sample for the same reason.
	target := prog
	win, weights := sampleWindows(prog, DefaultSegmentSize)
	if win != nil {
		target = win
	}
	penalty := loadFootprintPenalty(target, p.CacheLineBytes, p.CacheSets, p.CacheMissPenalty)
	segs := profileProgram(target, profileOptions{
		lat:         p.Latencies,
		loadPenalty: penalty,
		segSize:     DefaultSegmentSize,
		window:      p.WindowSize,
	})
	for i := range segs {
		if i < len(weights) {
			segs[i].Weight = weights[i]
		}
	}
	est := Estimate{
		Segments:     len(segs),
		ModelVersion: ModelVersion,
		Envelope:     Envelope,
	}
	if len(segs) == 0 {
		est.Bottleneck = "empty"
		return est, nil
	}

	var (
		totalCycles float64
		totalCP     float64
		overhead    float64
		prevCfg     = -2 // sentinel: no previous segment
		agg         [arch.NumUnitTypes]struct{ cap, util, wq, weight float64 }
		bnWeight    = map[string]float64{}
	)
	prevDemand := arch.Counts{}
	for i, seg := range segs {
		// Reactive policies configure for the demand they have seen,
		// not the demand that is coming: the capacity a segment
		// enjoys is chosen from the previous segment's demand vector
		// (the first segment runs on whatever the reset state offers,
		// approximated by its own demand).
		// The one-window lag only makes sense between adjacent windows
		// (Weight 1, the exact profile): across a sampled stride the
		// policy has long since converged on the phase it is in.
		d := seg.Demand
		if i > 0 && m.reactive() && seg.Weight == 1 {
			d = prevDemand
		}
		caps, cfg := m.segmentCapacity(d)
		sol := solveSegment(seg, caps, p)
		// w scales each sampled segment up to the windows it stands
		// for; exact profiles have w == 1 throughout. Reconfiguration
		// cost is charged once per observed boundary, not per window —
		// a phase change is one configuration swap however many
		// unsampled windows sit between the observations.
		w := float64(seg.Weight)
		est.Instructions += seg.Instr * seg.Weight
		totalCycles += sol.cycles * w
		totalCP += seg.CritPath * w
		bnWeight[sol.bottleneck] += sol.cycles * w
		for k := range agg {
			if seg.Counts[k] == 0 {
				continue
			}
			agg[k].cap += caps[k] * sol.cycles * w
			agg[k].util += sol.util[k] * sol.cycles * w
			agg[k].wq += sol.wq[k] * float64(seg.Counts[k]) * w
			agg[k].weight += sol.cycles * w
		}
		overhead += m.reconfigCost(prevCfg, cfg)
		if m.policy == cpu.PolicyDemand && i > 0 {
			overhead += (demandChurn*float64(p.ReconfigLatency) + demandChurnFixed) * w
		}
		prevCfg = cfg
		prevDemand = seg.Demand
	}
	totalCycles += overhead + pipeFill

	est.PredictedCycles = totalCycles
	est.ReconfigOverhead = overhead
	if totalCycles > 0 {
		est.PredictedIPC = float64(est.Instructions) / totalCycles
	}
	if totalCP > 0 {
		est.ILP = float64(est.Instructions) / totalCP
	}
	est.Bottleneck = dominantBottleneck(bnWeight, overhead, totalCycles)
	for k := range agg {
		if agg[k].weight == 0 {
			continue
		}
		var n int
		for _, seg := range segs {
			n += seg.Counts[k] * seg.Weight
		}
		est.Classes = append(est.Classes, ClassEstimate{
			Unit:        arch.UnitType(k).String(),
			Capacity:    agg[k].cap / agg[k].weight,
			Utilization: agg[k].util / agg[k].weight,
			QueueDelay:  agg[k].wq / float64(n),
		})
	}
	return est, nil
}

// segmentCapacity returns the per-class server counts the modeled
// policy would provide for a segment with the given demand vector, plus
// a configuration index used to detect reconfigurations between
// segments (-1 means the capacity never changes).
func (m *Model) segmentCapacity(demand arch.Counts) ([arch.NumUnitTypes]float64, int) {
	var caps [arch.NumUnitTypes]float64
	ffu := config.FFUCounts()
	if m.params.DisableFFUs {
		ffu = arch.Counts{}
	}
	addCounts := func(c arch.Counts) {
		for k, v := range c {
			caps[k] += float64(v)
		}
	}
	addCounts(ffu)

	switch m.policy {
	case cpu.PolicyNone:
		return caps, -1
	case cpu.PolicyStaticInteger:
		addCounts(m.basis[0].Counts())
		return caps, -1
	case cpu.PolicyStaticMemory:
		addCounts(m.basis[1].Counts())
		return caps, -1
	case cpu.PolicyStaticFloating:
		addCounts(m.basis[2].Counts())
		return caps, -1
	case cpu.PolicyRandom:
		// Modeled in expectation: the mean basis capacity.
		for _, cfg := range m.basis {
			for k, v := range cfg.Counts() {
				caps[k] += float64(v) / 3
			}
		}
		return caps, -1
	case cpu.PolicyDemand:
		// The demand manager synthesises a configuration from the
		// requirement vector directly, greedily filling the 8 slots
		// with the scarcest classes first.
		remaining := arch.NumRFUSlots
		deficit := demand
		for k, v := range ffu {
			deficit[k] -= v
		}
		for {
			best, bestGap := -1, 0
			for k, d := range deficit {
				if d <= 0 || arch.SlotCost(arch.UnitType(k)) > remaining {
					continue
				}
				if d > bestGap {
					best, bestGap = k, d
				}
			}
			if best < 0 {
				break
			}
			caps[best]++
			deficit[best]--
			remaining -= arch.SlotCost(arch.UnitType(best))
		}
		return caps, -1
	default:
		// Steering-family policies (steering, oracle, prefetch,
		// full-reconfig) pick the basis configuration with minimal
		// configuration-error metric against the demand vector — the
		// same CEM selection the hardware performs. A segment is many
		// selection windows though, and on mixed demand the manager
		// dithers between near-tied configurations, time-sharing
		// their capacity; the model reproduces that by blending the
		// basis weighted steeply by inverse CEM error (a clear winner
		// gets essentially all the weight, near-ties split it).
		avail := arch.Counts{}
		for k, v := range ffu {
			avail[k] = v
		}
		var (
			weights [3]float64
			total   float64
			bestIdx = 0
			bestKey = math.Inf(1)
		)
		for i, cfg := range m.basis {
			counts := cfg.Counts().Add(avail)
			e := cem.Error(demand, counts)
			w := 1 / math.Pow(1+float64(e), 3)
			// A configuration that leaves a demanded class with zero
			// units cannot hold the fabric: the starved instructions
			// sit in the queue demanding until the manager switches
			// away. Slash its share of the blend (this only bites
			// when the FFUs are disabled — the fixed units otherwise
			// guarantee one server of every class).
			for k, d := range demand {
				if d > 0 && counts[k] == 0 {
					w *= 0.02
					break
				}
			}
			weights[i] = w
			total += w
			// Change-detection winner: minimal error, coverage of the
			// demanded classes as tie-break (the saturated-error tie
			// under DisableFFUs must not pick a config that cannot
			// run the demanded classes at all).
			cover := 0
			for k, d := range demand {
				if c := counts[k]; c < d {
					cover += c
				} else {
					cover += d
				}
			}
			key := float64(e) - float64(cover)/64
			if key < bestKey {
				bestIdx, bestKey = i, key
			}
		}
		for i, cfg := range m.basis {
			for k, v := range cfg.Counts() {
				caps[k] += float64(v) * weights[i] / total
			}
		}
		return caps, bestIdx
	}
}

// reactive reports whether the policy configures from observed (past)
// demand rather than predicted demand: such policies serve each
// segment with the capacity chosen for the previous one. The prefetch
// policy predicts across phase boundaries, and static/none/random never
// react at all.
func (m *Model) reactive() bool {
	switch m.policy {
	case cpu.PolicySteering, cpu.PolicyOracle, cpu.PolicyFullReconfig, cpu.PolicyDemand:
		return true
	}
	return false
}

// reconfigCost charges the bus occupancy of switching from the previous
// segment's configuration to the next one, scaled by how much of it the
// policy hides behind execution on the units that remain live.
func (m *Model) reconfigCost(prev, next int) float64 {
	if next < 0 || prev == next || prev == -2 {
		return 0 // static capacity, no change, or first segment
	}
	spans := len(m.basis[next].Units())
	width := m.params.ConfigBusWidth
	if width <= 0 || width > spans {
		width = spans // unlimited bus: all spans in parallel
	}
	serial := float64(m.params.ReconfigLatency) * math.Ceil(float64(spans)/float64(width))
	switch m.policy {
	case cpu.PolicyPrefetch:
		return prefetchOverlap * serial
	case cpu.PolicyFullReconfig:
		return reconfigOverlap*serial + drainPenalty
	default:
		return reconfigOverlap * serial
	}
}

// segmentSolution is the converged station solution for one segment.
type segmentSolution struct {
	cycles     float64
	bottleneck string
	util       [arch.NumUnitTypes]float64
	wq         [arch.NumUnitTypes]float64
}

// solveSegment couples the per-class Erlang-C stations to the frontend
// and dataflow bounds with a damped fixed point. The lower bound on
// segment time is the max of: the critical path, fetch bandwidth, issue
// bandwidth, and each class's total service divided by its servers. On
// top of that, Erlang-C waiting time — diluted by the window-level
// parallelism that lets waits overlap — stretches the segment.
func solveSegment(seg Segment, caps [arch.NumUnitTypes]float64, p cpu.Params) segmentSolution {
	var sol segmentSolution

	// Infeasible: demanded class with zero capacity never completes.
	for k := range caps {
		if seg.Counts[k] > 0 && caps[k] < 1e-9 {
			sol.cycles = math.Inf(1)
			sol.bottleneck = "capacity:" + arch.UnitType(k).String()
			for j := range sol.util {
				if seg.Counts[j] > 0 && caps[j] >= 1e-9 {
					sol.util[j] = 0
				}
			}
			return sol
		}
	}

	fetch := float64(p.FetchWidthMem) // trace-cache misses dominate cold straight-line fetch
	bounds := []struct {
		name string
		v    float64
	}{
		{"dependencies", seg.CritPath},
		{"frontend", float64(seg.Instr) / fetch},
		{"issue-width", float64(seg.Instr) / float64(p.IssueWidth)},
	}
	base, bn := 0.0, "dependencies"
	for _, b := range bounds {
		if b.v > base {
			base, bn = b.v, b.name
		}
	}
	for k := range caps {
		if seg.Counts[k] == 0 {
			continue
		}
		if v := seg.Service[k] / caps[k]; v > base {
			base, bn = v, "units:"+arch.UnitType(k).String()
		}
	}
	if base < 1 {
		base = 1
	}

	// Window-level parallelism dilutes waiting: with N instructions in
	// flight, N waits overlap. N is capped by the window and by how
	// much parallelism the dataflow offers at all.
	work := 0.0
	for k := range caps {
		work += seg.Service[k]
	}
	ilp := work / math.Max(seg.CritPath, 1)
	neff := math.Max(1, math.Min(float64(p.WindowSize), ilp))

	cyc := base
	var extra float64
	for iter := 0; iter < 64; iter++ {
		extra = 0
		for k := range caps {
			if seg.Counts[k] == 0 {
				continue
			}
			sk := seg.Service[k] / float64(seg.Counts[k])
			a := seg.Service[k] / cyc // offered load in servers
			if limit := 0.999 * caps[k]; a > limit {
				a = limit
			}
			wq := erlangC(caps[k], a) * sk / (caps[k] - a)
			sol.wq[k] = wq
			extra += float64(seg.Counts[k]) * wq
		}
		infl := queueShare * extra / neff
		if limit := queueCap * base; infl > limit {
			infl = limit
		}
		next := base + infl
		if math.Abs(next-cyc) < 0.05 {
			cyc = next
			break
		}
		cyc = 0.5 * (cyc + next)
	}

	sol.cycles = cyc
	sol.bottleneck = bn
	if queueShare*extra/neff > 0.35*base {
		sol.bottleneck = "queueing"
	}
	for k := range caps {
		if seg.Counts[k] == 0 || caps[k] < 1e-9 {
			continue
		}
		sol.util[k] = math.Min(1, seg.Service[k]/(caps[k]*cyc))
	}
	return sol
}

// Bottlenecks lists every label Estimate.Bottleneck can take: "empty"
// for a program with no segments, each segment bound solveSegment
// names, and "reconfig" from dominantBottleneck.
func Bottlenecks() []string {
	names := []string{"empty", "dependencies", "frontend", "issue-width", "queueing", "reconfig"}
	for k := 0; k < arch.NumUnitTypes; k++ {
		u := arch.UnitType(k).String()
		names = append(names, "units:"+u, "capacity:"+u)
	}
	return names
}

// dominantBottleneck picks the label that explains the most predicted
// cycles, promoting "reconfig" when overhead is the largest single
// contributor.
func dominantBottleneck(weights map[string]float64, overhead, total float64) string {
	best, bestW := "dependencies", 0.0
	for name, w := range weights {
		if w > bestW {
			best, bestW = name, w
		}
	}
	if overhead > bestW || overhead > 0.5*total {
		return "reconfig"
	}
	return best
}

// erlangC returns the M/M/c waiting probability for offered load a
// (in erlangs) at c servers. Fractional server counts — the random
// policy's expected capacity — interpolate linearly between the
// surrounding integer stations.
func erlangC(c, a float64) float64 {
	if a <= 0 {
		return 0
	}
	lo := math.Floor(c)
	if lo == c || lo < 1 {
		return erlangCInt(int(math.Max(1, math.Round(c))), math.Min(a, 0.999*c))
	}
	hi := lo + 1
	f := c - lo
	pl := erlangCInt(int(lo), math.Min(a, 0.999*lo))
	ph := erlangCInt(int(hi), math.Min(a, 0.999*hi))
	return (1-f)*pl + f*ph
}

// erlangCInt is the standard recursive Erlang-B → Erlang-C evaluation,
// numerically stable for the tiny server counts of a 13-unit pool.
func erlangCInt(c int, a float64) float64 {
	if c <= 0 {
		return 1
	}
	if a >= float64(c) {
		return 1
	}
	// Erlang-B by recurrence: B(0) = 1; B(k) = a·B(k-1)/(k + a·B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho + rho*b)
}
