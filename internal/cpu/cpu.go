// Package cpu ties the substrates into the full processor of Fig. 1: a
// fetch unit with branch prediction and a trace cache feeds a register
// update unit (dispatch, dependency tracking, in-order retirement with a
// store buffer) whose scheduling window is the select-free wake-up array;
// execution units come from the reconfigurable fabric, and a pluggable
// configuration policy — the paper's steering manager, or one of the
// baselines — observes the queue each cycle and reconfigures idle RFUs.
//
// The simulator is cycle-level for timing and functionally exact for
// semantics: instructions execute through isa.Exec at issue, with operand
// forwarding from the in-flight window and store-to-load forwarding from
// the store buffer, so a run's architectural outcome is bit-identical to
// the functional reference interpreter.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rfu"
	"repro/internal/trace"
	"repro/internal/wakeup"
)

// Sentinel errors for run and construction failures, so callers (the
// rssd server in particular) can classify outcomes with errors.Is
// instead of string matching.
var (
	// ErrCycleLimit is wrapped by Run when the cycle budget elapses
	// before the program's HALT retires.
	ErrCycleLimit = errors.New("cycle limit exceeded")
	// ErrNoProgress is wrapped by Run when the machine reaches a fixed
	// point: a quiet cycle with no timer, residency or other deadline
	// ahead repeats forever, so the HALT can never retire. It wraps
	// ErrCycleLimit, the outcome a longer run would reach.
	ErrNoProgress = fmt.Errorf("no progress possible: %w", ErrCycleLimit)
	// ErrInvalidParams is wrapped by Params.Validate failures.
	ErrInvalidParams = errors.New("invalid machine parameters")
)

// Params sizes the machine. Zero values select the defaults of
// DefaultParams.
type Params struct {
	WindowSize    int // wake-up array rows / in-flight instructions (7)
	DispatchWidth int // instructions dispatched per cycle (4)
	IssueWidth    int // instructions granted per cycle (4)
	RetireWidth   int // instructions retired per cycle (4)

	ReconfigLatency int // cycles to rewrite one RFU span (8)
	ConfigBusWidth  int // max spans reconfiguring at once; 0 = unlimited (Fig. 1 bus model)

	Latencies isa.Latencies

	MemBytes         int // data memory size, power of two (1 MiB)
	CacheSets        int // direct-mapped data cache sets (64)
	CacheLineBytes   int // cache line size (32)
	CacheMissPenalty int // extra cycles on a load miss (10)

	PredictorEntries  int  // predictor / BTB entries (256)
	GshareHistoryBits uint // >0 selects gshare indexing with this much history
	TraceCacheLines   int  // trace cache lines (64)
	FetchWidthMem     int  // fetch width from instruction memory (2)
	FetchWidthTC      int  // fetch width on a trace cache hit (4)

	DisableFFUs bool // X4 ablation: hide the fixed functional units

	// IssueOrder selects which requesting instructions win issue slots:
	// OrderOldest (default, age priority), OrderYoungest, or
	// OrderRotate (rotating-priority arbiter) — the X15 scheduler
	// ablation.
	IssueOrder IssueOrder

	// ManagerLookahead feeds the configuration manager the unit demands
	// of fetched-but-not-yet-dispatched instructions in addition to the
	// scheduling window — the §2 reading of the architecture, where the
	// fetch unit's pre-decoders supply the manager directly. The default
	// (false) is the §3.1 reading: the manager sees only the
	// instruction queue.
	ManagerLookahead bool

	// SelectFree models the scheduling logic of the paper's reference
	// [9] (Brown/Stark/Patt) literally: requesters are granted without
	// a select stage, so when more instructions request a unit type
	// than units exist, the overflow "pileup" instructions burn their
	// issue slot and are rescheduled — they replay on a later cycle.
	// The default (false) is an idealised select stage that never
	// wastes slots on colliding requesters.
	SelectFree bool

	// FaultTransientRate and FaultPermanentRate enable the
	// configuration-upset model: each is a per-slot per-cycle
	// probability in [0,1] (their sum at most 1) of a transient or
	// permanent upset in that slot's configuration frames. Both zero
	// (the default) disables fault injection entirely — the fabric
	// then runs the exact pre-fault fast path.
	FaultTransientRate float64
	FaultPermanentRate float64
	// FaultSeed seeds the fault injector's private PRNG stream;
	// identical seeds and workloads reproduce identical upset
	// sequences bit-for-bit.
	FaultSeed int64
	// FaultScrubInterval is the cycle period of the readback scrub
	// that detects corrupt slots; 0 selects the default
	// (fault.DefaultScrubInterval).
	FaultScrubInterval int

	// PrefetchHistoryDepth sizes the demand-history ring of the
	// prefetch policy's predictor; 0 selects the default
	// (predict.DefaultHistoryDepth). Ignored by other policies.
	PrefetchHistoryDepth int
	// PrefetchConfidence is the Markov confidence threshold in (0,1]
	// the prefetch policy requires before issuing speculative loads; 0
	// selects the default (predict.DefaultConfidence).
	PrefetchConfidence float64

	// Cores lifts the machine to a K-core cluster sharing one fabric
	// and one configuration bus (internal/cluster). 0 and 1 both mean
	// the scalar machine; K=1 through the cluster layer is bit-identical
	// to it. At most cluster.MaxCores (8).
	Cores int
	// ClusterMode selects how cluster cores share the 8 RFU slots:
	// "merged" (the default) gang-shares one wide configuration steered
	// by core 0; "split" partitions the slots into private per-core
	// sub-fabrics via ownership leases. Ignored when Cores <= 1. The
	// names are spelled in ClusterModes.
	ClusterMode string
	// ClusterArbiter selects the cross-core arbitration policy:
	// "round-robin" (the default) rotates priority each cycle;
	// "demand-weighted" orders cores by their current unit demand.
	// Ignored when Cores <= 1; the names are spelled in ClusterArbiters.
	ClusterArbiter string
}

// DefaultParams returns the reference machine of the experiments.
func DefaultParams() Params {
	return Params{
		WindowSize:       arch.QueueSize,
		DispatchWidth:    4,
		IssueWidth:       4,
		RetireWidth:      4,
		ReconfigLatency:  8,
		Latencies:        isa.DefaultLatencies(),
		MemBytes:         mem.DefaultSize,
		CacheSets:        64,
		CacheLineBytes:   32,
		CacheMissPenalty: 10,
		PredictorEntries: 256,
		TraceCacheLines:  64,
		FetchWidthMem:    2,
		FetchWidthTC:     4,
	}
}

// WithDefaults returns the parameter set with every zero field filled
// from DefaultParams — the exact resolution cpu.New applies before
// building a machine. Analytic consumers (internal/queue) use it so the
// model and the simulator agree on effective sizes.
func (p Params) WithDefaults() Params { return p.withDefaults() }

// withDefaults fills zero fields from DefaultParams.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.WindowSize == 0 {
		p.WindowSize = d.WindowSize
	}
	if p.DispatchWidth == 0 {
		p.DispatchWidth = d.DispatchWidth
	}
	if p.IssueWidth == 0 {
		p.IssueWidth = d.IssueWidth
	}
	if p.RetireWidth == 0 {
		p.RetireWidth = d.RetireWidth
	}
	// A zero ReconfigLatency selects the default; near-instant
	// reconfiguration is modelled with latency 1.
	if p.ReconfigLatency == 0 {
		p.ReconfigLatency = d.ReconfigLatency
	}
	if p.Latencies == (isa.Latencies{}) {
		p.Latencies = d.Latencies
	}
	if p.MemBytes == 0 {
		p.MemBytes = d.MemBytes
	}
	if p.CacheSets == 0 {
		p.CacheSets = d.CacheSets
	}
	if p.CacheLineBytes == 0 {
		p.CacheLineBytes = d.CacheLineBytes
	}
	if p.CacheMissPenalty == 0 {
		p.CacheMissPenalty = d.CacheMissPenalty
	}
	if p.PredictorEntries == 0 {
		p.PredictorEntries = d.PredictorEntries
	}
	if p.TraceCacheLines == 0 {
		p.TraceCacheLines = d.TraceCacheLines
	}
	if p.FetchWidthMem == 0 {
		p.FetchWidthMem = d.FetchWidthMem
	}
	if p.FetchWidthTC == 0 {
		p.FetchWidthTC = d.FetchWidthTC
	}
	return p
}

// Validate checks a parameter set before machine construction: every
// sizing field must be non-negative (zero selects the default), the
// memory, cache, predictor and trace-cache geometries must be powers of
// two where the substrates require it and within their caps (MaxMemBytes
// and its siblings), the window must fit the wake-up array, and a
// latency table is all zero or all positive. Errors wrap
// ErrInvalidParams; cpu.New panics on the same conditions, so servers
// validate request-supplied parameters here first and map the failure
// to a 4xx.
func (p Params) Validate() error {
	bad := func(field string, v int) error {
		return fmt.Errorf("%w: %s must be non-negative, got %d", ErrInvalidParams, field, v)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"WindowSize", p.WindowSize},
		{"DispatchWidth", p.DispatchWidth},
		{"IssueWidth", p.IssueWidth},
		{"RetireWidth", p.RetireWidth},
		{"ReconfigLatency", p.ReconfigLatency},
		{"ConfigBusWidth", p.ConfigBusWidth},
		{"MemBytes", p.MemBytes},
		{"CacheSets", p.CacheSets},
		{"CacheLineBytes", p.CacheLineBytes},
		{"CacheMissPenalty", p.CacheMissPenalty},
		{"PredictorEntries", p.PredictorEntries},
		{"TraceCacheLines", p.TraceCacheLines},
		{"FetchWidthMem", p.FetchWidthMem},
		{"FetchWidthTC", p.FetchWidthTC},
		{"PrefetchHistoryDepth", p.PrefetchHistoryDepth},
	} {
		if f.v < 0 {
			return bad(f.name, f.v)
		}
	}
	powerOfTwo := func(v int) bool { return v&(v-1) == 0 }
	if p.MemBytes > 0 && !powerOfTwo(p.MemBytes) {
		return fmt.Errorf("%w: MemBytes %d is not a power of two", ErrInvalidParams, p.MemBytes)
	}
	if p.CacheLineBytes > 0 && !powerOfTwo(p.CacheLineBytes) {
		return fmt.Errorf("%w: CacheLineBytes %d is not a power of two", ErrInvalidParams, p.CacheLineBytes)
	}
	if p.PredictorEntries > 0 && !powerOfTwo(p.PredictorEntries) {
		return fmt.Errorf("%w: PredictorEntries %d is not a power of two", ErrInvalidParams, p.PredictorEntries)
	}
	if p.TraceCacheLines > 0 && !powerOfTwo(p.TraceCacheLines) {
		return fmt.Errorf("%w: TraceCacheLines %d is not a power of two", ErrInvalidParams, p.TraceCacheLines)
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"MemBytes", p.MemBytes, MaxMemBytes},
		{"CacheSets", p.CacheSets, MaxCacheSets},
		{"PredictorEntries", p.PredictorEntries, MaxPredictorEntries},
		{"TraceCacheLines", p.TraceCacheLines, MaxTraceCacheLines},
		{"PrefetchHistoryDepth", p.PrefetchHistoryDepth, MaxPrefetchHistoryDepth},
		{"CacheMissPenalty", p.CacheMissPenalty, MaxLatency},
		{"ReconfigLatency", p.ReconfigLatency, MaxLatency},
	} {
		if f.v > f.max {
			return fmt.Errorf("%w: %s must be at most %d, got %d", ErrInvalidParams, f.name, f.max, f.v)
		}
	}
	if p.WindowSize > wakeup.MaxSize {
		return fmt.Errorf("%w: WindowSize must be at most %d, got %d", ErrInvalidParams, wakeup.MaxSize, p.WindowSize)
	}
	// A partial latency table would leave the zero entries at zero,
	// which the wake-up array cannot time: all zero selects the
	// default table, otherwise every class needs at least one cycle.
	if l := p.Latencies; l != (isa.Latencies{}) {
		for _, v := range []int{l.IntALU, l.IntMul, l.IntDiv, l.Load, l.Store, l.FPALU, l.FPMul, l.FPDiv, l.FPSqrt} {
			if v < 1 {
				return fmt.Errorf("%w: Latencies %+v has a class below 1 cycle", ErrInvalidParams, l)
			}
			if v > MaxLatency {
				return fmt.Errorf("%w: Latencies %+v has a class above %d cycles", ErrInvalidParams, l, MaxLatency)
			}
		}
	}
	if p.IssueOrder < OrderOldest || p.IssueOrder > OrderRotate {
		return fmt.Errorf("%w: unknown issue order %d", ErrInvalidParams, int(p.IssueOrder))
	}
	if err := p.faultPlan().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	// A spec that enables fault injection must size the scrub loop
	// explicitly: without it the plan silently falls back to
	// fault.DefaultScrubInterval, and a negative value used to surface
	// only deep inside fault.Plan at run time. Reject both here so
	// request-supplied specs fail with a structured 4xx instead.
	if (p.FaultTransientRate > 0 || p.FaultPermanentRate > 0) && p.FaultScrubInterval <= 0 {
		return fmt.Errorf("%w: fault rates are set but FaultScrubInterval is %d (want > 0)",
			ErrInvalidParams, p.FaultScrubInterval)
	}
	// NaN fails this comparison too, which is the point.
	if !(p.PrefetchConfidence >= 0 && p.PrefetchConfidence <= 1) {
		return fmt.Errorf("%w: PrefetchConfidence must be in [0, 1], got %v", ErrInvalidParams, p.PrefetchConfidence)
	}
	if p.Cores < 0 || p.Cores > MaxClusterCores {
		return fmt.Errorf("%w: Cores must be in [0, %d], got %d", ErrInvalidParams, MaxClusterCores, p.Cores)
	}
	if ClusterIndex(ClusterModes[:], p.ClusterMode) < 0 {
		return fmt.Errorf("%w: unknown cluster mode %q (want %s)",
			ErrInvalidParams, p.ClusterMode, strings.Join(ClusterModes[:], " or "))
	}
	if ClusterIndex(ClusterArbiters[:], p.ClusterArbiter) < 0 {
		return fmt.Errorf("%w: unknown cluster arbiter %q (want %s)",
			ErrInvalidParams, p.ClusterArbiter, strings.Join(ClusterArbiters[:], " or "))
	}
	return nil
}

// Caps on the sizing parameters. The allocation sizes are capped at
// the largest any study uses (the 1 MiB default memory, the 64-set data
// cache, X13's 1024-entry predictor, the 64-line trace cache), so one
// request cannot make the machine allocate without bound, and MemBytes
// stays within the 32-bit address space. The prefetch predictor's ring
// is capped at its detector's exactness bound (predict.MaxHistoryDepth;
// the default depth is 32). Every execution latency, the cache-miss
// penalty and the reconfiguration latency are capped by MaxLatency,
// well inside the wake-up array's 32-bit timers and the fabric's 32-bit
// event fields; the default table's longest is 20 cycles, and the
// longest reconfiguration latency any study uses is X2's 256.
const (
	MaxMemBytes             = mem.DefaultSize
	MaxCacheSets            = 64
	MaxPredictorEntries     = 1024
	MaxTraceCacheLines      = 64
	MaxPrefetchHistoryDepth = 4096
	MaxLatency              = 4096
)

// MaxClusterCores bounds Params.Cores: eight cores over eight slots is
// already one slot per core in split mode, the point of diminishing
// fabric shares.
const MaxClusterCores = 8

// faultPlan assembles the fault-injection plan from the parameter set.
func (p Params) faultPlan() fault.Plan {
	return fault.Plan{
		Seed:          p.FaultSeed,
		TransientRate: p.FaultTransientRate,
		PermanentRate: p.FaultPermanentRate,
		ScrubInterval: p.FaultScrubInterval,
	}
}

// IssueOrder names a scheduler grant-priority policy.
type IssueOrder int

const (
	// OrderOldest grants the oldest requesters first (the default).
	OrderOldest IssueOrder = iota
	// OrderYoungest grants the youngest requesters first.
	OrderYoungest
	// OrderRotate grants round-robin: the starting priority position
	// rotates by one each cycle, as in rotating-priority arbiters.
	OrderRotate
)

// newPredictor builds the configured branch predictor.
func newPredictor(params Params) *fetch.Predictor {
	if params.GshareHistoryBits > 0 {
		return fetch.NewGsharePredictor(params.PredictorEntries, params.GshareHistoryBits)
	}
	return fetch.NewPredictor(params.PredictorEntries)
}

// robEntry is one register-update-unit entry. The RUU doubles as reorder
// buffer and store buffer; slot i schedules through wake-up array row i.
type robEntry struct {
	valid bool
	seq   uint64
	inst  isa.Inst
	pc    uint32

	predNext uint32

	// lat is the op's execution latency and src the in-flight producers
	// of inst.Rs1 and inst.Rs2, both resolved at dispatch.
	lat int
	src [2]producer

	issued   bool
	executed bool

	hasDest bool
	dest    uint8
	value   uint32

	isStore   bool
	storeAddr uint32
	storeSize int
	storeVal  uint32

	actualNext uint32
	halts      bool
}

// producer names the in-flight instruction a source operand comes from:
// its ROB slot (-1 for the register file) and sequence number. Once that
// slot holds a different instruction the producer has retired, and its
// result is in the register file.
type producer struct {
	slot int
	seq  uint64
}

// Stats accumulates machine activity over a run.
type Stats struct {
	Cycles  int
	Retired int
	Flushed int // instructions squashed by misprediction recovery

	Mispredicts      int
	BranchesResolved int

	IssuedByType arch.Counts // instructions granted, per unit type

	DispatchStallFull int // dispatch attempts blocked by a full window
	IssueContention   int // requests unserved because units ran out
	Pileups           int // select-free mode: grants rescheduled on unit collision

	// Per-cycle bottleneck classification: every simulated cycle falls
	// into exactly one bucket.
	CyclesIssued   int // at least one instruction was granted
	CyclesFrontend int // window empty: waiting on fetch/dispatch
	CyclesUnits    int // ready instructions existed but no unit of their type was free
	CyclesDeps     int // in-flight work only waiting on results (or draining)

	Halted bool // the program retired its HALT
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// Processor is one simulated machine instance bound to a program.
type Processor struct {
	params Params
	prog   isa.Program

	memory  *mem.Memory
	dcache  *mem.Cache
	front   *fetch.Unit
	pred    *fetch.Predictor
	tcache  *fetch.TraceCache
	fabric  *rfu.Fabric
	array   *wakeup.Array
	manager Manager

	reg    [isa.NumRegs]uint32
	halted bool

	rob   []robEntry
	head  int
	count int
	seq   uint64

	// regProducer maps each register to the RUU slot of its youngest
	// in-flight producer, or -1.
	regProducer [isa.NumRegs]int

	// stores is the store board: bit s is set while RUU slot s holds a
	// store. A dispatching load waits on every row it names (conservative
	// memory disambiguation), and store-to-load forwarding walks it.
	stores uint64

	// lat is Params.Latencies resolved per opcode.
	lat [isa.NumOpcodes]int

	// fetchBuf is the decoded-instruction buffer between fetch and
	// dispatch. Entries are consumed by advancing fetchHead (not by
	// re-slicing, which would strand capacity and force the append in
	// fill to reallocate); fill compacts the consumed prefix away before
	// topping up, so the buffer's backing array is allocated once.
	fetchBuf  []fetch.Fetched
	fetchHead int

	obs *trace.Observer

	// manageHook, when set, intercepts the demand vector on its way to
	// the manager: the cluster layer uses it to substitute cross-core
	// combined demand (merged mode) or to suppress steering on cores
	// that do not own the fabric. Returning proceed=false skips Manage
	// this cycle.
	manageHook func(required arch.Counts) (arch.Counts, bool)

	// quiet is set by a Cycle that changed nothing a later cycle can
	// see beyond counters and running timers: no timer ended, nothing
	// retired, requested issue, dispatched or fetched, and the manager
	// started no reconfiguration. Until the next timer deadline every
	// cycle repeats it; Run jumps the clock over them (skip).
	quiet bool

	// execShim is the speculative-memory adapter execute hands to
	// isa.Exec, reused across cycles so the steady-state loop does not
	// allocate (heap-resident so the interface value needs no boxing).
	execShim execMem

	stats Stats
}

// New builds a processor for prog with the given parameters and no
// configuration manager (install one with SetManager). The fabric starts
// empty: only the FFUs exist until a manager loads RFU configurations;
// use Fabric().Install to preset a static machine.
func New(prog isa.Program, params Params) *Processor {
	params = params.withDefaults()
	if params.WindowSize < 1 {
		panic("cpu: window size must be positive")
	}
	p := &Processor{
		params: params,
		prog:   prog,
		memory: mem.NewMemory(params.MemBytes),
		dcache: mem.NewCache(params.CacheSets, params.CacheLineBytes, params.CacheMissPenalty),
		pred:   newPredictor(params),
		tcache: fetch.NewTraceCache(params.TraceCacheLines),
		fabric: rfu.New(params.ReconfigLatency),
		array:  wakeup.New(params.WindowSize),
		rob:    make([]robEntry, params.WindowSize),
	}
	p.execShim.p = p
	for op := range p.lat {
		p.lat[op] = params.Latencies.Of(isa.Opcode(op))
	}
	p.front = fetch.NewUnit(prog, p.pred, p.tcache)
	p.front.MemWidth = params.FetchWidthMem
	p.front.TCWidth = params.FetchWidthTC
	if params.DisableFFUs {
		p.fabric.SetFFUsEnabled(false)
	}
	p.fabric.SetConfigBusWidth(params.ConfigBusWidth)
	if plan := params.faultPlan(); plan.Enabled() {
		p.fabric.EnableFaults(plan)
	}
	for i := range p.regProducer {
		p.regProducer[i] = -1
	}
	return p
}

// Fabric exposes the execution fabric (for policies, presets and stats).
func (p *Processor) Fabric() *rfu.Fabric { return p.fabric }

// SetManager installs the configuration manager. Managers usually need
// the fabric, which exists only after New, so the common pattern is:
//
//	p := cpu.New(prog, params)
//	p.SetManager(core.NewManager(p.Fabric(), config.DefaultBasis()))
//
// repro.NewMachine does this wiring for every Policy.
func (p *Processor) SetManager(manager Manager) { p.manager = manager }

// SetManageHook installs an interceptor on the demand vector fed to the
// configuration manager each cycle (nil disables, the default). The
// hook may rewrite the demand — the cluster layer injects cross-core
// combined demand on the fabric-owning core — or return false to skip
// the manager entirely this cycle (cores that do not own the shared
// fabric in merged mode). The manager itself is unaware of the cluster.
func (p *Processor) SetManageHook(hook func(required arch.Counts) (arch.Counts, bool)) {
	p.manageHook = hook
}

// SetObserver installs the machine's event stream (nil disables; each
// instrumented site then costs one branch). It reaches the fabric, on
// whose observer the configuration manager emits. Observers are pure:
// runs are bit-identical with or without one.
func (p *Processor) SetObserver(o *trace.Observer) {
	p.obs = o
	p.fabric.SetObserver(o)
}

// Memory exposes the data memory for input/output setup.
func (p *Processor) Memory() *mem.Memory { return p.memory }

// DCache exposes the data cache statistics.
func (p *Processor) DCache() *mem.Cache { return p.dcache }

// Predictor exposes the branch predictor statistics.
func (p *Processor) Predictor() *fetch.Predictor { return p.pred }

// TraceCache exposes the trace cache statistics.
func (p *Processor) TraceCache() *fetch.TraceCache { return p.tcache }

// Window exposes the wake-up array (read-only use intended).
func (p *Processor) Window() *wakeup.Array { return p.array }

// Reg returns architectural register r (unified index).
func (p *Processor) Reg(r uint8) uint32 {
	if r == isa.RegZero {
		return 0
	}
	return p.reg[r]
}

// SetReg presets architectural register r before a run.
func (p *Processor) SetReg(r uint8, v uint32) {
	if r != isa.RegZero {
		p.reg[r] = v
	}
}

// Halted reports whether the program's HALT has retired.
func (p *Processor) Halted() bool { return p.halted }

// Stats returns a copy of the run statistics so far.
func (p *Processor) Stats() Stats {
	s := p.stats
	s.Halted = p.halted
	return s
}

// slotAt returns the ROB slot holding the i-th oldest in-flight
// instruction. i is always < len(rob), so the wrap is a single
// conditional subtract rather than a hardware divide.
func (p *Processor) slotAt(i int) int {
	s := p.head + i
	if s >= len(p.rob) {
		s -= len(p.rob)
	}
	return s
}

// Cycle advances the machine one clock: timers tick, the oldest complete
// instructions retire, the configuration policy observes the queue and
// steers the fabric, ready instructions issue and execute, decoded
// instructions dispatch into the window, and the front end fetches.
func (p *Processor) Cycle() {
	if p.halted {
		return
	}
	p.stats.Cycles++
	p.obs.SetCycle(p.stats.Cycles)
	rose := p.array.Tick()
	freed := p.fabric.Tick()
	retired, seq, version := p.stats.Retired, p.seq, p.fabric.AllocVersion()
	p.retire()
	if p.halted {
		// The final cycle retired the HALT; count it with the useful
		// cycles so the bottleneck buckets partition the run exactly.
		p.stats.CyclesIssued++
		p.quiet = false
		p.obs.Emit(trace.Event{Kind: trace.KindCycleEnd, A: int32(p.stats.Retired)})
		return
	}
	if p.manager != nil {
		required := p.array.RequiredCounts()
		if p.params.ManagerLookahead {
			for i := p.fetchHead; i < len(p.fetchBuf); i++ {
				required[p.fetchBuf[i].Inst.Unit()]++
			}
		}
		proceed := true
		if p.manageHook != nil {
			required, proceed = p.manageHook(required)
		}
		if proceed {
			p.manager.Manage(required)
		}
	}
	requested := p.issue()
	p.dispatch()
	fetched := p.fill()
	p.quiet = !rose && !freed && !requested && !fetched && p.stats.Retired == retired &&
		p.seq == seq && p.fabric.AllocVersion() == version
	p.obs.Emit(trace.Event{Kind: trace.KindCycleEnd, A: int32(p.stats.Retired)})
}

// Cycles returns the cycles simulated so far.
func (p *Processor) Cycles() int { return p.stats.Cycles }

// Clocked is a machine Run can drive: the scalar Processor and the
// K-core cluster. Cycle advances it one clock, adding exactly one to
// Cycles until Halted.
type Clocked interface {
	Cycle()
	Halted() bool
	Cycles() int
}

// CtxCheckInterval is how many cycles Run simulates between context
// polls: cancellation takes effect within one interval.
const CtxCheckInterval = 1024

// Run clocks m until it halts or has simulated maxCycles cycles. It is
// the one run loop every machine goes through. The context is polled
// every CtxCheckInterval cycles; on cancellation Run returns the
// context's error (context.Canceled or context.DeadlineExceeded) with
// the machine consistent, so another Run resumes it. A budget that runs
// out before the HALT returns an error wrapping ErrCycleLimit, which
// with FFUs enabled indicates a simulator bug and with FFUs disabled is
// the expected starvation outcome of the X4 ablation.
//
// On a Processor that may skip (see skips), every quiet cycle is
// followed by a jump of the clock to the cycle before the next
// deadline: its own timers, its manager's, the budget or the next
// context poll. The result is the one clocking Cycle alone gives, bit
// for bit. A quiet cycle with no deadline of its own ahead is a fixed
// point, and Run returns an error wrapping ErrNoProgress at once.
func Run(ctx context.Context, m Clocked, maxCycles int) error {
	p, _ := m.(*Processor)
	skips := p.skips()
	for !m.Halted() && m.Cycles() < maxCycles {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(m.Cycles()+CtxCheckInterval, maxCycles)
		for n := end - m.Cycles(); n > 0 && !m.Halted(); n-- {
			m.Cycle()
			if skips && p.quiet {
				skipped, err := p.skip(end)
				if err != nil {
					return err
				}
				n -= skipped
			}
		}
	}
	if !m.Halted() {
		return fmt.Errorf("no HALT within %d cycles: %w", maxCycles, ErrCycleLimit)
	}
	return nil
}

// skips reports whether Run may jump p's clock over quiet cycles. It is
// the one place the jump is switched off, for machines whose quiet
// cycles do not repeat exactly or whose every cycle is wanted:
//   - an observer is attached (it sees every cycle's events);
//   - a fault injector is armed (it draws once per slot every cycle);
//   - a manage hook is set (the cluster's cores at K>1).
//
// A manager that may not repeat its next call says so through
// NextEvent (the prefetch policy's is always 1). A nil p never skips.
func (p *Processor) skips() bool {
	return p != nil && p.obs == nil && !p.fabric.FaultsEnabled() && p.manageHook == nil
}

// skip follows a quiet cycle: the cycles before the next deadline of
// the manager, the wake-up array or the fabric repeat it exactly, so it
// adds them, up to cycle limit, to the counters the quiet cycle moved
// (Cycles, its bottleneck bucket, DispatchStallFull and the manager's)
// and advances the timers' clocks without simulating them. The cycle
// at the deadline then runs normally. It returns the cycles skipped.
// The manager's deadline is read first, so a manager due next cycle
// costs no scan of the other two. With no deadline ahead the quiet
// cycle is a fixed point, reported as ErrNoProgress.
func (p *Processor) skip(limit int) (int, error) {
	next := math.MaxInt
	if p.manager != nil {
		if next = p.manager.NextEvent(); next <= 1 {
			return 0, nil
		}
	}
	next = min(next, p.array.NextEvent(), p.fabric.NextEvent())
	if next == math.MaxInt {
		return 0, p.noProgress()
	}
	n := min(next-1, limit-p.stats.Cycles)
	if n <= 0 {
		return 0, nil
	}
	p.stats.Cycles += n
	*p.bucket(0) += n
	if p.count == len(p.rob) && p.fetchHead < len(p.fetchBuf) {
		p.stats.DispatchStallFull += n
	}
	p.array.Advance(n)
	p.fabric.Advance(n)
	if p.manager != nil {
		p.manager.Skip(n)
	}
	return n, nil
}

// noProgress builds the fixed-point error, naming the unit type the
// oldest waiting instruction needs.
func (p *Processor) noProgress() error {
	why := "the window is empty"
	for i := 0; i < p.count; i++ {
		if e := &p.rob[p.slotAt(i)]; !e.issued {
			why = fmt.Sprintf("the oldest waiting instruction (pc %d) needs an %v unit", e.pc, e.inst.Unit())
			break
		}
	}
	return fmt.Errorf("no HALT: quiet from cycle %d with no event ahead, and %s: %w", p.stats.Cycles, why, ErrNoProgress)
}

// retire commits the oldest complete instructions in order.
func (p *Processor) retire() {
	for n := 0; n < p.params.RetireWidth && p.count > 0; n++ {
		slot := p.head
		e := &p.rob[slot]
		if !e.issued || !p.array.ResultAvailable(slot) {
			return
		}
		if e.isStore {
			p.commitStore(e)
		}
		if e.hasDest {
			p.reg[e.dest] = e.value
			if p.regProducer[e.dest] == slot {
				p.regProducer[e.dest] = -1
			}
		}
		p.array.Release(slot)
		p.stores &^= 1 << uint(slot)
		e.valid = false
		if p.head++; p.head == len(p.rob) {
			p.head = 0
		}
		p.count--
		p.stats.Retired++
		p.obs.Emit(trace.Event{Kind: trace.KindRetire, A: int32(e.seq), B: int32(e.pc)})
		if e.halts {
			p.halted = true
			return
		}
	}
}

// commitStore applies a retiring store to memory.
func (p *Processor) commitStore(e *robEntry) {
	switch e.storeSize {
	case 1:
		p.memory.StoreByte(e.storeAddr, uint8(e.storeVal))
	case 2:
		p.memory.StoreHalf(e.storeAddr, uint16(e.storeVal))
	case 4:
		p.memory.StoreWord(e.storeAddr, e.storeVal)
	default:
		panic(fmt.Sprintf("cpu: store of size %d", e.storeSize))
	}
}

// issue grants execution to the requesting instructions that can claim a
// unit, in the configured priority order, and executes them functionally.
// It reports whether any instruction requested issue.
func (p *Processor) issue() bool {
	// Requests are computed combinationally at the start of the cycle —
	// a grant this cycle cannot wake a consumer until the next cycle —
	// then served in priority order. The request lines come back as one
	// bitboard over RUU slots: a grant or flush mid-loop does not refresh
	// the snapshot, matching the combinational semantics.
	req := p.array.RequestMask(p.fabric.AvailableSet())
	if req == 0 {
		*p.bucket(0)++
		return false
	}
	// Rotate the board so bit k is the k-th slot from start: the oldest
	// slot for age priority, or the rotating arbiter's starting position
	// (the slots between the youngest entry and the head hold nothing,
	// so wrapping through them visits the window cyclically).
	start := p.head
	if p.params.IssueOrder == OrderRotate {
		start = p.slotAt(p.stats.Cycles % p.count)
	}
	size := len(p.rob)
	board := p.rotate(req, start)
	granted := 0
	for board != 0 && granted < p.params.IssueWidth {
		k := bits.TrailingZeros64(board)
		if p.params.IssueOrder == OrderYoungest {
			k = 63 - bits.LeadingZeros64(board)
		}
		board &^= 1 << uint(k)
		slot := start + k
		if slot >= size {
			slot -= size
		}
		e := &p.rob[slot]
		if !e.valid {
			continue // squashed by an older branch this cycle
		}
		ref, ok := p.fabric.Acquire(e.inst.Unit(), e.lat)
		if !ok {
			p.stats.IssueContention++
			if p.params.SelectFree {
				// No select stage: the colliding requester was granted
				// anyway, wastes its issue slot and replays later.
				p.array.Grant(slot)
				p.array.Reschedule(slot)
				p.stats.Pileups++
				granted++
			}
			continue
		}
		p.array.Grant(slot)
		e.issued = true
		granted++
		p.stats.IssuedByType[e.inst.Unit()]++
		p.execute(slot, ref)
		if p.halted {
			return true
		}
	}
	*p.bucket(granted)++
	return true
}

// rotate returns the slot board m rotated right by start within the
// window, so that bit k carries slot start+k (mod the window size).
func (p *Processor) rotate(m uint64, start int) uint64 {
	size := uint(len(p.rob))
	return (m>>uint(start) | m<<(size-uint(start))) & (1<<size - 1)
}

// bucket returns the counter of the bottleneck a cycle that granted
// granted instructions falls into, for the X14 study.
func (p *Processor) bucket(granted int) *int {
	switch {
	case granted > 0:
		return &p.stats.CyclesIssued
	case p.count == 0:
		return &p.stats.CyclesFrontend
	// Ready work blocked only by unit availability? Unissued entries
	// are exactly the unscheduled rows (a pileup grant reschedules), so
	// the ready bitboard answers this in one mask op.
	case p.array.ReadyMask() != 0:
		return &p.stats.CyclesUnits
	default:
		return &p.stats.CyclesDeps
	}
}

// execute runs the instruction at the given ROB slot functionally,
// recording its result, store effect, memory timing and branch outcome.
func (p *Processor) execute(slot int, ref rfu.UnitRef) {
	e := &p.rob[slot]
	// Reset the shim field-by-field: assigning a fresh execMem would
	// rewrite the pointer field (set once at construction) and drag the
	// write barrier into the hottest loop.
	p.execShim.slot = slot
	p.execShim.loaded = false
	p.execShim.stored = false
	shim := &p.execShim
	var st isa.State
	st.PC = e.pc
	st.Mem = shim
	st.Reg[e.inst.Rs1] = p.operand(e.inst.Rs1, e.src[0], e.seq)
	st.Reg[e.inst.Rs2] = p.operand(e.inst.Rs2, e.src[1], e.seq)
	if err := isa.Exec(e.inst, &st); err != nil {
		panic(fmt.Sprintf("cpu: execute %v at pc %d: %v", e.inst, e.pc, err))
	}
	if dest, ok := e.inst.Dest(); ok {
		e.hasDest = true
		e.dest = dest
		e.value = st.Reg[dest]
	}
	if shim.stored {
		e.isStore = true
		e.storeAddr = shim.storeAddr
		e.storeSize = shim.storeSize
		e.storeVal = shim.storeVal
	}
	latency := e.lat
	if shim.loaded {
		if extra := p.dcache.Access(shim.loadAddr); extra > 0 {
			p.array.ExtendTimer(slot, extra)
			p.fabric.ExtendBusy(ref, extra)
			latency += extra
		}
	}
	e.actualNext = st.PC
	e.halts = st.Halted
	e.executed = true
	p.obs.Emit(trace.Event{Kind: trace.KindIssue, A: int32(e.seq), B: int32(e.pc), C: int32(latency)})

	if e.inst.Op.IsBranch() {
		p.resolveBranch(slot)
	}
}

// resolveBranch trains the predictor and recovers from mispredictions by
// squashing younger instructions and redirecting fetch.
func (p *Processor) resolveBranch(slot int) {
	e := &p.rob[slot]
	p.stats.BranchesResolved++
	taken := e.actualNext != e.pc+1
	switch e.inst.Op {
	case isa.JAL:
		// Static target, always taken: never mispredicts.
	case isa.JALR:
		p.pred.UpdateTarget(e.pc, e.actualNext)
	default:
		p.pred.UpdateTaken(e.pc, taken)
	}
	correct := e.actualNext == e.predNext
	p.pred.RecordOutcome(correct)
	if correct {
		return
	}
	p.stats.Mispredicts++
	p.flushYoungerThan(e.seq)
	p.fetchBuf = p.fetchBuf[:0]
	p.fetchHead = 0
	p.front.Redirect(e.actualNext)
}

// flushYoungerThan squashes every in-flight instruction younger than seq
// and rebuilds the register producer map from the survivors.
func (p *Processor) flushYoungerThan(seq uint64) {
	for p.count > 0 {
		tail := p.slotAt(p.count - 1)
		e := &p.rob[tail]
		if e.seq <= seq {
			break
		}
		p.array.Release(tail)
		p.stores &^= 1 << uint(tail)
		e.valid = false
		p.count--
		p.stats.Flushed++
		p.obs.Emit(trace.Event{Kind: trace.KindFlush, A: int32(e.seq), B: int32(e.pc)})
	}
	for i := range p.regProducer {
		p.regProducer[i] = -1
	}
	for i := 0; i < p.count; i++ {
		slot := p.slotAt(i)
		e := &p.rob[slot]
		if d, ok := e.inst.Dest(); ok {
			p.regProducer[d] = slot
		}
	}
}

// operand returns the value register r holds for the instruction with
// sequence number seq, whose dispatch recorded src as r's youngest older
// in-flight producer: that producer's result while it is in flight, else
// the architectural register file (no instruction between the producer
// and seq writes r, so the file holds the producer's retired result).
// The wake-up dependencies guarantee the producer has executed by issue
// time; a violation panics.
func (p *Processor) operand(r uint8, src producer, seq uint64) uint32 {
	if r == isa.RegZero {
		return 0
	}
	if src.slot >= 0 {
		if e := &p.rob[src.slot]; e.valid && e.seq == src.seq {
			if !e.executed {
				panic(fmt.Sprintf("cpu: operand %s read before producer executed (seq %d -> %d)",
					isa.RegName(r), seq, e.seq))
			}
			return e.value
		}
	}
	return p.reg[r]
}

// producerOf returns register r's youngest in-flight producer.
func (p *Processor) producerOf(r uint8) producer {
	if r != isa.RegZero {
		if slot := p.regProducer[r]; slot >= 0 && p.rob[slot].valid {
			return producer{slot: slot, seq: p.rob[slot].seq}
		}
	}
	return producer{slot: -1}
}

// specByte returns the value memory byte addr holds for the load in RUU
// slot slot: architectural memory overlaid, in program order, with the
// older in-flight stores (store-to-load forwarding through the store
// buffer).
func (p *Processor) specByte(addr uint32, slot int) uint8 {
	v := p.memory.LoadByte(addr)
	age := slot - p.head
	if age < 0 {
		age += len(p.rob)
	}
	for m := p.rotate(p.stores, p.head) & (1<<uint(age) - 1); m != 0; m &= m - 1 {
		e := &p.rob[p.slotAt(bits.TrailingZeros64(m))]
		if !e.isStore || !e.executed {
			continue
		}
		if addr >= e.storeAddr && addr < e.storeAddr+uint32(e.storeSize) {
			shift := 8 * (addr - e.storeAddr)
			v = uint8(e.storeVal >> shift)
		}
	}
	return v
}

// dispatch moves decoded instructions from the fetch buffer into the
// window, recording register and memory-ordering dependencies: the
// in-flight producer of each source register and — for loads — every
// older in-flight store (conservative memory disambiguation, so
// store-to-load forwarding always sees resolved addresses).
func (p *Processor) dispatch() {
	for n := 0; n < p.params.DispatchWidth && p.fetchHead < len(p.fetchBuf); n++ {
		if p.count == len(p.rob) {
			p.stats.DispatchStallFull++
			return
		}
		f := &p.fetchBuf[p.fetchHead]
		p.fetchHead++

		// src holds the producers of Rs1 and Rs2, the order SourceRegs
		// lists sources in.
		src := [2]producer{p.producerOf(f.Inst.Rs1), p.producerOf(f.Inst.Rs2)}
		var deps uint64
		_, nsrc := f.Inst.SourceRegs()
		for _, s := range src[:nsrc] {
			if s.slot >= 0 {
				deps |= 1 << uint(s.slot)
			}
		}
		if f.Inst.Op.IsLoad() {
			deps |= p.stores
		}
		latency := p.lat[f.Inst.Op]
		slot := p.slotAt(p.count)
		p.array.Allocate(slot, f.Inst.Unit(), deps, latency)
		if f.Inst.Op.IsStore() {
			p.stores |= 1 << uint(slot)
		}

		p.seq++
		// Fill the entry in place; execute sets the remaining fields
		// before anything reads them.
		e := &p.rob[slot]
		e.valid = true
		e.seq = p.seq
		e.inst = f.Inst
		e.pc = f.PC
		e.predNext = f.PredNext
		e.lat = latency
		e.src = src
		e.issued = false
		e.executed = false
		e.hasDest = false
		e.isStore = false
		p.count++
		if d, ok := f.Inst.Dest(); ok {
			p.regProducer[d] = slot
		}
		p.obs.Emit(trace.Event{Kind: trace.KindDispatch, A: int32(p.seq), B: int32(f.PC), C: int32(f.Cycle)})
	}
}

// fill tops up the fetch buffer from the front end, stamping each
// fetched instruction with the cycle it left the front end. It reports
// whether it asked a front end that is not parked, which changes its
// state even when nothing comes back (a trace-cache lookup).
func (p *Processor) fill() bool {
	const bufCap = 16
	if len(p.fetchBuf)-p.fetchHead >= bufCap || p.front.Parked() {
		return false
	}
	if p.fetchHead > 0 {
		// Compact the consumed prefix away so append reuses the backing
		// array instead of growing past stranded capacity.
		n := copy(p.fetchBuf, p.fetchBuf[p.fetchHead:])
		p.fetchBuf = p.fetchBuf[:n]
		p.fetchHead = 0
	}
	n := len(p.fetchBuf)
	p.fetchBuf = p.front.AppendFetch(p.fetchBuf)
	for i := n; i < len(p.fetchBuf); i++ {
		p.fetchBuf[i].Cycle = p.stats.Cycles
	}
	return true
}

// execMem adapts the processor's speculative memory view to
// isa.DataMemory for functional execution at issue: loads read through
// the store buffer overlay, stores are recorded for the buffer instead of
// being applied.
type execMem struct {
	p    *Processor
	slot int // RUU slot of the executing instruction

	loaded   bool
	loadAddr uint32

	stored    bool
	storeAddr uint32
	storeSize int
	storeVal  uint32
}

func (m *execMem) noteLoad(addr uint32) {
	if !m.loaded {
		m.loaded = true
		m.loadAddr = addr
	}
}

func (m *execMem) LoadByte(addr uint32) uint8 {
	m.noteLoad(addr)
	return m.p.specByte(addr, m.slot)
}

func (m *execMem) LoadHalf(addr uint32) uint16 {
	m.noteLoad(addr)
	return uint16(m.p.specByte(addr, m.slot)) | uint16(m.p.specByte(addr+1, m.slot))<<8
}

func (m *execMem) LoadWord(addr uint32) uint32 {
	m.noteLoad(addr)
	return uint32(m.LoadHalf(addr)) | uint32(m.LoadHalf(addr+2))<<16
}

func (m *execMem) record(addr uint32, size int, v uint32) {
	if m.stored {
		panic("cpu: instruction performed two stores")
	}
	m.stored = true
	m.storeAddr = addr
	m.storeSize = size
	m.storeVal = v
}

func (m *execMem) StoreByte(addr uint32, v uint8)  { m.record(addr, 1, uint32(v)) }
func (m *execMem) StoreHalf(addr uint32, v uint16) { m.record(addr, 2, uint32(v)) }
func (m *execMem) StoreWord(addr uint32, v uint32) { m.record(addr, 4, v) }
