// Package span records duration-bearing epochs from both layers of the
// system: simulator spans (reconfiguration bus transactions, repair
// windows, prefetch speculation, workload phases) and service spans (rssd request lifecycle stages). It follows
// the same nil-sink discipline as internal/telemetry: every Recorder
// method is safe on a nil receiver, so instrumented call sites cost one
// predictable branch when tracing is off and the hot loop stays at
// 0 allocs/cycle either way.
//
// The Recorder is single-goroutine (it lives inside the cycle loop) and
// preallocates all storage up front: a bounded trace buffer for full
// exports and a flight-recorder ring that always keeps the last N
// entries. Anomaly triggers — a fault storm inside one window, or IPC
// collapsing below a fraction of the warm-up baseline — fire a callback
// so the ring can be dumped at the moment of the anomaly rather than at
// end of run. Entry names are static strings; recording never allocates.
package span

import "repro/internal/trace"

// Kind discriminates trace entries. Span kinds carry a duration;
// instant kinds mark a single cycle.
type Kind uint8

const (
	// KindReconfig is a reconfiguration bus transaction rewriting one
	// unit span: Slot is the head slot, A the span width in slots, B
	// the bus latency in cycles.
	KindReconfig Kind = iota
	// KindRepair is a repair window on one slot, from repair start to
	// completion. Aux is the outcome ("repaired" or "dead").
	KindRepair
	// KindSpec is a prefetch speculation from open to resolution. Name
	// is the predicted configuration, Aux the outcome ("confirm",
	// "mispredict", "cancel", or "open" if unresolved at end of run),
	// A the number of speculative bus transactions issued, B the
	// predictor confidence in percent.
	KindSpec
	// KindPhase is one detected workload phase; A is the phase ordinal.
	KindPhase
	// KindFault is an instant: a fault event on Slot. Name is the
	// event ("inject", "detect", "heal"); Aux qualifies it
	// ("transient", "permanent", "scrub", "load").
	KindFault
	// KindTrigger is an instant: a flight-recorder anomaly trigger.
	// Name is the reason ("fault-storm", "ipc-collapse"); A carries
	// the offending window measurement, B the comparison threshold.
	KindTrigger

	numKinds
)

// kindNames maps Kind to its JSONL / Chrome-Trace category string.
var kindNames = [numKinds]string{
	"reconfig", "repair", "speculation", "phase", "fault", "trigger",
}

// String returns the category name for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Entry is one recorded span or instant event. All strings are static;
// an Entry is recorded by value into preallocated storage, so the hot
// path never allocates.
type Entry struct {
	Kind  Kind
	Slot  int16 // RFU slot, or -1 when not slot-scoped
	A, B  int32 // kind-specific arguments (see Kind docs)
	Start int64 // cycle the span opened (or the instant's cycle)
	Dur   int64 // span length in cycles; 0 for instants
	Name  string
	Aux   string
}

// instant reports whether e marks a single cycle (a fault or a trigger)
// rather than a span.
func (e *Entry) instant() bool { return e.Kind == KindFault || e.Kind == KindTrigger }

// Trigger reasons and speculation outcomes, exported for tests and
// callers that inspect the stream.
const (
	TriggerFaultStorm  = "fault-storm"
	TriggerIPCCollapse = "ipc-collapse"

	OutcomeConfirm    = "confirm"
	OutcomeMispredict = "mispredict"
	OutcomeCancel     = "cancel"
	OutcomeOpen       = "open"
)

// Config sizes the recorder and its anomaly triggers. The zero value
// is usable: every field falls back to the default below.
type Config struct {
	// MaxTrace bounds the full trace buffer (entries). Recording past
	// the bound drops entries (counted in Dropped) rather than
	// growing, so steady-state recording stays allocation-free.
	MaxTrace int
	// FlightSize bounds the flight-recorder ring (entries).
	FlightSize int
	// Window is the trigger-evaluation window in cycles; rounded up
	// to a power of two.
	Window int
	// FaultStorm fires the fault-storm trigger when more than this
	// many fault injections land inside one window.
	FaultStorm int
	// IPCCollapsePct fires the ipc-collapse trigger when a window
	// retires fewer than this percentage of the warm-up baseline
	// (the mean of trigger windows 2-4; window 1 is pipeline ramp).
	IPCCollapsePct int
	// OnTrigger, when set, runs synchronously after each trigger
	// entry is recorded — the hook used to dump the flight ring at
	// the moment of the anomaly. It must not mutate simulator state.
	OnTrigger func(r *Recorder, reason string)
}

// Defaults for Config fields left zero.
const (
	DefaultMaxTrace       = 1 << 16
	DefaultFlightSize     = 4096
	DefaultWindow         = 1024
	DefaultFaultStorm     = 16
	DefaultIPCCollapsePct = 25
)

func (c Config) withDefaults() Config {
	if c.MaxTrace <= 0 {
		c.MaxTrace = DefaultMaxTrace
	}
	if c.FlightSize <= 0 {
		c.FlightSize = DefaultFlightSize
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	// Round the window up to a power of two so the window-boundary
	// check is a mask, not a division.
	w := 1
	for w < c.Window {
		w <<= 1
	}
	c.Window = w
	if c.FaultStorm <= 0 {
		c.FaultStorm = DefaultFaultStorm
	}
	if c.IPCCollapsePct <= 0 {
		c.IPCCollapsePct = DefaultIPCCollapsePct
	}
	return c
}

// baselineWindows is the number of post-ramp windows averaged into the
// IPC baseline (windows 2..1+baselineWindows; window 1 is ramp).
const baselineWindows = 3

// Recorder captures simulator spans. It is a pure observer: it reads
// the events it is handed and mutates only recorder state, so a run is
// bit-identical with the recorder attached or not. The accessors and
// exports are nil-receiver safe. Not safe for concurrent use — it
// belongs to the machine's cycle loop.
type Recorder struct {
	cfg Config

	// core labels exported records with the owning cluster core's
	// index, taken from the events (0 for scalar machines). Each
	// cluster core records into its own Recorder; the label keeps
	// merged exports attributable.
	core int

	trace   []Entry // bounded full trace, in record order
	dropped int     // entries dropped after trace hit MaxTrace

	flight trace.Ring[Entry] // flight ring, overwrite-oldest

	now int64 // current cycle, from the events

	// Trigger-window state.
	winMask     int64
	winIndex    int
	winFaults   int
	retired     int // cumulative retired count at the last cycle end
	lastRetired int
	baseSum     int
	baseline    int // mean retired per warm-up window; 0 until set
	triggers    int

	// Open-span state, all fixed size.
	repairStart []int64 // per-slot repair-window open cycle, -1 idle
	specOpen    bool
	specStart   int64
	specName    string
	specConf    int32
	phaseOpen   bool
	phaseStart  int64
	phaseCount  int32
	finished    bool
}

// NewRecorder builds a recorder with all storage preallocated. slots
// is the reconfigurable-fabric slot count (per-slot repair tracking).
func NewRecorder(cfg Config, slots int) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:         cfg,
		trace:       make([]Entry, 0, cfg.MaxTrace),
		flight:      trace.NewRing[Entry](cfg.FlightSize),
		winMask:     int64(cfg.Window - 1),
		repairStart: make([]int64, slots),
	}
	for i := range r.repairStart {
		r.repairStart[i] = -1
	}
	return r
}

// Core returns the cluster-core label of the recorded events (0 for a
// nil recorder or a scalar machine).
func (r *Recorder) Core() int {
	if r == nil {
		return 0
	}
	return r.core
}

// record appends e to the trace buffer (until full) and the flight
// ring (always). Zero allocations: both stores are preallocated.
func (r *Recorder) record(e Entry) {
	if len(r.trace) < cap(r.trace) {
		r.trace = append(r.trace, e)
	} else {
		r.dropped++
	}
	r.flight.Push(e)
}

// recorderKinds are the events the recorder consumes.
var recorderKinds = trace.Kinds(
	trace.KindCycleEnd, trace.KindReconfig, trace.KindFaultInject, trace.KindFaultDetect,
	trace.KindFaultHeal, trace.KindRepairStart, trace.KindRepairEnd,
	trace.KindPhaseChange, trace.KindSpecOpen, trace.KindSpecResolve)

// Kinds implements trace.Sink.
func (r *Recorder) Kinds() trace.Mask { return recorderKinds }

// Observe implements trace.Sink: it records span and instant entries,
// opens and closes the epoch spans, and at trigger-window boundaries
// evaluates the anomaly triggers.
func (r *Recorder) Observe(e trace.Event) {
	if e.Cycle != r.now {
		// The first event of a cycle (every cycle ends with one): when
		// the cycle starts a window, evaluate the window that closed.
		r.now = e.Cycle
		if e.Cycle&r.winMask == 0 {
			r.windowBoundary()
		}
	}
	r.core = int(e.Core)
	switch e.Kind {
	case trace.KindCycleEnd:
		r.retired = int(e.A)
	case trace.KindReconfig:
		// The bus transaction completes in exactly latency cycles, so
		// the span is known in full at start.
		r.record(Entry{Kind: KindReconfig, Slot: int16(e.A), A: e.B, B: e.C,
			Start: r.now, Dur: int64(e.C), Name: e.Str})
	case trace.KindFaultInject:
		r.winFaults++
		aux := "transient"
		if e.B != 0 {
			aux = "permanent"
		}
		r.fault(e.A, "inject", aux)
	case trace.KindFaultDetect:
		r.fault(e.A, "detect", "scrub")
	case trace.KindFaultHeal:
		r.fault(e.A, "heal", "load")
	case trace.KindRepairStart:
		if int(e.A) < len(r.repairStart) {
			r.repairStart[e.A] = r.now
		}
	case trace.KindRepairEnd:
		outcome := "repaired"
		if e.B != 0 {
			outcome = "dead"
		}
		r.repairEnd(int(e.A), outcome)
	case trace.KindPhaseChange:
		r.closePhase()
		r.phaseOpen = true
		r.phaseStart = r.now
		r.phaseCount++
	case trace.KindSpecOpen:
		// An already-open speculation is resolved as cancelled first
		// (defensive; the predictor resolves before reopening).
		r.specResolve(OutcomeCancel, 0)
		r.specOpen = true
		r.specStart = r.now
		r.specName = e.Str
		r.specConf = e.B
	case trace.KindSpecResolve:
		r.specResolve(outcomes[e.C], e.A)
	}
}

// outcomes names the speculation outcomes by trace.Spec* code.
var outcomes = [...]string{
	trace.SpecConfirm:    OutcomeConfirm,
	trace.SpecMispredict: OutcomeMispredict,
	trace.SpecCancel:     OutcomeCancel,
}

// windowBoundary evaluates the anomaly triggers over the window ending
// with the previous cycle.
func (r *Recorder) windowBoundary() {
	winRetired := r.retired - r.lastRetired
	r.lastRetired = r.retired
	r.winIndex++
	if r.winFaults > r.cfg.FaultStorm {
		r.trigger(TriggerFaultStorm, int32(r.winFaults), int32(r.cfg.FaultStorm))
	}
	r.winFaults = 0
	switch {
	case r.winIndex == 1:
		// Pipeline ramp; not representative.
	case r.winIndex <= 1+baselineWindows:
		r.baseSum += winRetired
		if r.winIndex == 1+baselineWindows {
			r.baseline = r.baseSum / baselineWindows
		}
	default:
		if r.baseline > 0 && winRetired*100 < r.baseline*r.cfg.IPCCollapsePct {
			r.trigger(TriggerIPCCollapse, int32(winRetired), int32(r.baseline))
		}
	}
}

func (r *Recorder) trigger(reason string, got, threshold int32) {
	r.triggers++
	r.record(Entry{Kind: KindTrigger, Slot: -1, A: got, B: threshold,
		Start: r.now, Name: reason})
	if r.cfg.OnTrigger != nil {
		r.cfg.OnTrigger(r, reason)
	}
}

// fault records a fault instant on slot.
func (r *Recorder) fault(slot int32, name, aux string) {
	r.record(Entry{Kind: KindFault, Slot: int16(slot), Start: r.now, Name: name, Aux: aux})
}

// repairEnd closes the repair window on slot, if one is open, with the
// given outcome.
func (r *Recorder) repairEnd(slot int, outcome string) {
	if slot >= len(r.repairStart) || r.repairStart[slot] < 0 {
		return
	}
	start := r.repairStart[slot]
	r.repairStart[slot] = -1
	r.record(Entry{Kind: KindRepair, Slot: int16(slot),
		Start: start, Dur: r.now - start, Name: "repair", Aux: outcome})
}

// closePhase closes the current workload-phase span, if one is open.
func (r *Recorder) closePhase() {
	if r.phaseOpen {
		r.phaseOpen = false
		r.record(Entry{Kind: KindPhase, Slot: -1, A: r.phaseCount,
			Start: r.phaseStart, Dur: r.now - r.phaseStart, Name: "phase"})
	}
}

// specResolve closes the open speculation span (if any) with the given
// outcome and the number of speculative bus transactions it issued.
func (r *Recorder) specResolve(outcome string, spansIssued int32) {
	if !r.specOpen {
		return
	}
	r.specOpen = false
	r.record(Entry{Kind: KindSpec, Slot: -1,
		A: spansIssued, B: r.specConf,
		Start: r.specStart, Dur: r.now - r.specStart,
		Name: r.specName, Aux: outcome})
}

// Finish closes any open epochs at the current cycle: the trailing
// phase, speculation (resolved as "open") and repair
// windows. Safe to call once at end of run; a second call is a no-op
// until new spans open.
func (r *Recorder) Finish() {
	if r == nil || r.finished {
		return
	}
	r.finished = true
	r.closePhase()
	r.specResolve(OutcomeOpen, 0)
	for s := range r.repairStart {
		r.repairEnd(s, OutcomeOpen)
	}
}

// Entries returns the recorded trace in record order. The slice is
// the recorder's own storage; callers must not mutate it.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	return r.trace
}

// Flight returns a copy of the flight ring, oldest first.
func (r *Recorder) Flight() []Entry {
	if r == nil {
		return nil
	}
	return r.flight.Copy()
}

// Triggers returns how many anomaly triggers have fired.
func (r *Recorder) Triggers() int {
	if r == nil {
		return 0
	}
	return r.triggers
}

// Dropped returns how many entries the bounded trace buffer dropped.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}
