package telemetry

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/rfu"
	"repro/internal/trace"
)

// Sample is one row of the per-cycle time series: the machine state at a
// sampling boundary plus the activity since the previous sample.
// Interval* fields cover (prevSampleCycle, cycle], each the difference
// of one cumulative counter between the two boundaries; everything else
// is the instantaneous or cumulative state at cycle.
//
// The JSON field set is a stable schema, pinned by a golden test: add
// fields freely, but renaming or retyping one is a breaking change for
// downstream tooling.
type Sample struct {
	Cycle int `json:"cycle"`
	// Core labels which cluster core emitted the row; 0 for a scalar
	// machine, so single-core streams are unchanged apart from the
	// explicit label.
	Core            int     `json:"core"`
	Retired         int     `json:"retired"`
	IntervalRetired int     `json:"intervalRetired"`
	IntervalIPC     float64 `json:"intervalIPC"`

	// Occupancy is the number of in-flight window (RUU) entries.
	Occupancy int `json:"occupancy"`
	// Demand counts the unit requirements of the unscheduled window
	// instructions, per unit type — the selection unit's input vector.
	Demand arch.Counts `json:"demand"`
	// IntervalIssued counts grants per unit type since the last sample.
	IntervalIssued arch.Counts `json:"intervalIssued"`

	// RFUUnits / RFUBusy count configured and currently-executing
	// reconfigurable units per type; FFUBusy the executing fixed units.
	RFUUnits arch.Counts `json:"rfuUnits"`
	RFUBusy  arch.Counts `json:"rfuBusy"`
	FFUBusy  arch.Counts `json:"ffuBusy"`
	// Slots is the live resource allocation vector.
	Slots [arch.NumRFUSlots]arch.Encoding `json:"slots"`

	// CEMValid reports whether a steering-family policy supplied
	// selection data this interval; when false the CEM fields are zero.
	CEMValid bool `json:"cemValid"`
	// CEMErrors holds the four configuration error metrics of the most
	// recent selection pass (current, then the three basis configs).
	CEMErrors [arch.NumConfigs]int `json:"cemErrors"`
	// CEMChoice is the winning candidate index of that pass.
	CEMChoice int `json:"cemChoice"`

	// ReconfigSlots counts slots mid-reconfiguration right now;
	// IntervalReconfigs counts span rewrites started this interval.
	ReconfigSlots     int `json:"reconfigSlots"`
	IntervalReconfigs int `json:"intervalReconfigs"`

	IntervalFlushed        int `json:"intervalFlushed"`
	IntervalDispatchStalls int `json:"intervalDispatchStalls"`

	// Steering-cache lookups this interval: hits replay a memoized
	// selection, misses run the CEM generators.
	IntervalSteerCacheHits   int `json:"intervalSteerCacheHits"`
	IntervalSteerCacheMisses int `json:"intervalSteerCacheMisses"`

	// Speculative-prefetch activity this interval (zero unless the
	// prefetch policy is active): spans speculatively loaded, and
	// speculation outcomes resolved.
	IntervalPrefetchIssued       int `json:"intervalPrefetchIssued"`
	IntervalPrefetchConfirmed    int `json:"intervalPrefetchConfirmed"`
	IntervalPrefetchMispredicted int `json:"intervalPrefetchMispredicted"`
	IntervalPrefetchCancelled    int `json:"intervalPrefetchCancelled"`

	// Fault-injection activity this interval (zero when the injector
	// is disabled): upsets struck, corrupt slots the scrub scan
	// detected, slots repaired, and scrub scans run.
	IntervalFaultsInjected int `json:"intervalFaultsInjected"`
	IntervalFaultsDetected int `json:"intervalFaultsDetected"`
	IntervalFaultsRepaired int `json:"intervalFaultsRepaired"`
	IntervalScrubScans     int `json:"intervalScrubScans"`
	// MaskedSlots counts slots currently unavailable to steering and
	// dispatch because of faults (corrupt, detected, repairing or
	// dead) at the sampling boundary.
	MaskedSlots int `json:"maskedSlots"`

	// Interval bottleneck classification: every cycle of the interval
	// falls into exactly one of the four buckets.
	BucketIssued   int `json:"bucketIssued"`
	BucketUnits    int `json:"bucketUnits"`
	BucketDeps     int `json:"bucketDeps"`
	BucketFrontend int `json:"bucketFrontend"`
}

// Decision is one steering-decision log record: a configuration switch
// the loader actually started (selection alone, with nothing loadable,
// does not log).
type Decision struct {
	Cycle int `json:"cycle"`
	// Core labels the cluster core whose manager made the decision (0
	// for a scalar machine).
	Core int `json:"core"`
	// From classifies the allocation before the switch: a basis
	// configuration name, "(empty)", or "hybrid".
	From string `json:"from"`
	// To is the selected target configuration's name.
	To string `json:"to"`
	// Choice is the selection unit's two-bit output (1..3).
	Choice int `json:"choice"`
	// DiffSlots is the XOR-diff between the live allocation vector and
	// the target layout: how many slot encodings differ at switch time.
	DiffSlots int `json:"diffSlots"`
	// Spans and SlotsLoading count the span rewrites started now and the
	// slots they cover; DeferredSlots the busy slots §3.2 skipped.
	Spans         int `json:"spans"`
	SlotsLoading  int `json:"slotsLoading"`
	DeferredSlots int `json:"deferredSlots"`
	// StallSlotCycles is the loading overhead started by this switch:
	// slots being rewritten times the per-span reconfiguration latency —
	// the slot-cycles during which those slots cannot execute.
	StallSlotCycles int `json:"stallSlotCycles"`
}

// Fault-event names, the closed vocabulary of FaultEvent.Event.
const (
	FaultInjectedTransient = "injected-transient"
	FaultInjectedPermanent = "injected-permanent"
	FaultDetected          = "detected"
	FaultRepairStart       = "repair-start"
	FaultRepaired          = "repaired"
	FaultDead              = "dead"
)

// FaultEvent is one fault-injection log record: an upset striking a
// slot, the scrub scan detecting it, a repair starting or completing,
// or a slot being declared permanently dead. Like steering decisions,
// fault events are not sampled — every transition is logged.
type FaultEvent struct {
	Cycle int `json:"cycle"`
	// Core labels the cluster core whose fabric view logged the event
	// (0 for a scalar machine; in merged mode the master core owns the
	// shared fabric's fault machinery).
	Core int `json:"core"`
	// Slot is the reconfigurable slot the event concerns.
	Slot int `json:"slot"`
	// Event is one of the Fault* constants above.
	Event string `json:"event"`
}

// Prefetch-event names, the closed vocabulary of PrefetchEvent.Event.
const (
	PrefetchIssue       = "issue"
	PrefetchConfirm     = "confirm"
	PrefetchMispredict  = "mispredict"
	PrefetchCancel      = "cancel"
	PrefetchPhaseChange = "phase-change"
)

// PrefetchEvent is one speculative-prefetch log record from the
// prediction subsystem (internal/predict): spans speculatively loaded
// for a predicted configuration, the speculation's outcome (confirm /
// mispredict / cancel), or a detected workload phase change. Like
// steering decisions and fault events, prefetch events are not sampled
// — every transition is logged.
type PrefetchEvent struct {
	Cycle int `json:"cycle"`
	// Core labels the cluster core whose predictor logged the event (0
	// for a scalar machine).
	Core int `json:"core"`
	// Event is one of the Prefetch* constants above.
	Event string `json:"event"`
	// Config names the predicted target configuration (empty for
	// phase-change events).
	Config string `json:"config"`
	// Spans counts the speculative span rewrites the event covers: for
	// issue events the spans loaded this cycle, for mispredict/cancel
	// the speculation's total spans — the bus bandwidth wasted.
	Spans int `json:"spans"`
	// ConfidencePct is the Markov-predictor confidence behind the
	// speculation, in percent.
	ConfidencePct int `json:"confidencePct"`
}

// State is what the Probe reads at a sample boundary and at Flush: the
// processor's own statistics and the window, fabric and manager facts,
// each read from the code that keeps it. An event records an occurrence;
// a count is read from here, so the probe recounts nothing.
type State struct {
	// Stats is the processor's cumulative run statistics
	// (cpu.Processor.Stats).
	Stats cpu.Stats
	// Occupancy is the window's in-flight entries (wakeup.Array
	// Size()-Free()); Demand its unscheduled unit requirements
	// (RequiredCounts).
	Occupancy int
	Demand    arch.Counts
	// RFUBusy, RFUUnits and FFUBusy are the fabric's busy and configured
	// RFU units and busy FFUs per type (rfu.Fabric.UnitStates); Slots its
	// allocation vector; ReconfigSlots and MaskedSlots the slots
	// mid-reconfiguration and fault-masked right now.
	RFUBusy, RFUUnits, FFUBusy arch.Counts
	Slots                      [arch.NumRFUSlots]arch.Encoding
	ReconfigSlots              int
	MaskedSlots                int
	// Reconfigs and ReconfigSlotCycles are the fabric's span rewrites
	// started and the slot-cycles they reconfigure
	// (rfu.Fabric.Reconfigurations and ReconfigurationCycles).
	Reconfigs          int
	ReconfigSlotCycles int
	// Faults is the fabric's fault accounting (zero without injection).
	Faults rfu.FaultStats
	// Manager and Selection are the selecting core.Manager's counters
	// and latest selection pass (core.Manager.Stats, LastSelection);
	// both are zero under a policy without one.
	Manager   core.Stats
	Selection core.Selection
}

// stateMetric declares one registry family the probe keeps: its name,
// help text and kind, one series per label (a single unlabelled series
// when there are none), and read, which returns series i's value from
// the State. A sampled gauge or histogram is updated at sample
// boundaries only; every other series is set from each State the probe
// reads. A family with no read is counted from events.
type stateMetric struct {
	name, help string
	kind       kind
	labels     []Label
	bounds     []int64
	sampled    bool
	read       func(st *State, i int) int
}

// stateMetrics is every family the probe registers, in registration
// order.
var stateMetrics = []stateMetric{
	{name: "rsssim_cycles_total", help: "simulated cycles", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Stats.Cycles }},
	{name: "rsssim_retired_total", help: "retired instructions", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Stats.Retired }},
	// Every dispatched instruction has retired, been flushed or is in
	// flight.
	{name: "rsssim_dispatched_total", help: "dispatched instructions", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Stats.Retired + st.Stats.Flushed + st.Occupancy }},
	{name: "rsssim_flushed_total", help: "instructions squashed by misprediction recovery", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Stats.Flushed }},
	{name: "rsssim_dispatch_stalls_total", help: "dispatch attempts blocked by a full window", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Stats.DispatchStallFull }},
	{name: "rsssim_issued_total", help: "instructions granted per unit type", kind: kindCounter,
		labels: unitLabels(), read: func(st *State, i int) int { return st.Stats.IssuedByType[i] }},
	{name: "rsssim_selections_total", help: "selection-unit wins per candidate configuration", kind: kindCounter,
		labels: configLabels, read: func(st *State, i int) int { return st.Manager.Selections[i] }},
	{name: "rsssim_cem_error", help: "latest configuration error metric per candidate", kind: kindGauge,
		labels: configLabels, read: func(st *State, i int) int { return st.Selection.Errors[i] }},
	{name: "rsssim_steering_decisions_total", help: "configuration switches the loader started", kind: kindCounter},
	{name: "rsssim_reconfig_spans_total", help: "RFU span rewrites started", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Reconfigs }},
	{name: "rsssim_reconfig_slot_cycles_total", help: "slot-cycles of reconfiguration started", kind: kindCounter,
		read: func(st *State, _ int) int { return st.ReconfigSlotCycles }},
	{name: "rsssim_steering_cache_hits_total", help: "steering-cache lookups served from the packed-key table", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.CacheHits }},
	{name: "rsssim_steering_cache_misses_total", help: "steering-cache lookups that ran the CEM generators", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.CacheMisses }},
	{name: "rsssim_prefetch_issued_total", help: "speculative span rewrites the prefetch policy started", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.PrefetchIssued }},
	{name: "rsssim_prefetch_confirmed_total", help: "speculations confirmed by a matching demand shift", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.PrefetchConfirmed }},
	{name: "rsssim_prefetch_mispredicted_total", help: "speculations ended by demand selecting a different configuration", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.PrefetchMispredicted }},
	{name: "rsssim_prefetch_cancelled_total", help: "speculations abandoned without a demand shift", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.PrefetchCancelled }},
	{name: "rsssim_prefetch_wasted_spans_total", help: "configuration-bus spans charged to mispredicted or cancelled speculations", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.PrefetchWastedSpans }},
	{name: "rsssim_phase_changes_total", help: "workload phase boundaries the demand-history detector flagged", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Manager.PhaseChanges }},
	{name: "rsssim_faults_injected_total", help: "configuration upsets injected per kind", kind: kindCounter,
		labels: []Label{{"kind", "transient"}, {"kind", "permanent"}}, read: func(st *State, i int) int { return [2]int{st.Faults.InjectedTransient, st.Faults.InjectedPermanent}[i] }},
	{name: "rsssim_faults_detected_total", help: "corrupt slots the readback scrub detected", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Faults.Detected }},
	{name: "rsssim_faults_repaired_total", help: "slots restored by repair reconfiguration", kind: kindCounter,
		read: func(st *State, _ int) int { return restored(&st.Faults) }},
	{name: "rsssim_scrub_scans_total", help: "readback scrub scans run", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Faults.ScrubScans }},
	{name: "rsssim_masked_slot_cycles_total", help: "slot-cycles lost to fault masking", kind: kindCounter,
		read: func(st *State, _ int) int { return st.Faults.MaskedSlotCycles }},
	{name: "rsssim_window_occupancy", help: "in-flight window entries at the last sample", kind: kindGauge, sampled: true,
		read: func(st *State, _ int) int { return st.Occupancy }},
	{name: "rsssim_reconfiguring_slots", help: "slots mid-reconfiguration at the last sample", kind: kindGauge, sampled: true,
		read: func(st *State, _ int) int { return st.ReconfigSlots }},
	{name: "rsssim_window_occupancy_sampled", help: "window occupancy distribution over samples", kind: kindHistogram,
		bounds: []int64{0, 1, 2, 3, 4, 5, 6, 7, 15, 31}, sampled: true,
		read: func(st *State, _ int) int { return st.Occupancy }},
}

// stateSeries is one registered series of a State-read family, with
// the family's read and the series' index into it.
type stateSeries struct {
	*metric
	read func(st *State, i int) int
	i    int
}

// update sets the series from st: a counter or gauge to its value, a
// histogram by observing it.
func (s stateSeries) update(st *State) {
	v := s.read(st, s.i)
	switch {
	case s.c != nil:
		s.c.set(v)
	case s.g != nil:
		s.g.Set(int64(v))
	default:
		s.h.Observe(int64(v))
	}
}

// configLabels label the selection unit's candidates: the current
// configuration, then the three basis configurations.
var configLabels = []Label{{"config", "current"}, {"config", "basis1"}, {"config", "basis2"}, {"config", "basis3"}}

// unitLabels label the unit types.
func unitLabels() []Label {
	out := make([]Label, arch.NumUnitTypes)
	for t := range out {
		out[t] = Label{"unit", arch.UnitType(t).String()}
	}
	return out
}

// Probe is the telemetry sink on a machine's observer stream: it logs
// steering decisions, fault and prefetch events to its Exporter as they
// happen, and at every interval boundary reads a State and exports a
// Sample. Every counter in its registry but the decision count is set
// from the State, so the only per-cycle event it consumes is the cycle
// end. The accessors and Flush are safe on a nil receiver.
type Probe struct {
	interval int
	exp      Exporter
	reg      *Registry
	err      error // first exporter error; surfaced by Flush
	state    func() State
	basis    [3]string // basis configuration names, for decision records

	// core stamps every emitted record with the owning cluster core's
	// index, taken from the events (0 for scalar machines).
	core int

	// decisions is the event-counted decision counter. The State-read
	// series are set from every State read (each) or at sample
	// boundaries only (sampled).
	decisions *Counter
	each      []stateSeries
	sampled   []stateSeries

	// cur is the latest State read and last the State at the previous
	// sample, for interval deltas.
	cur, last State

	// out holds the records handed to the exporter. Exporters receive
	// pointers into it, valid only during the call, so exporting a
	// record allocates nothing on the probe's side.
	out struct {
		sample   Sample
		decision Decision
		fault    FaultEvent
		prefetch PrefetchEvent
	}
}

// NewProbe builds a probe sampling every interval cycles (interval must
// be positive). Attach an exporter with SetExporter and the state source
// with SetState before the run; a probe without an exporter still
// maintains its registry.
func NewProbe(interval int) *Probe {
	if interval <= 0 {
		panic("telemetry: sampling interval must be positive")
	}
	reg := NewRegistry()
	p := &Probe{interval: interval, reg: reg}
	for _, d := range stateMetrics {
		for i := 0; i < max(1, len(d.labels)); i++ {
			var labels []Label
			if d.labels != nil {
				labels = d.labels[i : i+1]
			}
			s := stateSeries{reg.add(d.name, d.help, d.kind, d.bounds, labels), d.read, i}
			switch {
			case d.read == nil:
				p.decisions = s.c
			case d.sampled:
				p.sampled = append(p.sampled, s)
			default:
				p.each = append(p.each, s)
			}
		}
	}
	return p
}

// SetExporter attaches the sample/decision destination.
func (p *Probe) SetExporter(e Exporter) { p.exp = e }

// SetState installs the state source the probe reads at each sampling
// boundary and at Flush. Without one, samples and counters read zero.
func (p *Probe) SetState(state func() State) { p.state = state }

// SetBasis names the steering basis configurations a decision's choice
// (1..3) selects, for the To field of decision records.
func (p *Probe) SetBasis(names [3]string) { p.basis = names }

// Registry exposes the probe's metric registry (for the Prometheus
// exporter and report code).
func (p *Probe) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// probeKinds are the events the probe consumes: the cycle end that
// paces sampling and the occurrences it logs.
var probeKinds = trace.Kinds(
	trace.KindCycleEnd, trace.KindDecision, trace.KindFaultInject,
	trace.KindFaultDetect, trace.KindFaultHeal, trace.KindRepairStart,
	trace.KindRepairEnd, trace.KindPhaseChange, trace.KindPrefetchIssue,
	trace.KindSpecResolve)

// Kinds implements trace.Sink.
func (p *Probe) Kinds() trace.Mask { return probeKinds }

// Observe implements trace.Sink: decisions, fault and prefetch events
// each export a record immediately (those are not sampled — every one
// is logged), and a cycle-end event on an interval boundary exports a
// sample. Decisions are also counted: the event is their only record.
// Allocation-free apart from the exporter.
func (p *Probe) Observe(e trace.Event) {
	switch e.Kind {
	case trace.KindCycleEnd:
		p.core = int(e.Core)
		if e.Cycle%int64(p.interval) == 0 {
			p.emitSample()
		}
	case trace.KindDecision:
		p.decisions.Inc()
		if p.exp != nil {
			n := trace.Unpack4(e.B)
			d := &p.out.decision
			*d = Decision{Cycle: int(e.Cycle), Core: int(e.Core), From: e.Str, To: p.basis[e.A-1],
				Choice: int(e.A), DiffSlots: n[0], Spans: n[1], SlotsLoading: n[2],
				DeferredSlots: n[3], StallSlotCycles: int(e.C)}
			p.export(p.exp.Decision(d))
		}
	case trace.KindFaultInject:
		if e.B != 0 {
			p.fault(e, FaultInjectedPermanent)
		} else {
			p.fault(e, FaultInjectedTransient)
		}
	case trace.KindFaultDetect:
		p.fault(e, FaultDetected)
	case trace.KindFaultHeal:
		p.fault(e, FaultRepaired)
	case trace.KindRepairStart:
		p.fault(e, FaultRepairStart)
	case trace.KindRepairEnd:
		if e.B != 0 {
			p.fault(e, FaultDead)
		} else {
			p.fault(e, FaultRepaired)
		}
	case trace.KindPhaseChange:
		p.prefetch(e, PrefetchPhaseChange)
	case trace.KindPrefetchIssue:
		p.prefetch(e, PrefetchIssue)
	case trace.KindSpecResolve:
		switch e.C {
		case trace.SpecConfirm:
			p.prefetch(e, PrefetchConfirm)
		case trace.SpecMispredict:
			p.prefetch(e, PrefetchMispredict)
		default:
			p.prefetch(e, PrefetchCancel)
		}
	}
}

// export keeps the first exporter error for Flush, so the hot path never
// checks errors.
func (p *Probe) export(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// fault exports one fault-event record.
func (p *Probe) fault(e trace.Event, event string) {
	if p.exp != nil {
		f := &p.out.fault
		*f = FaultEvent{Cycle: int(e.Cycle), Core: int(e.Core), Slot: int(e.A), Event: event}
		p.export(p.exp.Fault(f))
	}
}

// prefetch exports one prefetch-event record.
func (p *Probe) prefetch(e trace.Event, event string) {
	if p.exp != nil {
		r := &p.out.prefetch
		*r = PrefetchEvent{Cycle: int(e.Cycle), Core: int(e.Core), Event: event,
			Config: e.Str, Spans: int(e.A), ConfidencePct: int(e.B)}
		p.export(p.exp.Prefetch(r))
	}
}

// snapshot reads the state into cur (zero without a source) and sets
// every series but the decision count and the sampled ones from it.
func (p *Probe) snapshot() {
	if p.state != nil {
		p.cur = p.state()
	}
	for _, s := range p.each {
		s.update(&p.cur)
	}
}

// restored counts the slots returned to healthy: by a repair completing
// or by a steering rewrite.
func restored(fs *rfu.FaultStats) int { return fs.Repaired + fs.HealedByLoad }

// emitSample turns the state at a boundary into a Sample, each interval
// field the growth of its counter since the previous sample, updates the
// sampled gauges/histograms and hands the sample to the exporter.
func (p *Probe) emitSample() {
	p.snapshot()
	st, ls := &p.cur, &p.last
	cs, lc := &st.Stats, &ls.Stats
	ms, lm := &st.Manager, &ls.Manager
	fs, lf := &st.Faults, &ls.Faults
	var issued arch.Counts
	for t := range issued {
		issued[t] = cs.IssuedByType[t] - lc.IssuedByType[t]
	}
	s := &p.out.sample
	*s = Sample{
		Cycle:           cs.Cycles,
		Core:            p.core,
		Retired:         cs.Retired,
		IntervalRetired: cs.Retired - lc.Retired,
		Occupancy:       st.Occupancy,
		Demand:          st.Demand,
		IntervalIssued:  issued,
		RFUUnits:        st.RFUUnits,
		RFUBusy:         st.RFUBusy,
		FFUBusy:         st.FFUBusy,
		Slots:           st.Slots,
		CEMValid:        ms.Selections != [arch.NumConfigs]int{},
		CEMErrors:       st.Selection.Errors,
		CEMChoice:       st.Selection.Choice,
		ReconfigSlots:   st.ReconfigSlots,

		IntervalReconfigs:      st.Reconfigs - ls.Reconfigs,
		IntervalFlushed:        cs.Flushed - lc.Flushed,
		IntervalDispatchStalls: cs.DispatchStallFull - lc.DispatchStallFull,

		IntervalSteerCacheHits:   ms.CacheHits - lm.CacheHits,
		IntervalSteerCacheMisses: ms.CacheMisses - lm.CacheMisses,

		IntervalPrefetchIssued:       ms.PrefetchIssued - lm.PrefetchIssued,
		IntervalPrefetchConfirmed:    ms.PrefetchConfirmed - lm.PrefetchConfirmed,
		IntervalPrefetchMispredicted: ms.PrefetchMispredicted - lm.PrefetchMispredicted,
		IntervalPrefetchCancelled:    ms.PrefetchCancelled - lm.PrefetchCancelled,

		IntervalFaultsInjected: fs.InjectedTransient + fs.InjectedPermanent - lf.InjectedTransient - lf.InjectedPermanent,
		IntervalFaultsDetected: fs.Detected - lf.Detected,
		IntervalFaultsRepaired: restored(fs) - restored(lf),
		IntervalScrubScans:     fs.ScrubScans - lf.ScrubScans,
		MaskedSlots:            st.MaskedSlots,

		BucketIssued:   cs.CyclesIssued - lc.CyclesIssued,
		BucketUnits:    cs.CyclesUnits - lc.CyclesUnits,
		BucketDeps:     cs.CyclesDeps - lc.CyclesDeps,
		BucketFrontend: cs.CyclesFrontend - lc.CyclesFrontend,
	}
	s.IntervalIPC = float64(s.IntervalRetired) / float64(p.interval)

	for _, m := range p.sampled {
		m.update(st)
	}
	p.last = p.cur

	if p.exp != nil {
		p.export(p.exp.Sample(s))
	}
}

// Flush brings the counters up to the machine's final state, flushes the
// exporter and returns the first error the telemetry pipeline
// encountered during the run (export errors are deferred to here so the
// hot path never checks them).
func (p *Probe) Flush() error {
	if p == nil {
		return nil
	}
	p.snapshot()
	if p.exp != nil {
		p.export(p.exp.Flush())
	}
	return p.err
}
