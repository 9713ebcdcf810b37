// Package trace is the simulator's one observer stream. Instrumented
// packages (cpu, core, rfu, predict, baseline) report every occurrence
// worth observing — pipeline events, cycle boundaries, selection passes,
// steering decisions, reconfigurations, fault transitions, prefetch
// speculation — as one small value-typed Event, emitted once per site
// through an Observer that fans it out to its sinks. The telemetry probe,
// the span recorder and the pipeline Buffer defined here are all sinks;
// a new view is one more sink, with no new hook sites.
//
// The Buffer sink keeps the pipeline events (fetch, dispatch, issue,
// retire, flush and reconfiguration) and renders them as a
// per-instruction pipeline view (one row per instruction, one column per
// cycle), disassembling instructions from the program at render time.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Kind classifies an event.
type Kind uint8

// Event kinds. The pipeline kinds come first, in pipeline order; the
// argument fields each kind uses are listed with it.
const (
	// KindFetch is a fetch row: A the dispatch sequence number, B the PC.
	// The processor does not emit it; Buffer derives it from the
	// dispatch event, which carries the fetch cycle.
	KindFetch Kind = iota
	// KindDispatch: A sequence number, B PC, C the cycle the instruction
	// was fetched.
	KindDispatch
	// KindIssue: A sequence number, B PC, C execution latency (including
	// any cache-miss extension).
	KindIssue
	// KindRetire: A sequence number, B PC.
	KindRetire
	// KindFlush is one instruction squashed by misprediction recovery:
	// A sequence number, B PC.
	KindFlush
	// KindReconfig is one span rewrite starting: A the head slot, B the
	// span width in slots, C the bus latency in cycles, Str the name of
	// the unit installed.
	KindReconfig

	// KindCycleEnd ends a cycle — the telemetry sampling point: A is the
	// cumulative retired count.
	KindCycleEnd
	// KindSelection is one selection-unit pass: A the winning candidate,
	// B the four CEM scores (Pack4).
	KindSelection
	// KindDecision is a configuration switch the loader started: Str
	// names the allocation before it ("(empty)", "hybrid" or a basis
	// configuration), A is the selection unit's choice (1..3) of basis
	// configuration, B packs the differing, started-span, loading and
	// deferred slot counts (Pack4), C is the loading stall in
	// slot-cycles.
	KindDecision

	// KindFaultInject is an upset striking slot A; B is 1 when
	// permanent.
	KindFaultInject
	// KindFaultDetect is the readback scrub detecting corrupt slot A.
	KindFaultDetect
	// KindFaultHeal is corrupt slot A healed by a steering
	// reconfiguration rewriting its frames.
	KindFaultHeal
	// KindRepairStart is a repair rewrite of slot A beginning.
	KindRepairStart
	// KindRepairEnd is a repair of slot A completing; B is 1 when the
	// permanent fault survived and the slot is dead.
	KindRepairEnd

	// KindPhaseChange is a workload phase boundary the prefetch
	// predictor detected.
	KindPhaseChange
	// KindSpecOpen opens a speculation: Str the predicted configuration,
	// B the confidence in percent.
	KindSpecOpen
	// KindPrefetchIssue is A speculative span rewrites started this
	// cycle toward configuration Str at confidence B.
	KindPrefetchIssue
	// KindSpecResolve closes the speculation toward Str: A the spans it
	// issued, B its confidence, C the outcome (SpecConfirm,
	// SpecMispredict or SpecCancel).
	KindSpecResolve

	numKinds
)

var kindNames = [numKinds]string{
	"fetch", "dispatch", "issue", "retire", "flush", "reconfig",
	"cycle-end", "selection", "decision",
	"fault-inject", "fault-detect", "fault-heal", "repair-start",
	"repair-end",
	"phase-change", "spec-open", "prefetch-issue", "spec-resolve",
}

// String names the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Speculation outcomes, carried in a KindSpecResolve event's C field.
const (
	SpecConfirm int32 = iota
	SpecMispredict
	SpecCancel
)

// Event is one observed occurrence. It is passed by value and holds no
// pointers besides a static string, so emitting and fanning it out never
// allocates. The Observer stamps Cycle and Core; the rest is
// kind-specific (see the Kind constants).
type Event struct {
	Cycle   int64
	Kind    Kind
	Core    uint8
	A, B, C int32
	Str     string
}

// Seq is a pipeline event's dispatch sequence number.
func (e Event) Seq() uint32 { return uint32(e.A) }

// PC is a pipeline event's program counter.
func (e Event) PC() uint32 { return uint32(e.B) }

// Pack4 packs four values in [0, 255] into one event argument.
func Pack4(v [4]int) int32 {
	return int32(uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16 | uint32(v[3])<<24)
}

// Unpack4 reverses Pack4.
func Unpack4(p int32) [4]int {
	u := uint32(p)
	return [4]int{int(u & 0xff), int(u >> 8 & 0xff), int(u >> 16 & 0xff), int(u >> 24)}
}

// Mask is a set of event kinds.
type Mask uint64

// Kinds builds the set of the given kinds.
func Kinds(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Sink consumes events. Kinds is read once, when the sink is added; the
// observer hands Observe only events of those kinds.
type Sink interface {
	Kinds() Mask
	Observe(Event)
}

// Observer is one machine's event channel: it holds the current cycle
// and the cluster-core label, stamps both onto every event and fans the
// event out to the sinks that consume its kind. SetCore, SetCycle,
// Wants and Emit are safe on a nil receiver, so an unobserved machine
// pays one branch per site. Not safe for concurrent use — it belongs to
// the machine's cycle loop.
type Observer struct {
	cycle int64
	core  uint8
	kinds Mask // union of the sinks' kinds
	sinks []sink
}

// sink is an added Sink with the kinds it consumes.
type sink struct {
	kinds Mask
	Sink
}

// Add attaches a sink.
func (o *Observer) Add(s Sink) {
	k := s.Kinds()
	o.kinds |= k
	o.sinks = append(o.sinks, sink{k, s})
}

// SetCore sets the cluster-core index stamped onto every event (0, the
// default, for a scalar machine).
func (o *Observer) SetCore(core int) {
	if o != nil {
		o.core = uint8(core)
	}
}

// SetCycle advances the clock: events emitted from now on carry cycle.
func (o *Observer) SetCycle(cycle int) {
	if o != nil {
		o.cycle = int64(cycle)
	}
}

// Wants reports whether any sink consumes kind, so a site can skip work
// that only feeds an event nobody reads.
func (o *Observer) Wants(k Kind) bool { return o != nil && o.kinds&(1<<k) != 0 }

// Emit stamps e and hands it to every sink consuming its kind. The check
// stays here and the fan-out in its own function, so Emit inlines into
// the sites as one branch.
func (o *Observer) Emit(e Event) {
	if o.Wants(e.Kind) {
		o.fanOut(e)
	}
}

func (o *Observer) fanOut(e Event) {
	e.Cycle = o.cycle
	e.Core = o.core
	for _, s := range o.sinks {
		if s.kinds&(1<<e.Kind) != 0 {
			s.Observe(e)
		}
	}
}

// pipelineKinds are the events Buffer keeps.
var pipelineKinds = Kinds(KindDispatch, KindIssue, KindRetire, KindFlush, KindReconfig)

// Ring is a bounded overwrite-oldest log: it keeps the last values
// pushed, up to its capacity. Its storage is allocated once, so Push
// never allocates. The zero Ring has no capacity; build one with
// NewRing. Not safe for concurrent use.
type Ring[T any] struct {
	buf    []T
	next   int // index the next push writes
	pushed int
}

// NewRing builds a ring holding at most n values (n must be positive).
func NewRing[T any](n int) Ring[T] {
	if n <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return Ring[T]{buf: make([]T, n)}
}

// Push stores v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.pushed++
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return min(r.pushed, len(r.buf)) }

// Pushed returns the number of values ever pushed, overwritten ones
// included.
func (r *Ring[T]) Pushed() int { return r.pushed }

// Copy returns a new slice of the values held, oldest first.
func (r *Ring[T]) Copy() []T {
	out := make([]T, 0, r.Len())
	if r.pushed >= len(r.buf) {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Buffer is a bounded in-memory pipeline-event sink: once the limit is
// reached the oldest events are dropped. Until, when non-negative, drops
// events after that cycle, so the start of a long run survives the
// limit.
type Buffer struct {
	Until int64

	events Ring[Event]
}

// NewBuffer builds a sink holding at most limit events (limit must be
// positive) with no cycle cutoff.
func NewBuffer(limit int) *Buffer {
	return &Buffer{Until: -1, events: NewRing[Event](limit)}
}

// Kinds implements Sink.
func (b *Buffer) Kinds() Mask { return pipelineKinds }

// Observe implements Sink. A dispatch event is stored as a fetch row at
// its fetch cycle followed by the dispatch row.
func (b *Buffer) Observe(e Event) {
	if e.Kind == KindDispatch {
		f := e
		f.Kind, f.Cycle, f.C = KindFetch, int64(e.C), 0
		b.Record(f)
	}
	b.Record(e)
}

// Record stores the event, evicting the oldest when full.
func (b *Buffer) Record(e Event) {
	if b.Until >= 0 && e.Cycle > b.Until {
		return
	}
	b.events.Push(e)
}

// Events returns the recorded events, oldest first.
func (b *Buffer) Events() []Event { return b.events.Copy() }

// Len returns the number of events held.
func (b *Buffer) Len() int { return b.events.Len() }

// Dropped reports whether the buffer ever evicted events.
func (b *Buffer) Dropped() bool { return b.events.Pushed() > b.events.Len() }

// text renders an event's detail: the disassembly for instruction
// events that carry one, the span for reconfigurations.
func text(e Event, prog isa.Program) string {
	switch e.Kind {
	case KindReconfig:
		return fmt.Sprintf("%s at slot %d", e.Str, e.A)
	case KindRetire:
		return ""
	}
	if pc := e.PC(); int(pc) < len(prog) {
		return prog[pc].String()
	}
	return ""
}

// instRow collects one dynamic instruction's lifecycle.
type instRow struct {
	seq      uint32
	pc       uint32
	fetch    int
	dispatch int
	issue    int
	latency  int
	retire   int
	flushed  int
}

// Pipeview renders the classic pipeline chart: one row per dynamic
// instruction, one column per cycle, with markers
//
//	F fetch   D dispatch   I issue   = executing   R retire   x flushed
//
// Reconfiguration events render as their own rows — marker C at the
// event cycle — interleaved chronologically with the instruction rows,
// so steering activity is visible against the instruction stream.
// Cycles outside [fromCycle, toCycle] are clipped; instructions and
// events entirely outside the range are omitted. Instruction text is
// disassembled from prog.
func Pipeview(events []Event, prog isa.Program, fromCycle, toCycle int) string {
	rows := map[uint32]*instRow{}
	order := []uint32{}
	var reconfigs []Event
	for _, e := range events {
		cycle := int(e.Cycle)
		if e.Kind == KindReconfig {
			if cycle >= fromCycle && cycle <= toCycle {
				reconfigs = append(reconfigs, e)
			}
			continue
		}
		r, ok := rows[e.Seq()]
		if !ok {
			r = &instRow{seq: e.Seq(), pc: e.PC(), fetch: -1, dispatch: -1, issue: -1, retire: -1, flushed: -1}
			rows[e.Seq()] = r
			order = append(order, e.Seq())
		}
		switch e.Kind {
		case KindFetch:
			r.fetch = cycle
		case KindDispatch:
			r.dispatch = cycle
		case KindIssue:
			r.issue = cycle
			r.latency = int(e.C)
		case KindRetire:
			r.retire = cycle
		case KindFlush:
			r.flushed = cycle
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	sort.SliceStable(reconfigs, func(i, j int) bool { return reconfigs[i].Cycle < reconfigs[j].Cycle })

	width := toCycle - fromCycle + 1
	if width <= 0 {
		return ""
	}
	clip := func(s string) string {
		if len(s) > 26 {
			return s[:26]
		}
		return s
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-5s %-26s %s\n", "seq", "pc", "instruction", "cycles "+fmt.Sprint(fromCycle)+"..")
	emitReconfig := func(e Event) {
		line := []byte(strings.Repeat(".", width))
		line[int(e.Cycle)-fromCycle] = 'C'
		fmt.Fprintf(&sb, "%-6s %-5s %-26s %s\n", "-", "-", clip(text(e, prog)), line)
	}
	nextRC := 0
	for _, seq := range order {
		r := rows[seq]
		last := r.retire
		if r.flushed >= 0 && r.flushed > last {
			last = r.flushed
		}
		if last < fromCycle && last >= 0 {
			continue
		}
		if r.fetch > toCycle && r.fetch >= 0 {
			continue
		}
		// Flush any reconfigurations that happened before this
		// instruction entered the pipeline, so the chart reads in
		// chronological order top to bottom.
		for nextRC < len(reconfigs) && r.fetch >= 0 && int(reconfigs[nextRC].Cycle) < r.fetch {
			emitReconfig(reconfigs[nextRC])
			nextRC++
		}
		line := []byte(strings.Repeat(".", width))
		mark := func(cycle int, c byte) {
			if cycle >= fromCycle && cycle <= toCycle {
				line[cycle-fromCycle] = c
			}
		}
		if r.issue >= 0 {
			end := r.issue + r.latency - 1
			for c := r.issue + 1; c <= end; c++ {
				mark(c, '=')
			}
		}
		mark(r.fetch, 'F')
		mark(r.dispatch, 'D')
		mark(r.issue, 'I')
		mark(r.retire, 'R')
		mark(r.flushed, 'x')
		var inst string
		if int(r.pc) < len(prog) {
			inst = prog[r.pc].String()
		}
		fmt.Fprintf(&sb, "%-6d %-5d %-26s %s\n", r.seq, r.pc, clip(inst), line)
	}
	for ; nextRC < len(reconfigs); nextRC++ {
		emitReconfig(reconfigs[nextRC])
	}
	return sb.String()
}
