// Package fetch implements the front end of Fig. 1: an instruction fetch
// unit driven by a bimodal branch predictor with a branch target buffer,
// accelerated by a trace cache that supplies wider fetch for frequently
// executed instruction runs. Fetched instructions carry their predicted
// next PC so the back end can detect mispredictions at branch resolution.
package fetch

import (
	"fmt"

	"repro/internal/isa"
)

// Predictor is a conditional branch predictor (2-bit saturating
// counters, indexed either bimodally by PC or gshare-style by PC XOR a
// global history register) plus a direct-mapped BTB for register-target
// jumps (JALR). Direct branches and JAL compute their targets statically
// from the immediate, so the BTB is consulted only for JALR.
type Predictor struct {
	counters []uint8 // 2-bit saturating counters, weakly taken at reset
	btbTag   []uint32
	btbDst   []uint32
	btbValid []bool
	mask     uint32

	// gshare state: historyBits == 0 selects plain bimodal indexing.
	// History is maintained non-speculatively (updated at resolution),
	// a documented simplification relative to checkpointed history.
	historyBits uint
	history     uint32

	lookups, hits int
}

// NewPredictor builds a predictor with the given power-of-two table size.
func NewPredictor(entries int) *Predictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("fetch: predictor entries %d not a positive power of two", entries))
	}
	p := &Predictor{
		counters: make([]uint8, entries),
		btbTag:   make([]uint32, entries),
		btbDst:   make([]uint32, entries),
		btbValid: make([]bool, entries),
		mask:     uint32(entries - 1),
	}
	for i := range p.counters {
		p.counters[i] = 1 // weakly not-taken
	}
	return p
}

// NewGsharePredictor builds a gshare predictor: the counter table is
// indexed by PC XOR the low historyBits bits of a global branch history
// register.
func NewGsharePredictor(entries int, historyBits uint) *Predictor {
	p := NewPredictor(entries)
	p.historyBits = historyBits
	return p
}

// index computes the counter-table index for pc.
func (p *Predictor) index(pc uint32) uint32 {
	if p.historyBits == 0 {
		return pc & p.mask
	}
	return (pc ^ (p.history & (1<<p.historyBits - 1))) & p.mask
}

// PredictTaken predicts a conditional branch at pc.
func (p *Predictor) PredictTaken(pc uint32) bool {
	return p.counters[p.index(pc)] >= 2
}

// UpdateTaken trains the counter for the conditional branch at pc and,
// for gshare, shifts the outcome into the global history.
func (p *Predictor) UpdateTaken(pc uint32, taken bool) {
	c := &p.counters[p.index(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	if p.historyBits > 0 {
		p.history <<= 1
		if taken {
			p.history |= 1
		}
	}
}

// PredictTarget predicts an indirect (JALR) target from the BTB; ok is
// false on a BTB miss.
func (p *Predictor) PredictTarget(pc uint32) (uint32, bool) {
	i := pc & p.mask
	if p.btbValid[i] && p.btbTag[i] == pc {
		return p.btbDst[i], true
	}
	return 0, false
}

// UpdateTarget records an indirect branch's resolved target.
func (p *Predictor) UpdateTarget(pc, target uint32) {
	i := pc & p.mask
	p.btbValid[i] = true
	p.btbTag[i] = pc
	p.btbDst[i] = target
}

// RecordOutcome tallies prediction accuracy for statistics.
func (p *Predictor) RecordOutcome(correct bool) {
	p.lookups++
	if correct {
		p.hits++
	}
}

// Accuracy returns fraction of correct predictions and the sample count.
func (p *Predictor) Accuracy() (float64, int) {
	if p.lookups == 0 {
		return 0, 0
	}
	return float64(p.hits) / float64(p.lookups), p.lookups
}

// Fetched is one instruction leaving the front end.
type Fetched struct {
	PC       uint32
	Inst     isa.Inst
	PredNext uint32 // predicted next PC (what fetch followed)
	// Cycle is the processor cycle the instruction left the front end;
	// the fetch unit has no clock, so the processor stamps it.
	Cycle int
}

// traceLine is one trace-cache entry: the fetch-start PC of the last
// fill of its set. Line contents are not modelled: decoded instructions
// are immutable and fetch walks the predicted path itself, so a hit only
// widens fetch.
type traceLine struct {
	startPC uint32
	valid   bool
}

// TraceCache caches instruction runs keyed by start PC, widening fetch on
// a hit (§2: "the trace cache is used to hold instructions that are
// frequently executed").
type TraceCache struct {
	lines []traceLine
	mask  uint32

	hits, misses int
}

// NewTraceCache builds a trace cache with a power-of-two number of lines.
func NewTraceCache(lines int) *TraceCache {
	if lines <= 0 || lines&(lines-1) != 0 {
		panic(fmt.Sprintf("fetch: bad trace cache geometry lines=%d", lines))
	}
	return &TraceCache{lines: make([]traceLine, lines), mask: uint32(lines - 1)}
}

// Lookup reports whether a cached run starts at pc.
func (t *TraceCache) Lookup(pc uint32) bool {
	l := &t.lines[pc&t.mask]
	if l.valid && l.startPC == pc {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Fill records a run starting at pc.
func (t *TraceCache) Fill(pc uint32) {
	t.lines[pc&t.mask] = traceLine{startPC: pc, valid: true}
}

// HitRate returns the fraction of lookups that hit, and the lookup count.
func (t *TraceCache) HitRate() (float64, int) {
	n := t.hits + t.misses
	if n == 0 {
		return 0, 0
	}
	return float64(t.hits) / float64(n), n
}

// Unit is the instruction fetch unit. Each cycle it supplies up to
// MemWidth instructions from instruction memory, or up to TCWidth when
// the trace cache holds a run starting at the current PC. It follows
// predicted control flow and stops at predicted-taken branches' targets
// only on the next cycle (one fetch group per cycle is contiguous along
// the predicted path).
type Unit struct {
	prog isa.Program
	pred *Predictor
	tc   *TraceCache

	pc       uint32
	parked   bool // a HALT was supplied; no further fetch until redirect
	MemWidth int  // fetch width on a trace-cache miss
	TCWidth  int  // fetch width on a trace-cache hit

	fetched int
}

// NewUnit builds a fetch unit over a decoded program. pred and tc may not
// be nil.
func NewUnit(prog isa.Program, pred *Predictor, tc *TraceCache) *Unit {
	if pred == nil || tc == nil {
		panic("fetch: predictor and trace cache are required")
	}
	return &Unit{prog: prog, pred: pred, tc: tc, MemWidth: 2, TCWidth: 4}
}

// PC returns the next fetch address.
func (u *Unit) PC() uint32 { return u.pc }

// Parked reports whether fetch is stopped at a HALT or at a PC outside
// the program: AppendFetch then supplies nothing and changes nothing
// (no trace-cache lookup either) until a Redirect.
func (u *Unit) Parked() bool { return u.parked || u.pc >= uint32(len(u.prog)) }

// Redirect steers fetch to pc — used at reset and on misprediction
// recovery. It unparks a front end stopped at a HALT (the halt may have
// been wrong-path).
func (u *Unit) Redirect(pc uint32) {
	u.pc = pc
	u.parked = false
}

// predictNext computes the predicted next PC for the instruction at pc.
func (u *Unit) predictNext(pc uint32, in isa.Inst) (next uint32, taken bool) {
	switch {
	case in.Op == isa.JAL:
		return pc + uint32(in.Imm), true
	case in.Op == isa.JALR:
		if target, ok := u.pred.PredictTarget(pc); ok {
			return target, true
		}
		return pc + 1, false // no BTB entry: fall through, will mispredict
	case in.Op.IsBranch(): // conditional
		if u.pred.PredictTaken(pc) {
			return pc + uint32(in.Imm), true
		}
		return pc + 1, false
	case in.Op == isa.HALT:
		return pc, false // fetch parks on HALT
	default:
		return pc + 1, false
	}
}

// AppendFetch supplies one cycle's fetch group along the predicted path,
// appended to dst; it returns the extended slice. The group is cut at
// the width limit, at HALT, and after a predicted-taken branch (the
// redirect costs the rest of the group, as in a real front end). Every
// non-empty group is filled into the trace cache under its start PC. The
// processor passes a reusable scratch slice so steady-state fetch
// allocates nothing.
func (u *Unit) AppendFetch(dst []Fetched) []Fetched {
	if u.Parked() {
		return dst
	}
	width := u.MemWidth
	if u.tc.Lookup(u.pc) {
		width = u.TCWidth
	}

	n := 0
	start, pc := u.pc, u.pc
	for n < width {
		if pc >= uint32(len(u.prog)) {
			break
		}
		in := u.prog[pc]
		next, taken := u.predictNext(pc, in)
		dst = append(dst, Fetched{PC: pc, Inst: in, PredNext: next})
		n++
		if in.Op == isa.HALT {
			u.parked = true
			pc = next
			break
		}
		if taken && next != pc+1 {
			pc = next
			break
		}
		pc = next
	}
	u.pc = pc
	u.fetched += n
	if n > 0 {
		u.tc.Fill(start)
	}
	return dst
}

// Fetched returns the total number of instructions supplied.
func (u *Unit) Fetched() int { return u.fetched }
