// Package wakeup implements the select-free wake-up array of §4.1
// (Figures 4–6, after Brown, Stark and Patt, "Select-Free Instruction
// Scheduling Logic", MICRO-34). Each array entry holds a one-hot
// required-unit vector and one dependency bit per array entry; an entry
// requests execution when it is unscheduled, its unit type is available,
// and every entry it depends on has asserted its result-available line.
// Countdown timers assert result-available lines at the moment a granted
// instruction's result will be ready; retirement clears the entry's
// column everywhere so later instructions never wait on a retired
// producer. Each countdown is kept as the tick it ends on and filed
// under that tick in a deadline wheel, so a Tick reads one wheel word
// and touches only the rows whose lines rise then, and NextEvent
// answers "when does the next line rise?".
//
// The array is select-free: it only raises execution *requests*.
// Contention between requesters for the same unit type is resolved by the
// scheduler (package cpu), as in the paper. The caller names the row of
// every allocation: the processor's rows are its register-update-unit
// slots, so a request bit is the RUU slot it schedules.
//
// The hot state is stored as bitboards: one uint64 mask per array-wide
// signal (used, scheduled, result-available) with bit i carrying row i,
// one dependency mask per row with bit j carrying "row i waits on row j",
// and its transpose, one consumer mask per column — the wires a
// result-available line drives. A blocked board (rows waiting on at least
// one low result line) is updated only when a line rises or falls, along
// that line's consumer mask, and per-type counts of unscheduled rows move
// as rows change state. The Fig. 6 request logic over the whole array is
// then one mask expression (RequestMask), the manager's ready view another
// (ReadyMask), and the requirement encoder's input a copy
// (RequiredCounts). Request evaluates one row from scratch and is the
// reference the boards are tested against.
package wakeup

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/arch"
	"repro/internal/logic"
)

// MaxSize is the largest supported array: one row per bit of the
// bitboard words. The paper's machine uses arch.QueueSize = 7.
const MaxSize = 64

// Array is the wake-up array. The zero value is unusable; use New.
type Array struct {
	size int

	used      uint64 // row holds an instruction
	scheduled uint64 // row has been granted execution
	resultOK  uint64 // row's result-available line
	blocked   uint64 // row waits on at least one low result-available line

	deps      []uint64 // deps[i] bit j: result required from row j
	consumers []uint64 // consumers[j] bit i: row i requires row j's result
	typeMask  [arch.NumUnitTypes]uint64
	pending   arch.Counts // per type: used, unscheduled rows

	unit    []arch.UnitType
	due     []int // tick on which the result-available line asserts
	latency []int32

	// now counts Ticks. A counting row (used, scheduled, line low) has
	// a due tick, now+countdown, and its bit set in the wheel word of
	// the Tick that raises it: wheel[due%wheelSize], or the next Tick's
	// for a countdown of zero. A deadline wheelSize or more ticks ahead
	// shares its word with nearer ones and stays filed until its own
	// tick.
	now   int
	wheel [wheelSize]uint64
}

// wheelSize is the deadline wheel's length in ticks, a power of two
// above every default execution latency.
const wheelSize = 64

// New returns an empty wake-up array with the given number of entries
// (the paper's machine uses arch.QueueSize = 7). Sizes above MaxSize —
// the bitboard word width — panic.
func New(size int) *Array {
	if size <= 0 {
		panic("wakeup: array size must be positive")
	}
	if size > MaxSize {
		panic(fmt.Sprintf("wakeup: array size %d exceeds %d rows", size, MaxSize))
	}
	return &Array{
		size:      size,
		deps:      make([]uint64, size),
		consumers: make([]uint64, size),
		unit:      make([]arch.UnitType, size),
		due:       make([]int, size),
		latency:   make([]int32, size),
	}
}

// Size returns the number of rows.
func (a *Array) Size() int { return a.size }

// Free returns the number of unused rows.
func (a *Array) Free() int { return a.size - bits.OnesCount64(a.used) }

// Allocate inserts an instruction into the given unused row: it needs
// the given unit type, waits on the producer rows set in depMask, and
// executes with the given latency. depMask may name only used rows
// other than row itself; violations panic, as they indicate a
// dispatcher bug.
func (a *Array) Allocate(row int, unit arch.UnitType, depMask uint64, latency int) {
	if latency < 1 {
		panic("wakeup: latency must be at least 1")
	}
	if row < 0 || row >= a.size || a.used>>uint(row)&1 != 0 {
		panic(fmt.Sprintf("wakeup: allocation of row %d in invalid state", row))
	}
	bit := uint64(1) << uint(row)
	if depMask&^a.used != 0 || depMask&bit != 0 {
		panic(fmt.Sprintf("wakeup: bad dependency mask %#x for row %d", depMask, row))
	}
	// A producer whose result-available line is already asserted imposes
	// no wait; recording the bit anyway matches the hardware, where the
	// line stays high until retirement.
	for m := depMask; m != 0; m &= m - 1 {
		a.consumers[bits.TrailingZeros64(m)] |= bit
	}
	if depMask&^a.resultOK != 0 {
		a.blocked |= bit
	}
	a.used |= bit
	a.deps[row] = depMask
	a.typeMask[unit] |= bit
	a.pending[unit]++
	a.unit[row] = unit
	a.latency[row] = int32(latency)
}

// raise asserts the result-available lines in rows and unblocks every
// consumer whose last low line that was.
func (a *Array) raise(rows uint64) {
	a.resultOK |= rows
	var woken uint64
	for m := rows; m != 0; m &= m - 1 {
		woken |= a.consumers[bits.TrailingZeros64(m)]
	}
	a.unblock(woken & a.blocked)
}

// lower de-asserts row i's result-available line, blocking its consumers.
func (a *Array) lower(i int) {
	bit := uint64(1) << uint(i)
	if a.resultOK&bit != 0 {
		a.resultOK &^= bit
		a.blocked |= a.consumers[i]
	}
}

// unblock re-evaluates the blocked bit of every row in rows.
func (a *Array) unblock(rows uint64) {
	for m := rows; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a.deps[i]&^a.resultOK == 0 {
			a.blocked &^= 1 << uint(i)
		}
	}
}

// Request reports whether row i requests execution given the per-type
// unit availability lines — the Fig. 6 logic: not yet scheduled, and for
// every column either not needed or available. It evaluates the row from
// its dependency vector, independently of the incrementally kept boards.
func (a *Array) Request(i int, unitAvail [arch.NumUnitTypes]bool) bool {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit != 0 {
		return false
	}
	if !unitAvail[a.unit[i]] {
		return false
	}
	return a.deps[i]&^a.resultOK == 0
}

// RequestMask evaluates the Fig. 6 request logic for every row at once
// against a packed unit-availability bitset (bit t = a unit of type t can
// accept work) and returns the requesting rows as a bitboard. It is the
// board form of Request: RequestMask(s)>>i&1 == Request(i, unpack(s))
// for every row i.
func (a *Array) RequestMask(availSet uint8) uint64 {
	var eligible uint64
	for t := 0; availSet != 0; t++ {
		if availSet&1 != 0 {
			eligible |= a.typeMask[t]
		}
		availSet >>= 1
	}
	return a.ReadyMask() & eligible
}

// Requests returns the rows requesting execution, in row order.
func (a *Array) Requests(unitAvail [arch.NumUnitTypes]bool) []int {
	var out []int
	for i := 0; i < a.size; i++ {
		if a.Request(i, unitAvail) {
			out = append(out, i)
		}
	}
	return out
}

// ReadyMask returns the rows whose data dependencies are satisfied and
// that have not been granted execution, regardless of unit availability
// — the configuration manager's "ready to be executed" queue view — as
// a bitboard.
func (a *Array) ReadyMask() uint64 { return a.used &^ a.scheduled &^ a.blocked }

// Grant marks row i scheduled and starts its countdown timer: an
// instruction of latency N sets the timer to N-1, asserting the
// result-available line N-1 cycles later; a single-cycle instruction
// asserts it immediately (§4.1).
func (a *Array) Grant(i int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit != 0 {
		panic(fmt.Sprintf("wakeup: grant of row %d in invalid state", i))
	}
	a.scheduled |= bit
	a.pending[a.unit[i]]--
	if a.latency[i] == 1 {
		a.raise(bit)
		return
	}
	a.file(i, a.now+int(a.latency[i])-1)
}

// counting reports whether row i's timer runs: granted, line low.
func (a *Array) counting(i int) bool {
	return (a.scheduled&^a.resultOK)>>uint(i)&1 != 0
}

// file starts row i's countdown toward tick due, at least now.
func (a *Array) file(i, due int) {
	a.due[i] = due
	a.wheel[max(due, a.now+1)&(wheelSize-1)] |= 1 << uint(i)
}

// unfile stops row i's countdown, if it runs.
func (a *Array) unfile(i int) {
	if a.counting(i) {
		a.wheel[max(a.due[i], a.now+1)&(wheelSize-1)] &^= 1 << uint(i)
	}
}

// Reschedule de-asserts row i's scheduled bit so it will request
// execution again — the replay path used when a granted instruction must
// be re-executed (§4.1).
func (a *Array) Reschedule(i int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 {
		panic(fmt.Sprintf("wakeup: reschedule of unused row %d", i))
	}
	a.unfile(i)
	if a.scheduled&bit != 0 {
		a.scheduled &^= bit
		a.pending[a.unit[i]]++
	}
	a.lower(i)
}

// ExtendTimer adds extra cycles to a running countdown — the mechanism
// the processor uses when an instruction's true latency is discovered in
// flight (e.g. a cache miss lengthening a load).
func (a *Array) ExtendTimer(i, extra int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit == 0 || extra < 0 {
		panic(fmt.Sprintf("wakeup: bad ExtendTimer(%d, %d)", i, extra))
	}
	left := 0 // a line already up counts the extension from now
	if a.counting(i) {
		left = a.due[i] - a.now
		a.unfile(i)
	}
	a.lower(i)
	a.file(i, a.now+left+extra)
}

// Tick advances every countdown timer one cycle, asserting the
// result-available lines whose countdown ends, and reports whether any
// rose. It reads the wheel word of the new tick; a row filed there
// rises unless its deadline is a whole wheel turn or more away.
func (a *Array) Tick() bool {
	a.now++
	if a.wheel[a.now&(wheelSize-1)] == 0 {
		return false // inlined: most Ticks end here
	}
	return a.tickDue()
}

// tickDue raises the rows filed in the current tick's wheel word whose
// deadline has come.
func (a *Array) tickDue() bool {
	w := &a.wheel[a.now&(wheelSize-1)]
	var risen uint64
	for m := *w; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); a.due[i] <= a.now {
			risen |= 1 << uint(i)
		}
	}
	if risen == 0 {
		return false
	}
	*w &^= risen
	a.raise(risen)
	return true
}

// NextEvent returns how many Ticks ahead the next result-available line
// rises (1 is the next Tick), or math.MaxInt when no timer counts.
func (a *Array) NextEvent() int {
	next := math.MaxInt
	for m := a.used & a.scheduled &^ a.resultOK; m != 0; m &= m - 1 {
		next = min(next, max(a.due[bits.TrailingZeros64(m)]-a.now, 1))
	}
	return next
}

// Advance counts n Ticks in which no line rises: n must be below
// NextEvent. It is how a caller jumps the clock over quiet cycles.
func (a *Array) Advance(n int) {
	if next := a.NextEvent(); n >= next {
		panic(fmt.Sprintf("wakeup: Advance(%d) passes a deadline %d ticks ahead", n, next))
	}
	a.now += n
}

// Release retires row i: the entry is cleared and its column is cleared
// in every other row, so instructions that depended on it no longer wait
// (§4.1: "every wake-up array entry associated with the instruction is
// cleared").
func (a *Array) Release(i int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 {
		panic(fmt.Sprintf("wakeup: release of unused row %d", i))
	}
	if a.scheduled&bit == 0 {
		a.pending[a.unit[i]]--
	}
	a.unfile(i)
	for m := a.deps[i]; m != 0; m &= m - 1 {
		a.consumers[bits.TrailingZeros64(m)] &^= bit
	}
	col := a.consumers[i]
	for m := col; m != 0; m &= m - 1 {
		a.deps[bits.TrailingZeros64(m)] &^= bit
	}
	a.used &^= bit
	a.scheduled &^= bit
	a.resultOK &^= bit
	a.blocked &^= bit
	a.typeMask[a.unit[i]] &^= bit
	a.deps[i] = 0
	a.consumers[i] = 0
	a.latency[i] = 0
	a.unit[i] = 0
	a.unblock(col & a.blocked)
}

// Row state accessors.

// Used reports whether row i holds an instruction.
func (a *Array) Used(i int) bool { return a.used>>uint(i)&1 != 0 }

// ResultAvailable reports row i's result-available line.
func (a *Array) ResultAvailable(i int) bool { return a.resultOK>>uint(i)&1 != 0 }

// Unit returns row i's required unit type.
func (a *Array) Unit(i int) arch.UnitType { return a.unit[i] }

// DependsOn reports whether row i waits on row j.
func (a *Array) DependsOn(i, j int) bool { return a.deps[i]>>uint(j)&1 != 0 }

// RequiredCounts returns how many units of each type the *unscheduled*
// instructions in the array require — the requirement-encoder input of
// the configuration selection unit (§3.1). Scheduled instructions already
// hold units and are excluded.
func (a *Array) RequiredCounts() arch.Counts { return a.pending }

// Dump renders the array in the matrix form of Fig. 5: one row per entry
// with its one-hot execution-unit columns followed by the
// result-required-from columns. labels, when non-nil, names each row.
func (a *Array) Dump(labels []string) string {
	var b strings.Builder
	b.WriteString("entry")
	for _, t := range arch.UnitTypes() {
		fmt.Fprintf(&b, "%8s", t)
	}
	for j := 0; j < a.size; j++ {
		fmt.Fprintf(&b, "  E%d", j+1)
	}
	b.WriteString("\n")
	for i := 0; i < a.size; i++ {
		name := fmt.Sprintf("E%d", i+1)
		if labels != nil && i < len(labels) && labels[i] != "" {
			name = labels[i]
		}
		fmt.Fprintf(&b, "%-5s", name)
		for _, t := range arch.UnitTypes() {
			mark := 0
			if a.Used(i) && a.unit[i] == t {
				mark = 1
			}
			fmt.Fprintf(&b, "%8d", mark)
		}
		for j := 0; j < a.size; j++ {
			mark := 0
			if a.DependsOn(i, j) {
				mark = 1
			}
			fmt.Fprintf(&b, "%4d", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RowCircuit is the Fig. 6 request logic of one wake-up array row: for
// each resource column an OR of "not needed" with the availability line,
// for each entry column an OR of "not needed" with the result-available
// line, all ANDed together with the complement of the scheduled bit.
func RowCircuit(n *logic.Netlist, unitNeeded, unitAvail [arch.NumUnitTypes]logic.Wire,
	depNeeded, depResultOK []logic.Wire, scheduled logic.Wire) logic.Wire {
	if len(depNeeded) != len(depResultOK) {
		panic("wakeup: dependency vector length mismatch")
	}
	// Rows of the paper's seven-entry array evaluate without allocating.
	var buf [arch.NumUnitTypes + arch.QueueSize + 1]logic.Wire
	terms := buf[:]
	if k := arch.NumUnitTypes + len(depNeeded) + 1; k > len(terms) {
		terms = make([]logic.Wire, k)
	} else {
		terms = terms[:k]
	}
	for t := range unitNeeded {
		terms[t] = n.Or2(n.Not(unitNeeded[t]), unitAvail[t])
	}
	for j, need := range depNeeded {
		terms[arch.NumUnitTypes+j] = n.Or2(n.Not(need), depResultOK[j])
	}
	terms[len(terms)-1] = n.Not(scheduled)
	return n.And(terms...)
}

// CircuitRequest evaluates RowCircuit on one row's raw vectors — the
// gate-level form of the row's request, taking the vectors directly so
// tests can drive it exhaustively.
func CircuitRequest(unitNeeded [arch.NumUnitTypes]bool, unitAvail [arch.NumUnitTypes]bool,
	depNeeded, depResultOK []bool, scheduled bool) bool {
	if len(depNeeded) != len(depResultOK) {
		panic("wakeup: dependency vector length mismatch")
	}
	var need, avail [arch.NumUnitTypes]logic.Wire
	for t := range need {
		need[t] = logic.Level(unitNeeded[t])
		avail[t] = logic.Level(unitAvail[t])
	}
	k := len(depNeeded)
	var depBuf [2 * arch.QueueSize]logic.Wire
	dep := depBuf[:]
	if 2*k > len(dep) {
		dep = make([]logic.Wire, 2*k)
	}
	depNeed, depOK := dep[:k], dep[k:2*k]
	for j, b := range depNeeded {
		depNeed[j] = logic.Level(b)
		depOK[j] = logic.Level(depResultOK[j])
	}
	return RowCircuit(logic.Eval, need, avail, depNeed, depOK, logic.Level(scheduled)) == 1
}
