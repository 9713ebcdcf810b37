package cpu

import (
	"math/bits"
	"testing"

	"repro/internal/isa"
)

// TestSubWordStoreLoadForwarding stresses the byte-granular store buffer:
// overlapping byte/half/word stores followed by loads of every width must
// forward exactly, matching the functional reference.
func TestSubWordStoreLoadForwarding(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 512
		li r2, 0x12345678
		sw r2, 0(r1)       ; word underneath
		li r3, 0xab
		sb r3, 1(r1)       ; byte overlay in the middle
		li r4, 0xcdef
		sh r4, 2(r1)       ; half overlay on top
		lw r5, 0(r1)       ; word read through all three
		lbu r6, 1(r1)      ; the byte overlay
		lh r7, 2(r1)       ; the half overlay (sign extended)
		lb r8, 3(r1)       ; sign-extended byte of the half
		halt
	`)
	const memBytes = 1 << 12
	ref, _ := reference(t, prog, memBytes)

	p := New(prog, Params{MemBytes: memBytes})
	if _, err := p.Run(10000); err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint8{5, 6, 7, 8} {
		if p.Reg(r) != ref.ReadReg(r) {
			t.Errorf("r%d = %#x, reference %#x", r, p.Reg(r), ref.ReadReg(r))
		}
	}
	// Pin the actual composite: word 0x12345678, byte ab at +1, half
	// cdef at +2 -> bytes 78 ab ef cd -> word 0xcdefab78.
	if got := p.Reg(5); got != 0xcdefab78 {
		t.Errorf("composite word = %#x, want 0xcdefab78", got)
	}
	if got := p.Reg(6); got != 0xab {
		t.Errorf("byte overlay = %#x, want 0xab", got)
	}
}

// TestPartialOverlapAcrossWords: a store straddling a word boundary is
// forwarded byte-by-byte to loads of both words.
func TestPartialOverlapAcrossWords(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 512
		li r2, 0x11111111
		li r3, 0x22222222
		sw r2, 0(r1)
		sw r3, 4(r1)
		li r4, 0xbeef
		sh r4, 3(r1)       ; straddles the two words
		lw r5, 0(r1)
		lw r6, 4(r1)
		halt
	`)
	const memBytes = 1 << 12
	ref, _ := reference(t, prog, memBytes)
	p := New(prog, Params{MemBytes: memBytes})
	if _, err := p.Run(10000); err != nil {
		t.Fatal(err)
	}
	if p.Reg(5) != ref.ReadReg(5) || p.Reg(6) != ref.ReadReg(6) {
		t.Errorf("straddling store: got %#x %#x, reference %#x %#x",
			p.Reg(5), p.Reg(6), ref.ReadReg(5), ref.ReadReg(6))
	}
	if p.Reg(5) != 0xef111111 {
		t.Errorf("low word = %#x, want 0xef111111", p.Reg(5))
	}
	if p.Reg(6) != 0x222222be {
		t.Errorf("high word = %#x, want 0x222222be", p.Reg(6))
	}
}

// TestWrongPathStoreNeverCommits: a store on a mispredicted path must
// leave memory untouched.
func TestWrongPathStoreNeverCommits(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 512
		li r2, 99
		li r3, 1
		; train the predictor toward taken, then surprise it
		li r4, 8
	loop:
		beq r3, r0, poison   ; never actually taken (r3 = 1)
		addi r4, r4, -1
		bne r4, r0, loop
		j out
	poison:
		sw r2, 0(r1)         ; must never commit
	out:
		lw r5, 0(r1)
		halt
	`)
	const memBytes = 1 << 12
	p := New(prog, Params{MemBytes: memBytes})
	if _, err := p.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := p.Reg(5); got != 0 {
		t.Errorf("wrong-path store leaked into memory: loaded %d", got)
	}
	if got := p.Memory().LoadWord(512); got != 0 {
		t.Errorf("memory[512] = %d after wrong-path store", got)
	}
}

// TestMachineInvariantsDuringRun drives a branchy workload and checks
// structural invariants every cycle: the ROB occupancy matches the
// wake-up array occupancy, every in-flight slot holds its wake-up row and
// its store-board bit, regProducer entries reference live producers of
// the right register, and the fabric's timer masks match its per-slot
// timers. A second run injects faults, so repairs load the timers too.
func TestMachineInvariantsDuringRun(t *testing.T) {
	prog := isa.MustAssemble(kernels["branchy"])
	for _, params := range []Params{
		{MemBytes: 1 << 12},
		{MemBytes: 1 << 12, FaultTransientRate: 0.002, FaultPermanentRate: 0.0005, FaultScrubInterval: 16, FaultSeed: 3},
	} {
		checkInvariantsDuringRun(t, buildProcessor(prog, params, "steering"))
	}
}

func checkInvariantsDuringRun(t *testing.T, p *Processor) {
	t.Helper()
	for !p.Halted() && p.Stats().Cycles < 200000 {
		p.Cycle()
		checkFabricMasks(t, p)
		used := p.params.WindowSize - p.array.Free()
		if used != p.count {
			t.Fatalf("cycle %d: wake-up rows used %d != ROB count %d",
				p.Stats().Cycles, used, p.count)
		}
		for i := 0; i < p.count; i++ {
			slot := p.slotAt(i)
			e := &p.rob[slot]
			if !e.valid {
				t.Fatalf("cycle %d: invalid entry inside window", p.Stats().Cycles)
			}
			if !p.array.Used(slot) {
				t.Fatalf("cycle %d: slot %d in flight but its wake-up row is free", p.Stats().Cycles, slot)
			}
			if isStore := p.stores>>uint(slot)&1 != 0; isStore != e.inst.Op.IsStore() {
				t.Fatalf("cycle %d: store board bit %d = %v for %v", p.Stats().Cycles, slot, isStore, e.inst.Op)
			}
		}
		for r, slot := range p.regProducer {
			if slot < 0 {
				continue
			}
			e := &p.rob[slot]
			if !e.valid {
				t.Fatalf("cycle %d: regProducer[%d] points at invalid slot", p.Stats().Cycles, r)
			}
			if d, ok := e.inst.Dest(); !ok || d != uint8(r) {
				t.Fatalf("cycle %d: regProducer[%d] producer writes %v", p.Stats().Cycles, r, d)
			}
		}
	}
	if !p.Halted() {
		t.Fatal("did not halt")
	}
}

// checkFabricMasks checks that the answers the processor and its
// managers read off the fabric's packed timer masks (Idle,
// ReconfiguringSlots, BusySlots) agree with the masks. FuzzFabric holds
// the masks themselves to the per-slot timers.
func checkFabricMasks(t *testing.T, p *Processor) {
	t.Helper()
	f := p.Fabric()
	timers := f.TimerMasks()
	busy, reconfiguring := uint16(timers), uint16(timers>>16)
	if f.Idle() != (timers == 0) || f.ReconfiguringSlots() != bits.OnesCount16(reconfiguring) ||
		f.BusySlots()&busy != busy {
		t.Fatalf("cycle %d: Idle/ReconfiguringSlots/BusySlots = %v/%d/%#x, timer masks %#x busy, %#x reconfiguring",
			p.Stats().Cycles, f.Idle(), f.ReconfiguringSlots(), f.BusySlots(), busy, reconfiguring)
	}
}
