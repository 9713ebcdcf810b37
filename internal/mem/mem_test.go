package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMemoryRejectsBadSizes(t *testing.T) {
	for _, size := range []int{0, -4, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", size)
				}
			}()
			NewMemory(size)
		}()
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := NewMemory(1 << 12)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr)
		m.StoreWord(a, v)
		return m.LoadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := NewMemory(1 << 10)
	m.StoreWord(16, 0x04030201)
	for i, want := range []uint8{1, 2, 3, 4} {
		if got := m.LoadByte(16 + uint32(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
	if got := m.LoadHalf(16); got != 0x0201 {
		t.Errorf("half = %#x", got)
	}
	if got := m.LoadHalf(18); got != 0x0403 {
		t.Errorf("upper half = %#x", got)
	}
}

func TestAddressWrap(t *testing.T) {
	m := NewMemory(1 << 10)
	m.StoreWord(1<<10, 42) // wraps to 0
	if got := m.LoadWord(0); got != 42 {
		t.Errorf("wrapped store landed wrong: %d", got)
	}
	if got := m.LoadWord(3 << 10); got != 42 {
		t.Errorf("wrapped load = %d", got)
	}
}

func TestWriteReadWords(t *testing.T) {
	m := NewMemory(1 << 12)
	words := []uint32{5, 10, 0xffffffff, 0}
	m.WriteWords(100, words)
	got := m.ReadWords(100, len(words))
	for i := range words {
		if got[i] != words[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], words[i])
		}
	}
}

// resident counts allocated pages.
func resident(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestUntouchedPagesReadZero(t *testing.T) {
	m := NewMemory(DefaultSize)
	for _, addr := range []uint32{0, 5, pageSize, DefaultSize - 4, 0xdeadbeef} {
		if got := m.LoadWord(addr); got != 0 {
			t.Errorf("LoadWord(%#x) = %#x on fresh memory", addr, got)
		}
		if got := m.LoadByte(addr); got != 0 {
			t.Errorf("LoadByte(%#x) = %#x on fresh memory", addr, got)
		}
	}
	if n := resident(m); n != 0 {
		t.Errorf("reads allocated %d pages", n)
	}
	m.StoreByte(3*pageSize+7, 9)
	if n := resident(m); n != 1 {
		t.Errorf("one store allocated %d pages, want 1", n)
	}
	if got := m.LoadWord(3 * pageSize); got != 0 {
		t.Errorf("untouched bytes of a written page = %#x, want 0", got)
	}
}

func TestWordStraddlesPageBoundary(t *testing.T) {
	m := NewMemory(1 << 16)
	const v = uint32(0xa1b2c3d4)
	for _, addr := range []uint32{pageSize - 1, pageSize - 2, pageSize - 3} {
		m.StoreWord(addr, v)
		if got := m.LoadWord(addr); got != v {
			t.Errorf("word at %#x = %#x", addr, got)
		}
		if got := m.LoadByte(pageSize); got != uint8(v>>(8*(pageSize-addr))) {
			t.Errorf("word at %#x: first byte of next page = %#x", addr, got)
		}
	}
	if got := m.LoadHalf(pageSize - 1); got != uint16(m.LoadByte(pageSize-1))|uint16(m.LoadByte(pageSize))<<8 {
		t.Errorf("straddling half = %#x", got)
	}
}

func TestStoreAtTopWrapsToZero(t *testing.T) {
	for _, size := range []int{1 << 10, pageSize, 1 << 20} {
		m := NewMemory(size)
		top := uint32(size - 2)
		m.StoreWord(top, 0x04030201)
		for i, want := range []uint8{1, 2, 3, 4} {
			addr := (top + uint32(i)) % uint32(size)
			if got := m.LoadByte(addr); got != want {
				t.Errorf("size %d: byte at %#x = %d, want %d", size, addr, got, want)
			}
		}
		if got := m.LoadWord(top); got != 0x04030201 {
			t.Errorf("size %d: wrapped word = %#x", size, got)
		}
	}
}

func TestMemorySmallerThanPage(t *testing.T) {
	for _, size := range []int{1, 2, 4, 64, pageSize / 2} {
		m := NewMemory(size)
		if m.Size() != size {
			t.Errorf("Size() = %d, want %d", m.Size(), size)
		}
		m.StoreWord(0, 0x11223344)
		// Every address aliases modulo size: a 1-byte memory keeps only
		// the last byte stored, a 2-byte memory the last half.
		for addr := uint32(0); addr < 8; addr++ {
			if got, want := m.LoadByte(addr+uint32(size)), m.LoadByte(addr); got != want {
				t.Errorf("size %d: byte %d does not alias modulo size (%#x vs %#x)", size, addr, got, want)
			}
		}
		if size >= 4 && m.LoadWord(uint32(size)) != 0x11223344 {
			t.Errorf("size %d: word at size = %#x, want the word at 0", size, m.LoadWord(uint32(size)))
		}
	}
}

func TestSize(t *testing.T) {
	for _, size := range []int{1, 1 << 10, pageSize, DefaultSize, 1 << 24} {
		if got := NewMemory(size).Size(); got != size {
			t.Errorf("NewMemory(%d).Size() = %d", size, got)
		}
	}
}

// TestMatchesFlatReference drives random mixed-width accesses, many of
// them unaligned or straddling pages and the top of memory, against a
// plain byte-slice model of the same memory.
func TestMatchesFlatReference(t *testing.T) {
	for _, size := range []int{16, pageSize, 4 * pageSize} {
		m := NewMemory(size)
		ref := make([]byte, size)
		mask := uint32(size - 1)
		rng := rand.New(rand.NewSource(int64(size)))
		for i := 0; i < 20000; i++ {
			addr := rng.Uint32()
			if rng.Intn(2) == 0 {
				// Bias towards page and memory edges.
				addr = uint32(rng.Intn(size/pageSize+1)*pageSize) - uint32(rng.Intn(4))
			}
			width := []uint32{1, 2, 4}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				v := rng.Uint32()
				for b := uint32(0); b < width; b++ {
					ref[(addr+b)&mask] = byte(v >> (8 * b))
				}
				switch width {
				case 1:
					m.StoreByte(addr, uint8(v))
				case 2:
					m.StoreHalf(addr, uint16(v))
				case 4:
					m.StoreWord(addr, v)
				}
				continue
			}
			var want uint32
			for b := uint32(0); b < width; b++ {
				want |= uint32(ref[(addr+b)&mask]) << (8 * b)
			}
			var got uint32
			switch width {
			case 1:
				got = uint32(m.LoadByte(addr))
			case 2:
				got = uint32(m.LoadHalf(addr))
			case 4:
				got = m.LoadWord(addr)
			}
			if got != want {
				t.Fatalf("size %d op %d: %d-byte load at %#x = %#x, want %#x", size, i, width, addr, got, want)
			}
		}
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	cases := []struct{ sets, line, penalty int }{
		{0, 32, 10}, {64, 0, 10}, {64, 33, 10}, {64, 32, -1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v accepted", c)
				}
			}()
			NewCache(c.sets, c.line, c.penalty)
		}()
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := NewCache(64, 32, 10)
	if got := c.Access(0x100); got != 10 {
		t.Errorf("cold access latency = %d, want 10", got)
	}
	if got := c.Access(0x100); got != 0 {
		t.Errorf("warm access latency = %d, want 0", got)
	}
	// Same line, different offset: still a hit.
	if got := c.Access(0x11f); got != 0 {
		t.Errorf("same-line access latency = %d, want 0", got)
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheConflictEviction(t *testing.T) {
	c := NewCache(4, 32, 10)
	// Addresses 0 and 4*32 map to the same set in a 4-set cache.
	c.Access(0)
	if got := c.Access(4 * 32); got != 10 {
		t.Errorf("conflicting line latency = %d, want miss", got)
	}
	if got := c.Access(0); got != 10 {
		t.Errorf("evicted line latency = %d, want miss", got)
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := NewCache(16, 32, 10)
	if c.Probe(0x40) {
		t.Error("cold probe hit")
	}
	if c.Misses() != 0 {
		t.Error("probe counted as access")
	}
	c.Access(0x40)
	if !c.Probe(0x40) {
		t.Error("warm probe missed")
	}
}

func TestFlush(t *testing.T) {
	c := NewCache(16, 32, 10)
	c.Access(0)
	c.Flush()
	if c.Probe(0) {
		t.Error("line survived flush")
	}
}

// TestCacheDeterministicReplay: the same address stream produces the same
// hit/miss sequence.
func TestCacheDeterministicReplay(t *testing.T) {
	addrs := make([]uint32, 2000)
	rng := rand.New(rand.NewSource(9))
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(1 << 14))
	}
	run := func() []int {
		c := NewCache(32, 16, 7)
		out := make([]int, len(addrs))
		for i, a := range addrs {
			out[i] = c.Access(a)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
