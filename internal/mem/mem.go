// Package mem provides the memory substrate of Fig. 1: a byte-addressable
// little-endian data memory implementing isa.DataMemory, and a
// direct-mapped data cache that turns addresses into extra load latency.
// Instruction memory is the decoded program itself (package isa), fetched
// by index; the trace cache lives in package fetch.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Memory is a flat little-endian byte-addressable memory. Addresses wrap
// modulo the (power-of-two) size, so wild speculative addresses read and
// write harmlessly inside the array instead of faulting — the simulator
// equivalent of a physical address space.
//
// Storage is paged: a 4 KiB page is allocated on its first store, and
// a page never written reads as zero. A machine pays only for the pages
// its program touches, not for the whole address space.
type Memory struct {
	pages []*[pageSize]byte
	mask  uint32
}

// DefaultSize is the default memory size (1 MiB).
const DefaultSize = 1 << 20

// pageSize is the allocation granule of a Memory, in bytes.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// NewMemory creates a memory of the given power-of-two size in bytes.
// No page is allocated until the first store.
func NewMemory(size int) *Memory {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("mem: size %d is not a positive power of two", size))
	}
	return &Memory{pages: make([]*[pageSize]byte, (size+pageMask)>>pageShift), mask: uint32(size - 1)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return int(m.mask) + 1 }

// page returns the page holding wrapped address a and a's offset in it;
// the page is nil if it was never written.
func (m *Memory) page(a uint32) (*[pageSize]byte, uint32) {
	return m.pages[a>>pageShift], a & pageMask
}

// writablePage is page, allocating the page on first use.
func (m *Memory) writablePage(a uint32) (*[pageSize]byte, uint32) {
	p, off := m.page(a)
	if p == nil {
		p = new([pageSize]byte)
		m.pages[a>>pageShift] = p
	}
	return p, off
}

// inPage reports whether the n bytes at wrapped address a lie in one
// page without wrapping past the top of memory.
func (m *Memory) inPage(a, n uint32) bool {
	return a&pageMask <= pageSize-n && m.mask-a >= n-1
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) uint8 {
	if p, off := m.page(addr & m.mask); p != nil {
		return p[off]
	}
	return 0
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v uint8) {
	p, off := m.writablePage(addr & m.mask)
	p[off] = v
}

// LoadHalf reads a little-endian 16-bit value.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf writes a little-endian 16-bit value.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	m.StoreByte(addr, uint8(v))
	m.StoreByte(addr+1, uint8(v>>8))
}

// LoadWord reads a little-endian 32-bit value.
func (m *Memory) LoadWord(addr uint32) uint32 {
	if a := addr & m.mask; m.inPage(a, 4) {
		if p, off := m.page(a); p != nil {
			return binary.LittleEndian.Uint32(p[off:])
		}
		return 0
	}
	return uint32(m.LoadHalf(addr)) | uint32(m.LoadHalf(addr+2))<<16
}

// StoreWord writes a little-endian 32-bit value.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if a := addr & m.mask; m.inPage(a, 4) {
		p, off := m.writablePage(a)
		binary.LittleEndian.PutUint32(p[off:], v)
		return
	}
	m.StoreHalf(addr, uint16(v))
	m.StoreHalf(addr+2, uint16(v>>16))
}

// WriteWords stores a word slice starting at addr — a convenience for
// setting up example and benchmark data.
func (m *Memory) WriteWords(addr uint32, words []uint32) {
	for i, w := range words {
		m.StoreWord(addr+uint32(4*i), w)
	}
}

// ReadWords loads n words starting at addr.
func (m *Memory) ReadWords(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.LoadWord(addr + uint32(4*i))
	}
	return out
}

// Cache is a direct-mapped data cache model: an Access either hits (no
// extra latency) or misses (the line is filled and the configured miss
// penalty is charged). Only timing is modelled; data always comes from
// the backing Memory.
type Cache struct {
	lineShift   uint
	sets        int
	tags        []uint32
	valid       []bool
	missPenalty int

	hits, misses int
}

// NewCache builds a direct-mapped cache with the given number of sets,
// line size in bytes (a power of two) and miss penalty in cycles.
func NewCache(sets, lineSize, missPenalty int) *Cache {
	if sets <= 0 || lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("mem: bad cache geometry sets=%d line=%d", sets, lineSize))
	}
	if missPenalty < 0 {
		panic("mem: negative miss penalty")
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &Cache{
		lineShift:   shift,
		sets:        sets,
		tags:        make([]uint32, sets),
		valid:       make([]bool, sets),
		missPenalty: missPenalty,
	}
}

// Access looks up addr, fills the line on a miss, and returns the extra
// latency the access costs (0 on a hit, the miss penalty on a miss).
func (c *Cache) Access(addr uint32) int {
	line := addr >> c.lineShift
	set := int(line) % c.sets
	if c.valid[set] && c.tags[set] == line {
		c.hits++
		return 0
	}
	c.misses++
	c.valid[set] = true
	c.tags[set] = line
	return c.missPenalty
}

// Probe reports whether addr would hit, without changing cache state.
func (c *Cache) Probe(addr uint32) bool {
	line := addr >> c.lineShift
	set := int(line) % c.sets
	return c.valid[set] && c.tags[set] == line
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() int { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() int { return c.misses }
