// cache.go is the server's loaded-program cache: a small LRU keyed by
// the SHA-256 of the program's content, so repeated requests over the
// same program (the normal sweep workflow: one job, many points)
// assemble or decode once. Source text and binary words hash under
// distinct domain tags, so the two forms never share a key. Units are
// immutable after loading — Apply writes the data image into a
// machine's own memory — so one cached Unit is safely shared across
// concurrent jobs.
package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro"
)

// programKey is a cache key: the SHA-256 of a domain tag plus the
// program's content.
type programKey [sha256.Size]byte

// Domain tags of programKey, so source text and binary words never hash
// to the same key.
const (
	keySource byte = 's'
	keyWords  byte = 'w'
)

// sourceKey keys an assembly-source program.
func sourceKey(source string) programKey {
	h := sha256.New()
	h.Write([]byte{keySource})
	h.Write([]byte(source))
	return programKey(h.Sum(nil))
}

// wordsKey keys a binary program by its little-endian word bytes.
func wordsKey(words []uint32) programKey {
	h := sha256.New()
	h.Write([]byte{keyWords})
	var buf [4096]byte
	for len(words) > 0 {
		n := min(len(words), len(buf)/4)
		for i, w := range words[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
		h.Write(buf[:4*n])
		words = words[n:]
	}
	return programKey(h.Sum(nil))
}

// programCache is a mutex-guarded LRU of loaded units.
type programCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[programKey]*list.Element
}

// cacheEntry is one resident program.
type cacheEntry struct {
	key  programKey
	unit *repro.Unit
}

// newProgramCache builds a cache holding up to capacity programs; a
// non-positive capacity disables caching.
func newProgramCache(capacity int) *programCache {
	return &programCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[programKey]*list.Element),
	}
}

// get returns the cached unit for the key, marking it most recently
// used, or (nil, false) on a miss.
func (c *programCache) get(key programKey) (*repro.Unit, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).unit, true
}

// put inserts a loaded unit, evicting the least recently used entry
// when the cache is full.
func (c *programCache) put(key programKey, unit *repro.Unit) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).unit = unit
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, unit: unit})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the number of resident programs.
func (c *programCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
