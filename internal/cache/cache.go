// Package cache implements an internal-memory block cache in front of
// a parallel disk machine.
//
// It exists to reproduce the nuance in the paper's Section 1.2: the
// 1-I/O dictionaries beat B-trees for RANDOM accesses, but "for
// sequential scanning of large files, the overhead of B-trees is
// negligible (due to caching)". A small LRU of blocks makes that
// concrete — a sequential scan re-reads the same B-tree path and leaf
// over and over, which the cache absorbs, while a random workload blows
// through any internal memory budget (experiment E11-seqcache).
//
// The cache is write-through: writes always reach the machine (and
// refresh the cached copy), so the disk image is always current and
// cached reads are exact. Only the reads a miss forces are charged to
// the machine; hits are free, exactly like the model's free internal
// memory.
package cache

import (
	"container/list"
	"fmt"

	"pdmdict/internal/pdm"
)

// Storage is the block-device surface shared by *pdm.Machine and
// *Cache, so structures can run on either interchangeably.
type Storage interface {
	ReadBlock(a pdm.Addr) []pdm.Word
	WriteBlock(a pdm.Addr, data []pdm.Word)
	ReadStripe(stripe int) []pdm.Word
	WriteStripe(stripe int, data []pdm.Word)
	D() int
	B() int
}

var (
	_ Storage = (*pdm.Machine)(nil)
	_ Storage = (*Cache)(nil)
)

// Cache is an LRU block cache over a machine. It is not safe for
// concurrent use (wrap it per goroutine or lock externally); the
// underlying machine remains safe either way.
type Cache struct {
	m        *pdm.Machine
	capacity int

	lru     *list.List // front = most recent; values are *entry
	entries map[pdm.Addr]*list.Element

	hits, misses int64
}

type entry struct {
	addr pdm.Addr
	data []pdm.Word
}

// Span delegates to the machine's span API, so structures running over
// a cache still tag the I/O their misses force.
func (c *Cache) Span(tag pdm.Tag) pdm.SpanEnd { return c.m.Span(tag) }

// New wraps m with a cache of capacityBlocks blocks — the internal
// memory budget, in blocks of B words.
func New(m *pdm.Machine, capacityBlocks int) *Cache {
	if capacityBlocks < 1 {
		panic(fmt.Sprintf("cache: capacity %d below 1 block", capacityBlocks))
	}
	return &Cache{
		m:        m,
		capacity: capacityBlocks,
		lru:      list.New(),
		entries:  make(map[pdm.Addr]*list.Element),
	}
}

// Machine returns the backing machine (for I/O accounting).
func (c *Cache) Machine() *pdm.Machine { return c.m }

// D returns the backing machine's disk count.
func (c *Cache) D() int { return c.m.D() }

// B returns the block size in words.
func (c *Cache) B() int { return c.m.B() }

// HitRate returns hits, misses, and the hit fraction.
func (c *Cache) HitRate() (hits, misses int64, rate float64) {
	total := c.hits + c.misses
	if total == 0 {
		return c.hits, c.misses, 0
	}
	return c.hits, c.misses, float64(c.hits) / float64(total)
}

// lookup returns the cached copy of a block, if present, refreshing its
// recency.
func (c *Cache) lookup(a pdm.Addr) ([]pdm.Word, bool) {
	el, ok := c.entries[a]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).data, true
}

// install stores a block copy, evicting the least recently used block
// if needed.
func (c *Cache) install(a pdm.Addr, data []pdm.Word) {
	if el, ok := c.entries[a]; ok {
		el.Value.(*entry).data = data
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		delete(c.entries, back.Value.(*entry).addr)
		c.lru.Remove(back)
	}
	c.entries[a] = c.lru.PushFront(&entry{addr: a, data: data})
}

// ReadBlock serves the block from memory when cached (no machine I/O),
// otherwise reads through and caches it. The returned slice is a copy.
func (c *Cache) ReadBlock(a pdm.Addr) []pdm.Word {
	if data, ok := c.lookup(a); ok {
		c.hits++
		out := make([]pdm.Word, len(data))
		copy(out, data)
		return out
	}
	c.misses++
	data := c.m.ReadBlock(a)
	cached := make([]pdm.Word, len(data))
	copy(cached, data)
	c.install(a, cached)
	return data
}

// WriteBlock writes through to the machine and refreshes the cache. A
// partial write (fewer than B words) leaves the block's tail unchanged
// on disk; the cached copy is merged when present and dropped otherwise
// (caching a zero-padded copy would be wrong).
func (c *Cache) WriteBlock(a pdm.Addr, data []pdm.Word) {
	c.m.WriteBlock(a, data)
	cached := make([]pdm.Word, c.m.B())
	if len(data) < c.m.B() {
		old, ok := c.lookup(a)
		if !ok {
			c.invalidate(a)
			return
		}
		copy(cached, old)
	}
	copy(cached, data)
	c.install(a, cached)
}

// invalidate drops a cached block, if present.
func (c *Cache) invalidate(a pdm.Addr) {
	if el, ok := c.entries[a]; ok {
		delete(c.entries, a)
		c.lru.Remove(el)
	}
}

// BatchRead serves cached blocks from memory and fetches only the
// misses from the machine, in one batch (so the parallel-I/O cost is
// that of the miss set alone).
func (c *Cache) BatchRead(addrs []pdm.Addr) [][]pdm.Word {
	out := make([][]pdm.Word, len(addrs))
	var missAddrs []pdm.Addr
	var missIdx []int
	for i, a := range addrs {
		if data, ok := c.lookup(a); ok {
			c.hits++
			cp := make([]pdm.Word, len(data))
			copy(cp, data)
			out[i] = cp
			continue
		}
		c.misses++
		missAddrs = append(missAddrs, a)
		missIdx = append(missIdx, i)
	}
	if len(missAddrs) > 0 {
		fetched := c.m.BatchRead(missAddrs)
		for j, data := range fetched {
			cached := make([]pdm.Word, len(data))
			copy(cached, data)
			c.install(missAddrs[j], cached)
			out[missIdx[j]] = data
		}
	}
	return out
}

// ReadStripe reads a logical stripe, serving fully cached stripes from
// memory.
func (c *Cache) ReadStripe(stripe int) []pdm.Word {
	blocks := c.BatchRead(pdm.StripeAddrs(c.m.D(), stripe))
	out := make([]pdm.Word, 0, c.m.D()*c.m.B())
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// WriteStripe writes through a logical stripe and caches its blocks.
func (c *Cache) WriteStripe(stripe int, data []pdm.Word) {
	c.m.WriteStripe(stripe, data)
	b := c.m.B()
	for disk := 0; disk < c.m.D() && len(data) > 0; disk++ {
		n := b
		if n > len(data) {
			n = len(data)
		}
		a := pdm.Addr{Disk: disk, Block: stripe}
		if n < b {
			// Partial block within the stripe: the on-disk tail is not
			// known here — drop any cached copy rather than keep a
			// stale one.
			c.invalidate(a)
			data = data[n:]
			continue
		}
		cached := make([]pdm.Word, b)
		copy(cached, data[:n])
		c.install(a, cached)
		data = data[n:]
	}
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.lru.Len() }
