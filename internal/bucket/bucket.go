// Package bucket implements the block-resident bucket structures the
// dictionaries store on disk: a record codec laying (key, satellite)
// records into fixed-size blocks. Section 4.1 of the paper puts an
// atomic heap of Fredman–Willard in each bucket when B is small; here a
// lookup scans the block in place with Codec.Next, since in-memory work
// is free in the parallel disk model and only the I/Os are counted.
package bucket

import (
	"fmt"

	"pdmdict/internal/pdm"
)

// Record is one dictionary entry: a key word plus fixed-width satellite
// data.
type Record struct {
	Key pdm.Word
	Sat []pdm.Word
}

// Codec lays records into blocks of B words. Word 0 of the block holds
// the record count; records follow contiguously as key then SatWords
// satellite words.
type Codec struct {
	B        int // block size in words
	SatWords int // satellite words per record
}

// RecordWords returns the footprint of one record.
func (c Codec) RecordWords() int { return 1 + c.SatWords }

// Capacity returns how many records fit in one block.
func (c Codec) Capacity() int { return (c.B - 1) / c.RecordWords() }

// Count returns the number of records currently stored in block. A
// corrupt header (count beyond the block's capacity) is clamped so that
// readers scan at most a full block instead of crashing — the
// dictionaries treat damaged blocks as data loss, never as panics.
func (c Codec) Count(block []pdm.Word) int {
	n := block[0]
	if max := pdm.Word(c.Capacity()); n > max {
		return int(max)
	}
	return int(n)
}

// Decode extracts all records from a block. Satellite slices alias the
// block; callers that mutate must copy.
func (c Codec) Decode(block []pdm.Word) []Record {
	n := c.Count(block)
	recs := make([]Record, n)
	for i := 0; i < n; i++ {
		off := 1 + i*c.RecordWords()
		recs[i] = Record{Key: block[off], Sat: block[off+1 : off+1+c.SatWords]}
	}
	return recs
}

// Encode builds a fresh block holding the given records. It panics if
// they do not fit; sizing is the caller's responsibility.
func (c Codec) Encode(recs []Record) []pdm.Word {
	if len(recs) > c.Capacity() {
		panic(fmt.Sprintf("bucket: %d records exceed capacity %d", len(recs), c.Capacity()))
	}
	block := make([]pdm.Word, c.B)
	block[0] = pdm.Word(len(recs))
	for i, r := range recs {
		off := 1 + i*c.RecordWords()
		block[off] = r.Key
		if len(r.Sat) != c.SatWords {
			panic(fmt.Sprintf("bucket: record has %d satellite words, codec wants %d", len(r.Sat), c.SatWords))
		}
		copy(block[off+1:], r.Sat)
	}
	return block
}

// Find locates key in a block and returns its satellite words (aliasing
// the block) and whether it was present.
func (c Codec) Find(block []pdm.Word, key pdm.Word) ([]pdm.Word, bool) {
	sat, _, ok := c.Next(block, key, 0)
	return sat, ok
}

// Next scans the block in place from record index i for the next record
// holding key: it returns the record's satellite words (aliasing the
// block), the index to resume from, and whether a record was found. A
// key may own several records of one block (fragments sharing a bucket);
// looping until ok is false visits them all, in block order, without
// allocating.
func (c Codec) Next(block []pdm.Word, key pdm.Word, i int) (sat []pdm.Word, next int, ok bool) {
	rw := c.RecordWords()
	for n := c.Count(block); i < n; i++ {
		off := 1 + i*rw
		if block[off] == key {
			return block[off+1 : off+rw], i + 1, true
		}
	}
	return nil, i, false
}

// Append adds a record to the block in place, replacing an existing
// record with the same key. It reports whether the record fit.
func (c Codec) Append(block []pdm.Word, r Record) bool {
	if len(r.Sat) != c.SatWords {
		panic(fmt.Sprintf("bucket: record has %d satellite words, codec wants %d", len(r.Sat), c.SatWords))
	}
	n := c.Count(block)
	for i := 0; i < n; i++ {
		off := 1 + i*c.RecordWords()
		if block[off] == r.Key {
			copy(block[off+1:off+1+c.SatWords], r.Sat)
			return true
		}
	}
	if n >= c.Capacity() {
		return false
	}
	off := 1 + n*c.RecordWords()
	block[off] = r.Key
	copy(block[off+1:], r.Sat)
	block[0] = pdm.Word(n + 1)
	return true
}

// AppendAlways adds a record to the block in place without the
// same-key replacement of Append. Callers storing several fragment
// records under one key (the k = d/2 bandwidth variant of Section 4.1)
// must use this — greedy placement may legitimately put two fragments
// of one key into the same bucket. It reports whether the record fit.
func (c Codec) AppendAlways(block []pdm.Word, r Record) bool {
	if len(r.Sat) != c.SatWords {
		panic(fmt.Sprintf("bucket: record has %d satellite words, codec wants %d", len(r.Sat), c.SatWords))
	}
	n := c.Count(block)
	if n >= c.Capacity() {
		return false
	}
	off := 1 + n*c.RecordWords()
	block[off] = r.Key
	copy(block[off+1:], r.Sat)
	block[0] = pdm.Word(n + 1)
	return true
}

// Remove deletes key from the block in place (order is not preserved;
// the paper's structures tolerate this because nothing references
// positions inside a bucket). It reports whether the key was present.
func (c Codec) Remove(block []pdm.Word, key pdm.Word) bool {
	n := c.Count(block)
	rw := c.RecordWords()
	for i := 0; i < n; i++ {
		off := 1 + i*rw
		if block[off] == key {
			last := 1 + (n-1)*rw
			copy(block[off:off+rw], block[last:last+rw])
			for j := last; j < last+rw; j++ {
				block[j] = 0
			}
			block[0] = pdm.Word(n - 1)
			return true
		}
	}
	return false
}
