// Package extsort implements external multiway mergesort in the parallel
// disk model.
//
// Theorem 6 of the paper states that the static dictionary "can be
// constructed deterministically in time proportional to the time it
// takes to sort nd records", and its construction procedure is a chain
// of sorts (pairs by right vertex, then by left vertex, then the final
// assignment array by field index). This package supplies that sorting
// substrate: records of fixed word width stored in consecutive stripes
// are sorted with striped I/O — sequential run formation followed by
// R-way merging — so the construction's I/O cost can be measured and
// compared against the sort bound (experiment E4-thm6).
//
// The model's scratch stripes are transient, and so are the simulator's:
// Sort releases its scratch region before it returns, and an owner
// releases a Vec it no longer needs (Vec.Release), so a finished build
// holds only what it keeps. Every stream — the sort's runs and merges,
// Scan, Reader, Appender — goes through one read buffer, one address
// list and one write list, so its allocations do not grow with the
// number of stripes it passes over.
package extsort

import (
	"fmt"
	"sort"

	"pdmdict/internal/pdm"
)

// Vec describes a vector of fixed-width records stored in consecutive
// logical stripes of a machine, starting at stripe Start. Records are
// packed word-contiguously and may straddle stripe boundaries.
type Vec struct {
	M        *pdm.Machine
	Start    int // first stripe
	RecWords int // words per record
	N        int // number of records
}

// Words returns the total payload size in words.
func (v *Vec) Words() int { return v.N * v.RecWords }

// Stripes returns how many stripes the vector occupies.
func (v *Vec) Stripes() int {
	sw := v.M.D() * v.M.B()
	return (v.Words() + sw - 1) / sw
}

// Release returns the stripes v occupies to the never-written state
// (see pdm.Machine.ReleaseStripes), for an owner done with its records.
func (v *Vec) Release() { v.M.ReleaseStripes(v.Start, v.Start+v.Stripes()) }

// SortStripes returns the region size Sort needs for BOTH the data
// region and the scratch region: the vector itself plus the padding Sort
// introduces by aligning runs to stripe boundaries (at most one stripe
// per run, and there are at most ⌈stripes/memStripes⌉ runs at any
// level). Callers must place the scratch region — and anything that
// follows the data region — at least this many stripes away.
func (v *Vec) SortStripes(memStripes int) int {
	s := v.Stripes()
	return s + (s+memStripes-1)/memStripes + 2
}

// wordReader streams the words of a stripe region, one parallel I/O per
// stripe. It reads every stripe into one buffer through one address
// list, so a stream allocates nothing once its buffer is warm.
type wordReader struct {
	m     *pdm.Machine
	addrs []pdm.Addr // the next stripe's blocks, disk order
	rb    pdm.ReadBuf
	limit int          // words remaining
	blk   []pdm.Word   // the current block's unread words
	rest  [][]pdm.Word // the current stripe's blocks after blk
}

func newWordReader(m *pdm.Machine, startStripe, words int) *wordReader {
	r := &wordReader{m: m, addrs: make([]pdm.Addr, m.D())}
	for d := range r.addrs {
		r.addrs[d].Disk = d
	}
	r.reset(startStripe, words)
	return r
}

// reset restarts the reader on another stream, keeping its buffers.
func (r *wordReader) reset(startStripe, words int) {
	for d := range r.addrs {
		r.addrs[d].Block = startStripe
	}
	r.limit, r.blk, r.rest = words, nil, nil
}

// chunk returns the stream's next words: at most max of them, all from
// one block, as a view valid until the reader's next stripe read. It
// returns an empty slice at the end of the stream.
func (r *wordReader) chunk(max int) []pdm.Word {
	if r.limit == 0 {
		return nil
	}
	if len(r.blk) == 0 {
		if len(r.rest) == 0 {
			r.rest = r.m.BatchReadInto(&r.rb, nil, nil, r.addrs)
			for d := range r.addrs {
				r.addrs[d].Block++
			}
		}
		r.blk, r.rest = r.rest[0], r.rest[1:]
	}
	c := r.blk[:min(max, len(r.blk), r.limit)]
	r.blk = r.blk[len(c):]
	r.limit -= len(c)
	return c
}

// read fills dst from the stream and reports whether the stream held
// that many words.
func (r *wordReader) read(dst []pdm.Word) bool {
	for len(dst) > 0 {
		c := r.chunk(len(dst))
		if len(c) == 0 {
			return false
		}
		dst = dst[copy(dst, c):]
	}
	return true
}

// recReader streams fixed-width records with one-record lookahead, the
// shape an R-way merge needs.
type recReader struct {
	wr   *wordReader
	head []pdm.Word
	ok   bool
}

func newRecReader(m *pdm.Machine, width int) *recReader {
	return &recReader{wr: newWordReader(m, 0, 0), head: make([]pdm.Word, width)}
}

// reset starts the reader on nrecs records at startStripe and reads the
// first of them.
func (r *recReader) reset(startStripe, nrecs int) {
	r.wr.reset(startStripe, len(r.head)*nrecs)
	r.advance()
}

func (r *recReader) advance() { r.ok = r.wr.read(r.head) }

// wordWriter streams words into a stripe region, flushing one stripe per
// parallel I/O through one buffer and one write list.
type wordWriter struct {
	m      *pdm.Machine
	stripe int
	buf    []pdm.Word
	writes []pdm.BlockWrite // one per disk, disk order
}

func newWordWriter(m *pdm.Machine, startStripe int) *wordWriter {
	w := &wordWriter{m: m, stripe: startStripe, buf: make([]pdm.Word, 0, m.D()*m.B()), writes: make([]pdm.BlockWrite, m.D())}
	for d := range w.writes {
		w.writes[d].Addr.Disk = d
	}
	return w
}

func (w *wordWriter) write(words []pdm.Word) {
	for len(words) > 0 {
		n := min(len(words), cap(w.buf)-len(w.buf))
		w.buf = append(w.buf, words[:n]...)
		words = words[n:]
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
	}
}

// flush writes the buffered words as the next stripe: disk 0's block
// first, and only the blocks the words reach. A short last block leaves
// the rest of its block unchanged.
func (w *wordWriter) flush() {
	if len(w.buf) == 0 {
		return
	}
	n := 0
	for data := w.buf; len(data) > 0; n++ {
		k := min(len(data), w.m.B())
		w.writes[n].Addr.Block = w.stripe
		w.writes[n].Data = data[:k]
		data = data[k:]
	}
	w.m.BatchWrite(w.writes[:n])
	w.stripe++
	w.buf = w.buf[:0]
}

// Less orders two records; it must be a strict weak ordering.
type Less func(a, b []pdm.Word) bool

// ByWord returns a Less comparing records lexicographically by the words
// at the given indices.
func ByWord(indices ...int) Less {
	return func(a, b []pdm.Word) bool {
		for _, i := range indices {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
}

// Sort sorts v in place using the scratch stripe region beginning at
// scratchStart, which must provide v.SortStripes(memStripes) stripes
// disjoint from the data region; the data region itself must have the
// same slack (run alignment spills up to SortStripes−Stripes stripes
// past the vector during intermediate passes). memStripes models the
// internal memory size M = memStripes·B·D words: run formation sorts
// memStripes stripes at a time, and merging is (memStripes−1)-way.
// memStripes must be at least 3 (two-way merge).
//
// Sort leaves only the sorted vector behind: before it returns it
// releases the scratch region and the data region's slack (see
// pdm.Machine.ReleaseStripes), which the model treats as transient.
func Sort(v *Vec, scratchStart, memStripes int, less Less) {
	if memStripes < 3 {
		panic(fmt.Sprintf("extsort: memStripes=%d, need ≥ 3", memStripes))
	}
	if v.N <= 1 {
		return
	}
	sw := v.M.D() * v.M.B()
	runRecs := memStripes * sw / v.RecWords
	if runRecs < 1 {
		panic("extsort: a single record exceeds internal memory")
	}
	region := v.SortStripes(memStripes)
	defer v.M.ReleaseStripes(scratchStart, scratchStart+region)
	defer v.M.ReleaseStripes(v.Start+v.Stripes(), v.Start+region)

	// Pass 0: run formation, data → scratch.
	type run struct {
		stripe int // start stripe within current region
		recs   int
	}
	runs := make([]run, 0, (v.N+runRecs-1)/runRecs)
	in := newWordReader(v.M, v.Start, v.Words())
	out := newWordWriter(v.M, scratchStart)
	bufRecs := min(runRecs, v.N)
	rs := &runSorter{width: v.RecWords, less: less, idx: make([]int, 0, bufRecs), sorted: make([]pdm.Word, bufRecs*v.RecWords)}
	buf := make([]pdm.Word, bufRecs*v.RecWords)
	for lo := 0; lo < v.N; lo += runRecs {
		n := min(runRecs, v.N-lo)
		data := buf[:n*v.RecWords]
		if !in.read(data) {
			panic("extsort: short read during run formation")
		}
		rs.sort(data)
		runs = append(runs, run{stripe: out.stripe, recs: n})
		out.write(data)
		out.flush() // align runs to stripe boundaries
	}

	// Merge passes, ping-ponging between scratch and data regions. The
	// readers and the run lists are reused from group to group and pass
	// to pass.
	fanIn := memStripes - 1
	readers := make([]*recReader, 0, fanIn)
	next := make([]run, 0, len(runs))
	src, dst := scratchStart, v.Start
	for len(runs) > 1 {
		next = next[:0]
		out.stripe = dst
		for lo := 0; lo < len(runs); lo += fanIn {
			group := runs[lo:min(lo+fanIn, len(runs))]
			for len(readers) < len(group) {
				readers = append(readers, newRecReader(v.M, v.RecWords))
			}
			total := 0
			for i, r := range group {
				readers[i].reset(r.stripe, r.recs)
				total += r.recs
			}
			next = append(next, run{stripe: out.stripe, recs: total})
			mergeRuns(readers[:len(group)], less, out)
			out.flush()
		}
		runs, next = next, runs
		src, dst = dst, src
	}

	// If the single sorted run ended up in scratch, stream it home a
	// block at a time.
	if runs[0].stripe != v.Start {
		in.reset(runs[0].stripe, v.Words())
		out.stripe = v.Start
		for c := in.chunk(sw); len(c) > 0; c = in.chunk(sw) {
			out.write(c)
		}
		out.flush()
	}
}

// runSorter sorts one run's packed records in internal memory (free in
// the PDM cost model) through an index permutation. A Sort keeps one and
// reuses its index and output buffers for every run.
type runSorter struct {
	width  int
	less   Less
	buf    []pdm.Word // the run being sorted
	idx    []int      // record order
	sorted []pdm.Word // the records gathered in that order
}

func (s *runSorter) Len() int           { return len(s.idx) }
func (s *runSorter) Less(a, b int) bool { return s.less(s.rec(s.idx[a]), s.rec(s.idx[b])) }
func (s *runSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func (s *runSorter) rec(i int) []pdm.Word { return s.buf[i*s.width : (i+1)*s.width] }

// sort stably sorts buf, whose records must fit the sorter's buffers.
func (s *runSorter) sort(buf []pdm.Word) {
	s.buf = buf
	s.idx = s.idx[:0]
	for i := 0; i < len(buf)/s.width; i++ {
		s.idx = append(s.idx, i)
	}
	sort.Stable(s)
	for out, in := range s.idx {
		copy(s.sorted[out*s.width:], s.rec(in))
	}
	copy(buf, s.sorted[:len(buf)])
}

// mergeRuns performs an R-way merge of the given record streams into
// out. R is small (the merge fan-in), so a linear minimum scan suffices.
func mergeRuns(readers []*recReader, less Less, out *wordWriter) {
	for {
		best := -1
		for i, r := range readers {
			if !r.ok {
				continue
			}
			if best == -1 || less(r.head, readers[best].head) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		out.write(readers[best].head)
		readers[best].advance()
	}
}

// WriteAll lays the given packed record data into v's region. It is the
// standard way to initialize a Vec; data must hold exactly v.Words()
// words.
func WriteAll(v *Vec, data []pdm.Word) {
	if len(data) != v.Words() {
		panic(fmt.Sprintf("extsort: WriteAll got %d words, want %d", len(data), v.Words()))
	}
	out := newWordWriter(v.M, v.Start)
	out.write(data)
	out.flush()
}

// ReadAll streams v's region back as packed record data.
func ReadAll(v *Vec) []pdm.Word {
	out := make([]pdm.Word, v.Words())
	newWordReader(v.M, v.Start, v.Words()).read(out)
	return out
}

// Record returns record i of v as a fresh slice, reading the one or two
// stripes it spans.
func Record(v *Vec, i int) []pdm.Word {
	if i < 0 || i >= v.N {
		panic(fmt.Sprintf("extsort: record %d out of range [0,%d)", i, v.N))
	}
	sw := v.M.D() * v.M.B()
	lo := i * v.RecWords
	hi := lo + v.RecWords
	first := v.Start + lo/sw
	last := v.Start + (hi-1)/sw
	var words []pdm.Word
	for s := first; s <= last; s++ {
		words = append(words, v.M.ReadStripe(s)...)
	}
	off := lo - (first-v.Start)*sw
	return words[off : off+v.RecWords]
}
