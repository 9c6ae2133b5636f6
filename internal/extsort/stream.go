package extsort

import "pdmdict/internal/pdm"

// Streaming access to record vectors. The Theorem 6 construction in
// internal/core is a chain of sorts and sequential passes; Scan and
// Appender are the sequential passes, costing one parallel I/O per
// stripe just like the sorter itself.

// Scan streams v's records in order, calling fn with the record index
// and contents. The record slice is reused between calls; fn must copy
// what it keeps.
func Scan(v *Vec, fn func(i int, rec []pdm.Word)) {
	in := newWordReader(v.M, v.Start, v.Words())
	rec := make([]pdm.Word, v.RecWords)
	for i := 0; i < v.N; i++ {
		if !in.read(rec) {
			panic("extsort: short read during Scan")
		}
		fn(i, rec)
	}
}

// Reader streams a vector's records pull-style, one parallel I/O per
// stripe. It is the building block for merge-joins over sorted vectors.
type Reader struct {
	r   *recReader
	out []pdm.Word
}

// NewVecReader starts a record stream over v.
func NewVecReader(v *Vec) *Reader {
	r := &Reader{r: newRecReader(v.M, v.RecWords), out: make([]pdm.Word, v.RecWords)}
	r.r.reset(v.Start, v.N)
	return r
}

// Next returns the next record and whether one was available. The slice
// is reused between calls; callers must copy what they keep.
func (r *Reader) Next() ([]pdm.Word, bool) {
	if !r.r.ok {
		return nil, false
	}
	copy(r.out, r.r.head)
	r.r.advance()
	return r.out, true
}

// Appender accumulates fixed-width records into a stripe region,
// flushing one stripe per parallel I/O.
type Appender struct {
	w     *wordWriter
	m     *pdm.Machine
	start int
	width int
	n     int
	done  bool
}

// NewAppender starts a record stream at startStripe.
func NewAppender(m *pdm.Machine, startStripe, recWords int) *Appender {
	return &Appender{w: newWordWriter(m, startStripe), m: m, start: startStripe, width: recWords}
}

// Append adds one record; it must hold exactly recWords words.
func (a *Appender) Append(rec []pdm.Word) {
	if a.done {
		panic("extsort: Append after Vec")
	}
	if len(rec) != a.width {
		panic("extsort: record width mismatch in Append")
	}
	a.w.write(rec)
	a.n++
}

// Len returns the number of records appended so far.
func (a *Appender) Len() int { return a.n }

// Vec flushes the stream and returns the resulting vector. The appender
// must not be used afterwards.
func (a *Appender) Vec() *Vec {
	a.w.flush()
	a.done = true
	return &Vec{M: a.m, Start: a.start, RecWords: a.width, N: a.n}
}
