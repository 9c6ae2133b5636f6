// Package bitpack provides bit-granular encoding over word arrays.
//
// Theorem 6(a) of the paper packs, into each array field, a run of
// unary-coded relative pointers terminated by a 0-bit, followed by record
// data ("The differences are stored in unary format, and a 0-bit
// separates this pointer data from the record data. The tail field just
// starts with a 0-bit."). This package supplies exactly the codecs that
// layout needs: fixed-width writes and the unary code
//
//	unary(n) = n 1-bits followed by one 0-bit,
//
// so a field whose pointer prefix encodes the stripe-index difference
// j−i spends j−i+1 bits on it, and the total pointer data per stored
// element is below 2d bits, as the paper claims.
package bitpack

import "fmt"

// Writer appends bit runs to a growing word array. Bits fill each word
// from the least significant position upward.
type Writer struct {
	words []uint64
	n     int // bits written
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterOver returns an empty writer that fills buf's backing array
// before it allocates: a caller that knows the stream's length supplies
// the destination and reads the result there.
func NewWriterOver(buf []uint64) *Writer { return &Writer{words: buf[:0]} }

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// Words returns the backing words; the final partial word is
// zero-padded. The slice is live until the next write.
func (w *Writer) Words() []uint64 { return w.words }

// WriteBits appends the low width bits of v, least significant first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: width %d outside [0,64]", width))
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	for width > 0 {
		if w.n%64 == 0 {
			w.words = append(w.words, 0)
		}
		word, off := w.n/64, w.n%64
		take := 64 - off
		if take > width {
			take = width
		}
		w.words[word] |= (v & ((1 << take) - 1)) << off
		v >>= take
		w.n += take
		width -= take
	}
}

// WriteUnary appends unary(v): v 1-bits then a terminating 0-bit.
func (w *Writer) WriteUnary(v int) {
	if v < 0 {
		panic("bitpack: negative unary value")
	}
	for i := 0; i < v; i++ {
		w.WriteBits(1, 1)
	}
	w.WriteBits(0, 1)
}

// Reader consumes bit runs from a word array.
type Reader struct {
	words []uint64
	pos   int
	limit int
}

// NewReader reads from words; the stream is limit bits long (pass
// 64*len(words) to read everything).
func NewReader(words []uint64, limit int) *Reader {
	if limit < 0 || limit > 64*len(words) {
		badLimit(limit, len(words))
	}
	return &Reader{words: words, limit: limit}
}

// badLimit keeps the panic's formatting out of NewReader, which then
// inlines, so a reader that stays in its caller lives on the stack.
//
//go:noinline
func badLimit(limit, words int) {
	panic(fmt.Sprintf("bitpack: limit %d outside stream of %d bits", limit, 64*words))
}

// Remaining returns how many bits are left.
func (r *Reader) Remaining() int { return r.limit - r.pos }

// Pos returns the current bit offset.
func (r *Reader) Pos() int { return r.pos }

// ReadBits consumes width bits and returns them, least significant
// first. It panics on underflow: callers track their own framing.
func (r *Reader) ReadBits(width int) uint64 {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: width %d outside [0,64]", width))
	}
	if width > r.Remaining() {
		panic("bitpack: read past end of stream")
	}
	var v uint64
	got := 0
	for got < width {
		word, off := r.pos/64, r.pos%64
		take := 64 - off
		if take > width-got {
			take = width - got
		}
		chunk := (r.words[word] >> off) & ((1 << take) - 1)
		v |= chunk << got
		got += take
		r.pos += take
	}
	return v
}

// ReadUnary consumes one unary code and returns its value.
func (r *Reader) ReadUnary() int {
	n := 0
	for {
		if r.ReadBits(1) == 0 {
			return n
		}
		n++
	}
}
