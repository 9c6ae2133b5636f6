package bitpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadFixedWidth(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 5)
	w.WriteBits(1, 1)
	r := NewReader(w.Words(), w.Len())
	if got := r.ReadBits(3); got != 0b101 {
		t.Errorf("ReadBits(3) = %b", got)
	}
	if got := r.ReadBits(8); got != 0xFF {
		t.Errorf("ReadBits(8) = %x", got)
	}
	if got := r.ReadBits(5); got != 0 {
		t.Errorf("ReadBits(5) = %d", got)
	}
	if got := r.ReadBits(1); got != 1 {
		t.Errorf("ReadBits(1) = %d", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter()
	w.WriteBits(^uint64(0), 4) // only the low 4 bits should land
	w.WriteBits(0, 4)
	r := NewReader(w.Words(), w.Len())
	if got := r.ReadBits(8); got != 0x0F {
		t.Errorf("masking failed: got %#x, want 0x0f", got)
	}
}

func TestCrossWordBoundary(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 60)
	w.WriteBits(0b1011, 4) // straddles nothing
	w.WriteBits(0x3FF, 10) // now straddles the 64-bit boundary
	r := NewReader(w.Words(), w.Len())
	r.ReadBits(60)
	if got := r.ReadBits(4); got != 0b1011 {
		t.Errorf("pre-boundary = %b", got)
	}
	if got := r.ReadBits(10); got != 0x3FF {
		t.Errorf("straddling read = %#x, want 0x3ff", got)
	}
}

func TestFullWordWrites(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xdeadbeefcafef00d, 64)
	w.WriteBits(0x123456789abcdef0, 64)
	r := NewReader(w.Words(), w.Len())
	if got := r.ReadBits(64); got != 0xdeadbeefcafef00d {
		t.Errorf("word 0 = %#x", got)
	}
	if got := r.ReadBits(64); got != 0x123456789abcdef0 {
		t.Errorf("word 1 = %#x", got)
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	w := NewWriter()
	values := []int{0, 1, 2, 7, 63, 100}
	for _, v := range values {
		w.WriteUnary(v)
	}
	r := NewReader(w.Words(), w.Len())
	for _, v := range values {
		if got := r.ReadUnary(); got != v {
			t.Errorf("ReadUnary = %d, want %d", got, v)
		}
	}
}

func TestUnaryCostMatchesPaper(t *testing.T) {
	// Theorem 6(a): pointer diffs over stripes 1..d sum to < d, and each
	// field adds one separating 0-bit, so pointer data is < 2d bits.
	d := 16
	diffs := []int{3, 1, 5, 2, 4} // a plausible chain over 16 stripes, sum 15 < d
	w := NewWriter()
	for _, df := range diffs {
		w.WriteUnary(df)
	}
	if w.Len() >= 2*d {
		t.Errorf("pointer data uses %d bits, want < 2d = %d", w.Len(), 2*d)
	}
}

func TestZeroWidthOps(t *testing.T) {
	w := NewWriter()
	w.WriteBits(123, 0) // no-op
	if w.Len() != 0 {
		t.Errorf("zero-width write advanced to %d bits", w.Len())
	}
	w.WriteBits(1, 1)
	r := NewReader(w.Words(), w.Len())
	if got := r.ReadBits(0); got != 0 {
		t.Errorf("zero-width read = %d", got)
	}
	if r.Pos() != 0 {
		t.Errorf("zero-width read advanced to %d", r.Pos())
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"width>64 write", func() { NewWriter().WriteBits(0, 65) }},
		{"negative width write", func() { NewWriter().WriteBits(0, -1) }},
		{"negative unary", func() { NewWriter().WriteUnary(-1) }},
		{"read past end", func() { NewReader(nil, 0).ReadBits(1) }},
		{"bad limit", func() { NewReader(nil, 1) }},
		{"width>64 read", func() { NewReader(make([]uint64, 2), 128).ReadBits(65) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestPropertyFixedWidthRoundTrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewWriter()
		want := make([]uint64, n)
		ws := make([]int, n)
		for i := 0; i < n; i++ {
			width := int(widths[i] % 65)
			ws[i] = width
			if width < 64 {
				want[i] = vals[i] & ((1 << width) - 1)
			} else {
				want[i] = vals[i]
			}
			w.WriteBits(vals[i], width)
		}
		r := NewReader(w.Words(), w.Len())
		for i := 0; i < n; i++ {
			if r.ReadBits(ws[i]) != want[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaved unary and fixed-width data round-trips; unary(n)
// occupies exactly n+1 bits.
func TestPropertyUnaryInterleaved(t *testing.T) {
	f := func(pairs []uint16) bool {
		w := NewWriter()
		type op struct {
			unary int
			fixed uint64
		}
		var ops []op
		for _, p := range pairs {
			o := op{unary: int(p % 40), fixed: uint64(p)}
			ops = append(ops, o)
			before := w.Len()
			w.WriteUnary(o.unary)
			if w.Len()-before != o.unary+1 {
				return false
			}
			w.WriteBits(o.fixed, 16)
		}
		r := NewReader(w.Words(), w.Len())
		for _, o := range ops {
			if r.ReadUnary() != o.unary {
				return false
			}
			if r.ReadBits(16) != o.fixed&0xFFFF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A field written at any bit offset of a block reads back from the same
// offset, and no bit outside it changes: for every width a packed layout
// uses and every offset at which a field of that width fits, including
// the last field of the block, over a background of random bits.
func TestAtOffsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const words = 4
	for _, width := range []int{1, 4, 13, 27, 40, 64, 65, 128, 256} {
		last := (64*words/width)*width - width // the block's last whole field
		for off := 0; off+width <= 64*words; off++ {
			bg := make([]uint64, words)
			for i := range bg {
				bg[i] = rng.Uint64()
			}
			blk := append([]uint64(nil), bg...)
			val := make([]uint64, (width+63)/64)
			for i := range val {
				val[i] = rng.Uint64()
			}
			w := NewWriterAt(blk, off)
			for i, left := 0, width; left > 0; i, left = i+1, left-64 {
				w.WriteBits(val[i], min(left, 64))
			}
			if w.Len() != width {
				t.Fatalf("width %d at %d: Len = %d", width, off, w.Len())
			}
			r := NewReaderAt(blk, off, width)
			for i, left := 0, width; left > 0; i, left = i+1, left-64 {
				want := val[i]
				if left < 64 {
					want &= 1<<left - 1
				}
				if got := r.ReadBits(min(left, 64)); got != want {
					t.Fatalf("width %d at %d: word %d reads %#x, want %#x", width, off, i, got, want)
				}
			}
			if r.Remaining() != 0 || r.Pos() != off+width {
				t.Fatalf("width %d at %d: Remaining %d, Pos %d after the field", width, off, r.Remaining(), r.Pos())
			}
			for b := 0; b < 64*words; b++ {
				if b >= off && b < off+width {
					continue
				}
				if (blk[b/64]^bg[b/64])>>(b%64)&1 != 0 {
					t.Fatalf("width %d at %d (last field at %d): bit %d outside the field changed", width, off, last, b)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: a field past the block's end did not panic", width)
				}
			}()
			NewReaderAt(make([]uint64, words), last+width+1, width)
		}()
	}
}
