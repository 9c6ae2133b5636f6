package core

import (
	"pdmdict/internal/bitpack"
	"pdmdict/internal/pdm"
)

// Chain field codec, shared by the Theorem 6(a) static layout and the
// Theorem 7 dynamic cascade.
//
// A key's satellite is distributed over t array fields, one per chosen
// stripe. Each field is a bit string: a used flag (1 bit), the
// unary-coded difference to the next stripe in the chain (the tail
// stores unary(0), i.e. a single 0-bit), then as many satellite data
// bits as fit. An all-zero field is unused.

// chainFieldBits returns the per-field bit budget needed so that t
// fields carry sigma data bits on a degree-d graph: the chain spends at
// most 2t+d−1 bits on used flags and pointers.
func chainFieldBits(sigmaBits, t, d int) int {
	return ceilDiv(sigmaBits+2*t+d-1, t)
}

// encodeChain lays the satellite out over the chosen stripes (strictly
// increasing), in place: fields holds the key's field for every stripe,
// indexed by stripe, and each chosen stripe's field is cleared and
// rewritten while the others are left alone. The fields are the block
// slices an update writes back, so the chain costs no copy.
func encodeChain(fieldBits int, stripes []int, sat []pdm.Word, fields [][]pdm.Word) {
	satBits := bitpack.NewReader(sat, 64*len(sat))
	for p, s := range stripes {
		field := fields[s]
		clear(field)
		w := bitpack.NewWriterOver(field)
		w.WriteBits(1, 1) // used flag
		diff := 0
		if p < len(stripes)-1 {
			diff = stripes[p+1] - s
		}
		w.WriteUnary(diff)
		take := satBits.Remaining()
		if avail := fieldBits - w.Len(); take > avail {
			take = avail
		}
		for take > 0 {
			c := take
			if c > 64 {
				c = 64
			}
			w.WriteBits(satBits.ReadBits(c), c)
			take -= c
		}
	}
	if satBits.Remaining() > 0 {
		panic("core: chain capacity arithmetic failed to fit the satellite")
	}
}

// decodeChain reads a satellite of satWords words back out of the d
// per-stripe fields, starting at the head stripe. It reports false on
// any structural inconsistency (unused field, chain escaping [0,d),
// chain ending early), which callers treat as absence.
func decodeChain(fieldBits, satWords int, fields [][]pdm.Word, head int) ([]pdm.Word, bool) {
	need := 64 * satWords
	sat := make([]pdm.Word, satWords)
	out := bitpack.NewWriterOver(sat) // exactly need bits: the writer fills sat
	cur := head
	for {
		if cur < 0 || cur >= len(fields) {
			return nil, false
		}
		r := bitpack.NewReader(fields[cur], fieldBits)
		if r.ReadBits(1) != 1 {
			return nil, false
		}
		diff := r.ReadUnary()
		take := fieldBits - r.Pos()
		if take > need {
			take = need
		}
		for take > 0 {
			c := take
			if c > 64 {
				c = 64
			}
			out.WriteBits(r.ReadBits(c), c)
			take -= c
			need -= c
		}
		if need == 0 {
			break
		}
		if diff == 0 {
			return nil, false
		}
		cur += diff
	}
	return sat, true
}

// fieldUsed reports whether a chain field's used flag is set.
func fieldUsed(field []pdm.Word) bool { return len(field) > 0 && field[0]&1 == 1 }

// freeFields appends to dst the stripes whose field is unused, in stripe
// order.
func freeFields(fields [][]pdm.Word, dst []int) []int {
	for i, f := range fields {
		if !fieldUsed(f) {
			dst = append(dst, i)
		}
	}
	return dst
}
