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
// increasing) and returns one fieldWords-sized content slice per stripe.
func encodeChain(fieldBits, fieldWords int, stripes []int, sat []pdm.Word) [][]pdm.Word {
	sw := bitpack.NewWriter()
	for _, s := range sat {
		sw.WriteBits(s, 64)
	}
	satBits := bitpack.NewReader(sw.Words(), sw.Len())

	out := make([][]pdm.Word, len(stripes))
	for p := range stripes {
		w := bitpack.NewWriter()
		w.WriteBits(1, 1) // used flag
		diff := 0
		if p < len(stripes)-1 {
			diff = stripes[p+1] - stripes[p]
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
		content := make([]pdm.Word, fieldWords)
		copy(content, w.Words())
		out[p] = content
	}
	if satBits.Remaining() > 0 {
		panic("core: chain capacity arithmetic failed to fit the satellite")
	}
	return out
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
