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
		copyBits(w, satBits, min(satBits.Remaining(), fieldBits-w.Len()))
	}
	if satBits.Remaining() > 0 {
		panic("core: chain capacity arithmetic failed to fit the satellite")
	}
}

// decodeChain reads a satellite of len(sat) words back out of the d
// per-stripe fields into sat, starting at the head stripe. It reports
// false on any structural inconsistency (unused field, chain escaping
// [0,d), chain ending early), which callers treat as absence. A nil
// field is a block a degraded read could not fetch: the walk stops
// there, since only that field knows where the chain goes next, and gap
// is its stripe (−1 when the walk met none).
func decodeChain(fieldBits int, fields [][]pdm.Word, head int, sat []pdm.Word) (gap int, ok bool) {
	need := 64 * len(sat)
	out := bitpack.NewWriterOver(sat) // exactly need bits: the writer fills sat
	for cur := head; ; {
		if cur < 0 || cur >= len(fields) {
			return -1, false
		}
		if fields[cur] == nil {
			return cur, false
		}
		r := bitpack.NewReader(fields[cur], fieldBits)
		if r.ReadBits(1) != 1 {
			return -1, false
		}
		diff := r.ReadUnary()
		take := min(fieldBits-r.Pos(), need)
		copyBits(out, r, take)
		if need -= take; need == 0 {
			return -1, true
		}
		if diff == 0 {
			return -1, false
		}
		cur += diff
	}
}

// decodeMajority is Theorem 6(b)'s read: if one identifier fills more
// than half of the d fields, the data bits of its fields, in stripe
// order, are the satellite, written into sat. The paper notes no key
// comparison is needed: two keys share at most εd < d/2 neighbors.
// Identifiers are idBits-bit values at the head of each field (0 =
// empty), and a Boyer–Moore vote finds the majority without a count
// table. A nil field is a block a degraded read could not fetch; open
// reports that the arrived fields do not settle the answer: no majority
// among them, or a missing field before the satellite is complete,
// since the shares follow stripe order and it may hold the next one.
func decodeMajority(fieldBits, idBits int, fields [][]pdm.Word, sat []pdm.Word) (ok, open bool) {
	id := func(f []pdm.Word) uint64 {
		if f == nil {
			return 0
		}
		return bitpack.NewReader(f, fieldBits).ReadBits(idBits)
	}
	var cand uint64
	votes := 0
	for _, f := range fields {
		switch v := id(f); {
		case votes == 0:
			cand, votes = v, 1
		case v == cand:
			votes++
		default:
			votes--
		}
	}
	votes, missing := 0, false
	for _, f := range fields {
		missing = missing || f == nil
		if id(f) == cand {
			votes++
		}
	}
	if cand == 0 || 2*votes <= len(fields) {
		return false, missing
	}
	need := 64 * len(sat)
	out := bitpack.NewWriterOver(sat)
	for _, f := range fields {
		switch {
		case need == 0:
			return true, false
		case f == nil:
			return false, true // it may hold the next share of the satellite
		case id(f) != cand:
			continue
		}
		r := bitpack.NewReader(f, fieldBits)
		r.ReadBits(idBits)
		take := min(fieldBits-idBits, need)
		copyBits(out, r, take)
		need -= take
	}
	return need == 0, false // short of data, the satellite is malformed
}

// copyBits moves n bits from r to w, a word at a time.
func copyBits(w *bitpack.Writer, r *bitpack.Reader, n int) {
	for n > 0 {
		c := min(n, 64)
		w.WriteBits(r.ReadBits(c), c)
		n -= c
	}
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
