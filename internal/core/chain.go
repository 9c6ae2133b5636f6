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

// field is one packed field: the fieldBits bits of block blk that start
// at bit off. Fields are laid ⌊64·B/fieldBits⌋ to a block and never
// straddle one. A nil blk is a block a degraded read could not fetch.
type field struct {
	blk []pdm.Word
	off int
}

// reader reads the field's bits.
func (f field) reader(fieldBits int) bitpack.Reader {
	return bitpack.NewReaderAt(f.blk, f.off, fieldBits)
}

// clear zeroes the field's bits, leaving the rest of its block alone.
func (f field) clear(fieldBits int) {
	w := bitpack.NewWriterAt(f.blk, f.off)
	for n := fieldBits; n > 0; n -= 64 {
		w.WriteBits(0, min(n, 64))
	}
}

// chainFieldBits returns the per-field bit budget needed so that t
// fields carry sigma data bits on a degree-d graph: the chain spends at
// most 2t+d−1 bits on used flags and pointers. Every field also holds
// its own used flag and pointer whole: no two of t increasing stripes
// in [0, d) lie more than d−t+1 apart, so a field needs at most d−t+3
// bits before its data.
func chainFieldBits(sigmaBits, t, d int) int {
	return max(ceilDiv(sigmaBits+2*t+d-1, t), d-t+3)
}

// encodeChain lays the satellite out over the chosen stripes (strictly
// increasing), in place: fields holds the key's field for every stripe,
// indexed by stripe, and each chosen stripe's field is rewritten while
// the others, and the rest of each block, are left alone. The fields
// are views of the blocks an update writes back, so the chain costs no
// copy.
func encodeChain(fieldBits int, stripes []int, sat []pdm.Word, fields []field) {
	satBits := bitpack.NewReader(sat, 64*len(sat))
	for p, s := range stripes {
		f := fields[s]
		f.clear(fieldBits)
		w := bitpack.NewWriterAt(f.blk, f.off)
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
// [0,d), chain ending early, a pointer running off its field), which
// callers treat as absence. A field with a nil block is one a degraded
// read could not fetch: the walk stops there, since only that field
// knows where the chain goes next, and gap is its stripe (−1 when the
// walk met none).
func decodeChain(fieldBits int, fields []field, head int, sat []pdm.Word) (gap int, ok bool) {
	need := 64 * len(sat)
	out := bitpack.NewWriterOver(sat) // exactly need bits: the writer fills sat
	for cur := head; ; {
		if cur < 0 || cur >= len(fields) {
			return -1, false
		}
		if fields[cur].blk == nil {
			return cur, false
		}
		r := fields[cur].reader(fieldBits)
		if r.ReadBits(1) != 1 {
			return -1, false
		}
		diff, whole := readDiff(&r)
		if !whole {
			return -1, false
		}
		take := min(r.Remaining(), need)
		copyBits(out, &r, take)
		if need -= take; need == 0 {
			return -1, true
		}
		if diff == 0 {
			return -1, false
		}
		cur += diff
	}
}

// readDiff reads a chain field's unary next-stripe difference. whole is
// false when the field ends before the code does, which only a damaged
// field does.
func readDiff(r *bitpack.Reader) (diff int, whole bool) {
	for r.Remaining() > 0 {
		if r.ReadBits(1) == 0 {
			return diff, true
		}
		diff++
	}
	return diff, false
}

// decodeMajority is Theorem 6(b)'s read: if one identifier fills more
// than half of the d fields, the data bits of its fields, in stripe
// order, are the satellite, written into sat. The paper notes no key
// comparison is needed: two keys share at most εd < d/2 neighbors.
// Identifiers are idBits-bit values at the head of each field (0 =
// empty), and a Boyer–Moore vote finds the majority without a count
// table. A field with a nil block is one a degraded read could not
// fetch; open reports that the arrived fields do not settle the answer:
// no majority among them, or a missing field before the satellite is
// complete, since the shares follow stripe order and it may hold the
// next one.
func decodeMajority(fieldBits, idBits int, fields []field, sat []pdm.Word) (ok, open bool) {
	id := func(f field) uint64 {
		if f.blk == nil {
			return 0
		}
		r := f.reader(fieldBits)
		return r.ReadBits(idBits)
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
		missing = missing || f.blk == nil
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
		case f.blk == nil:
			return false, true // it may hold the next share of the satellite
		case id(f) != cand:
			continue
		}
		r := f.reader(fieldBits)
		r.ReadBits(idBits)
		take := min(fieldBits-idBits, need)
		copyBits(out, &r, take)
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
func fieldUsed(f field) bool { return f.blk != nil && f.blk[f.off/64]>>(f.off%64)&1 == 1 }

// freeFields appends to dst the stripes whose field is unused, in stripe
// order.
func freeFields(fields []field, dst []int) []int {
	for i, f := range fields {
		if !fieldUsed(f) {
			dst = append(dst, i)
		}
	}
	return dst
}
