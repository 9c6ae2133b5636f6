package pdmdict

import (
	"errors"
	"fmt"
)

// NamedDict adapts any Dictionary to string keys — the paper's
// file-system scenario where "the name can be easily hashed as well"
// (Section 1.2), eliminating the name→inode translation step.
//
// A name is hashed to a 63-bit word key; the name itself is stored,
// length-prefixed, in front of the satellite and verified on every
// lookup, so a hash collision can never return another name's data.
// Collisions (two distinct live names with equal hashes) are instead
// surfaced as ErrNameCollision on Insert — with a 63-bit hash they are
// a < n²/2⁶³ event, but a deterministic system reports them rather than
// assuming them away.
type NamedDict struct {
	d         Dictionary
	satWords  int // user-visible satellite words
	nameWords int // reserved words for the length-prefixed name
}

// ErrNameCollision is returned when two distinct names hash to the same
// key. Rebuilding with a different underlying Seed resolves it.
var ErrNameCollision = errors.New("pdmdict: name hash collision")

// maxNameBytes is the longest name NamedDict accepts.
const maxNameBytes = 255

// NewNamed wraps d, which must have been created with SatWords equal to
// Named.SatWords(satWords) — the user satellite plus the reserved name
// region.
func NewNamed(d Dictionary, satWords int) *NamedDict {
	return &NamedDict{d: d, satWords: satWords, nameWords: nameRegionWords()}
}

// NamedSatWords returns the SatWords the underlying dictionary must be
// configured with to hold satWords user words per name.
func NamedSatWords(satWords int) int { return satWords + nameRegionWords() }

// nameRegionWords is the fixed name storage: 1 length word + 32 words
// of bytes (256 bytes).
func nameRegionWords() int { return 1 + maxNameBytes/8 + 1 }

// hashName folds a name into a 63-bit key (FNV-1a over the bytes, top
// bit cleared so keys stay inside the default universe).
func hashName(name string) Word {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return Word(h &^ (1 << 63))
}

// encodeName packs the length-prefixed name followed by the satellite.
func (nd *NamedDict) encode(name string, sat []Word) []Word {
	out := make([]Word, nd.nameWords+nd.satWords)
	out[0] = Word(len(name))
	for i := 0; i < len(name); i++ {
		out[1+i/8] |= Word(name[i]) << (8 * (i % 8))
	}
	copy(out[nd.nameWords:], sat)
	return out
}

// decodeName extracts the stored name.
func (nd *NamedDict) decodeName(raw []Word) string {
	n := int(raw[0])
	if n > maxNameBytes {
		return "" // corrupt; treated as a mismatch by callers
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(raw[1+i/8] >> (8 * (i % 8)))
	}
	return string(b)
}

// Insert stores (name, sat), replacing any existing satellite for the
// same name. It returns ErrNameCollision if a different live name owns
// the same hash.
func (nd *NamedDict) Insert(name string, sat []Word) error {
	if len(name) > maxNameBytes {
		return fmt.Errorf("pdmdict: name of %d bytes exceeds %d", len(name), maxNameBytes)
	}
	if len(sat) != nd.satWords {
		return fmt.Errorf("pdmdict: satellite of %d words, config says %d", len(sat), nd.satWords)
	}
	key := hashName(name)
	if raw, ok := nd.d.Lookup(key); ok && nd.decodeName(raw) != name {
		return fmt.Errorf("%w: %q vs %q", ErrNameCollision, name, nd.decodeName(raw))
	}
	return nd.d.Insert(key, nd.encode(name, sat))
}

// Lookup returns a copy of name's satellite and whether it is present.
// The stored name is verified, so collisions read as absent, never as
// wrong data.
func (nd *NamedDict) Lookup(name string) ([]Word, bool) {
	raw, ok := nd.d.Lookup(hashName(name))
	if !ok || nd.decodeName(raw) != name {
		return nil, false
	}
	sat := make([]Word, nd.satWords)
	copy(sat, raw[nd.nameWords:])
	return sat, true
}

// TryLookuper is satisfied by structures that offer a fault-aware
// lookup path (currently Basic, which with Replicas ≥ 2 answers from
// any surviving copy, and Dynamic).
type TryLookuper interface {
	LookupTry(key Word) ([]Word, bool, error)
}

// LookupTry is the fault-aware Lookup: when the underlying dictionary
// supports degraded reads it is used (surviving replicas answer even
// with failed disks), otherwise this falls back to the plain Lookup. A
// non-nil error means the result is inconclusive, never a definitive
// absence.
func (nd *NamedDict) LookupTry(name string) ([]Word, bool, error) {
	tl, ok := nd.d.(TryLookuper)
	if !ok {
		sat, found := nd.Lookup(name)
		return sat, found, nil
	}
	raw, found, err := tl.LookupTry(hashName(name))
	if !found {
		return nil, false, err
	}
	if nd.decodeName(raw) != name {
		return nil, false, nil
	}
	sat := make([]Word, nd.satWords)
	copy(sat, raw[nd.nameWords:])
	return sat, true, nil
}

// Contains reports whether name is present.
func (nd *NamedDict) Contains(name string) bool {
	_, ok := nd.Lookup(name)
	return ok
}

// Delete removes name, reporting whether it was present. Only the exact
// name is removed — a colliding other name is left alone.
func (nd *NamedDict) Delete(name string) bool {
	key := hashName(name)
	raw, ok := nd.d.Lookup(key)
	if !ok || nd.decodeName(raw) != name {
		return false
	}
	return nd.d.Delete(key)
}

// Len returns the number of stored names.
func (nd *NamedDict) Len() int { return nd.d.Len() }

// SetHook attaches an observability hook to the underlying dictionary.
func (nd *NamedDict) SetHook(h IOHook) { nd.d.SetHook(h) }

// IOStats returns the underlying dictionary's traffic.
func (nd *NamedDict) IOStats() IOStats { return nd.d.IOStats() }
