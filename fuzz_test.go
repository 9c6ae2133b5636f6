package pdmdict

import (
	"bytes"
	"io"
	"testing"
)

// savedCorpus produces one valid Save stream per openable structure,
// used to seed the fuzzer with well-formed inputs it can mutate.
func savedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	// Degree 20 satisfies Theorem 7's d > 6(1+1/ɛ) for the default ɛ.
	opts := Options{Capacity: 64, SatWords: 2, Degree: 20, BlockSize: 32, Seed: 3}
	fill := func(insert func(Word, []Word) error) {
		tb.Helper()
		for i := 0; i < 40; i++ {
			if err := insert(Word(i)*31+1, []Word{Word(i), 9}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	snap := func(save func(io.Writer) error) []byte {
		tb.Helper()
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}

	b, err := NewBasic(BasicOptions{Options: opts})
	if err != nil {
		tb.Fatal(err)
	}
	fill(b.Insert)

	dy, err := NewDynamic(opts)
	if err != nil {
		tb.Fatal(err)
	}
	fill(dy.Insert)

	recs := make([]Record, 40)
	for i := range recs {
		recs[i] = Record{Key: Word(i)*31 + 1, Sat: []Word{Word(i), 9}}
	}
	st, err := BuildStatic(StaticOptions{Options: opts}, recs)
	if err != nil {
		tb.Fatal(err)
	}

	dd, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	fill(dd.Insert)

	op, err := NewOneProbeUnbounded(opts)
	if err != nil {
		tb.Fatal(err)
	}
	fill(op.Insert)

	return [][]byte{snap(b.Save), snap(dy.Save), snap(st.Save), snap(dd.Save), snap(op.Save)}
}

// FuzzSnapshot feeds arbitrary bytes — seeded with valid snapshots,
// which the fuzzer truncates and bit-flips — to every Open function.
// Each must return an error or a working structure; none may panic, and
// none may allocate unboundedly off a length field.
func FuzzSnapshot(f *testing.F) {
	for _, seed := range savedCorpus(f) {
		f.Add(seed)
		// Hand the fuzzer a head start on the two interesting classes.
		if len(seed) > 8 {
			f.Add(seed[:len(seed)/2])
			flipped := append([]byte(nil), seed...)
			flipped[len(flipped)/3] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tryOpens(t, data)
	})
}

// TestSnapshotRejectsMutations is the non-fuzz subset of the same
// property, so plain `go test` exercises it even without -fuzz: every
// truncation point and a sweep of single bit flips must never panic.
func TestSnapshotRejectsMutations(t *testing.T) {
	for _, seed := range savedCorpus(t) {
		// ~256 probe points per seed keeps the sweep fast while still
		// hitting every header field and a spread of payload offsets.
		step := len(seed)/256 + 1
		for cut := 0; cut < len(seed); cut += step {
			tryOpens(t, seed[:cut])
		}
		for pos := 0; pos < len(seed); pos += step {
			mut := append([]byte(nil), seed...)
			mut[pos] ^= 1 << (pos % 8)
			tryOpens(t, mut)
		}
	}
}

func tryOpens(t *testing.T, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("open panicked on %d-byte input: %v", len(data), r)
		}
	}()
	_, _ = OpenBasic(bytes.NewReader(data))
	_, _ = OpenDynamic(bytes.NewReader(data))
	_, _ = OpenStatic(bytes.NewReader(data))
	_, _ = OpenDict(bytes.NewReader(data))
}
