package pdmdict

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"testing"
)

// goldenStore is what the snapshot golden test drives: a dictionary's
// updates and its Save.
type goldenStore interface {
	Insert(key Word, sat []Word) error
	Delete(key Word) bool
	Save(w io.Writer) error
}

// goldenReopened is a structure restored from a Save stream.
type goldenReopened interface {
	Lookup(key Word) ([]Word, bool)
	Len() int
}

// The Save bytes of the chained-level structures are pinned: a seeded
// Dynamic with keys below its first array, and a Dict and a
// OneProbe-backed Dict each caught mid-migration, must snapshot to the
// same SHA-256 as when the digests were recorded, and each stream must
// reopen to a structure that answers every key — stored, deleted or
// never inserted — as the oracle does.
//
// The bytes must not depend on what the process saved before, so the
// test first saves one structure of each kind.
func TestSaveGolden(t *testing.T) {
	savedCorpus(t)
	big := Options{Capacity: 512, SatWords: 2, Degree: 20, BlockSize: 32, Seed: 11}
	small := big
	small.Capacity = 64
	deep := func(s goldenStore) bool { return slices.Max(s.(*Dynamic).LevelCounts()[1:]) > 0 }
	migrating := func(s goldenStore) bool { return s.(*Dict).d.Migrating() }
	cases := []struct {
		name  string
		ops   int
		make  func() (goldenStore, error)
		shape func(goldenStore) bool // the state the snapshot must capture
		open  func(io.Reader) (goldenReopened, error)
		want  string
	}{
		{"dynamic", 512,
			func() (goldenStore, error) { return NewDynamic(big) }, deep,
			func(r io.Reader) (goldenReopened, error) { return OpenDynamic(r) },
			"b773612c6492cb06683a9c34ad5499ded71ef9c860dea11e0ed1ea4564e10430"},
		{"dict", 80,
			func() (goldenStore, error) { return New(small) }, migrating,
			func(r io.Reader) (goldenReopened, error) { return OpenDict(r) },
			"32b3fe3a21178a578c6ba886f54b339f287ebbed0620fb0aa6a6b83da6b64afa"},
		{"dict-oneprobe", 80,
			func() (goldenStore, error) { return NewOneProbeUnbounded(small) }, migrating,
			func(r io.Reader) (goldenReopened, error) { return OpenDict(r) },
			"e390ef62be1064657cd03ff3f28f4a817450fed6e6845e074c14c2becf2f6bc4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[Word]Word{}
			key := func(i int) Word { return Word(i)*7919 + 3 }
			for i := 0; i < c.ops; i++ {
				k := key(i)
				if err := s.Insert(k, []Word{Word(i), k}); err != nil {
					t.Fatal(err)
				}
				oracle[k] = Word(i)
				if i%5 == 4 { // an update in place
					if err := s.Insert(key(i-2), []Word{Word(i) << 8, key(i - 2)}); err != nil {
						t.Fatal(err)
					}
					oracle[key(i-2)] = Word(i) << 8
				}
				if i%7 == 6 {
					if !s.Delete(key(i - 3)) {
						t.Fatalf("Delete(%d) = false", key(i-3))
					}
					delete(oracle, key(i-3))
				}
			}
			if !c.shape(s) {
				t.Fatal("the seeded operations no longer reach the state under test")
			}
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
				t.Errorf("Save digest %s, want %s", got, c.want)
			}
			r, err := c.open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != len(oracle) {
				t.Fatalf("reopened Len = %d, want %d", r.Len(), len(oracle))
			}
			for i := 0; i < c.ops+10; i++ {
				k := key(i)
				sat, ok := r.Lookup(k)
				v, want := oracle[k]
				if ok != want || (ok && !slices.Equal(sat, []Word{v, k})) {
					t.Fatalf("reopened Lookup(%d) = %v, %v; want %v, %v", k, sat, ok, []Word{v, k}, want)
				}
			}
		})
	}
}
