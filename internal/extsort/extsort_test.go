package extsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pdmdict/internal/pdm"
)

func newVec(t *testing.T, d, b, recWords, n int) *Vec {
	t.Helper()
	m := pdm.NewMachine(pdm.Config{D: d, B: b})
	return &Vec{M: m, Start: 0, RecWords: recWords, N: n}
}

func fill(v *Vec, keys []pdm.Word) {
	data := make([]pdm.Word, 0, v.Words())
	for i, k := range keys {
		rec := make([]pdm.Word, v.RecWords)
		rec[0] = k
		for j := 1; j < v.RecWords; j++ {
			rec[j] = pdm.Word(i)*1000 + pdm.Word(j) // payload tied to original position
		}
		data = append(data, rec...)
	}
	WriteAll(v, data)
}

func extractKeys(v *Vec) []pdm.Word {
	data := ReadAll(v)
	keys := make([]pdm.Word, v.N)
	for i := range keys {
		keys[i] = data[i*v.RecWords]
	}
	return keys
}

func TestSortSmall(t *testing.T) {
	v := newVec(t, 4, 4, 2, 10)
	keys := []pdm.Word{9, 3, 7, 1, 8, 2, 6, 0, 5, 4}
	fill(v, keys)
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	got := extractKeys(v)
	for i := range got {
		if got[i] != pdm.Word(i) {
			t.Fatalf("position %d = %d, want %d (full: %v)", i, got[i], i, got)
		}
	}
}

func TestSortAlreadySorted(t *testing.T) {
	v := newVec(t, 2, 4, 1, 20)
	keys := make([]pdm.Word, 20)
	for i := range keys {
		keys[i] = pdm.Word(i)
	}
	fill(v, keys)
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	got := extractKeys(v)
	for i := range got {
		if got[i] != pdm.Word(i) {
			t.Fatalf("sorted input perturbed at %d: %v", i, got)
		}
	}
}

func TestSortSingleAndEmpty(t *testing.T) {
	v := newVec(t, 2, 4, 3, 1)
	fill(v, []pdm.Word{42})
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	if got := extractKeys(v)[0]; got != 42 {
		t.Errorf("singleton sort broke the record: %d", got)
	}
	v0 := newVec(t, 2, 4, 3, 0)
	Sort(v0, 0, 3, ByWord(0)) // must not touch the machine
	if v0.M.Stats().ParallelIOs != 0 {
		t.Error("empty sort performed I/O")
	}
}

func TestSortSatelliteFollowsKey(t *testing.T) {
	v := newVec(t, 4, 4, 3, 50)
	rng := rand.New(rand.NewSource(1))
	keys := make([]pdm.Word, 50)
	for i := range keys {
		keys[i] = pdm.Word(rng.Intn(1000))*10 + pdm.Word(i%10) // distinct
	}
	fill(v, keys)
	// Remember each key's payload.
	want := map[pdm.Word]pdm.Word{}
	for i, k := range keys {
		want[k] = pdm.Word(i)*1000 + 1
	}
	Sort(v, v.SortStripes(4), 4, ByWord(0))
	data := ReadAll(v)
	for i := 0; i < v.N; i++ {
		k, payload := data[i*3], data[i*3+1]
		if want[k] != payload {
			t.Fatalf("satellite detached from key %d: got %d want %d", k, payload, want[k])
		}
	}
}

func TestSortManyRunsMultiplePasses(t *testing.T) {
	// memStripes=3 with D=2, B=2 → runs of 3 stripes = 12 words = 6
	// two-word records; 200 records → 34 runs → several merge passes.
	v := newVec(t, 2, 2, 2, 200)
	rng := rand.New(rand.NewSource(2))
	keys := make([]pdm.Word, 200)
	perm := rng.Perm(200)
	for i, p := range perm {
		keys[i] = pdm.Word(p)
	}
	fill(v, keys)
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	got := extractKeys(v)
	for i := range got {
		if got[i] != pdm.Word(i) {
			t.Fatalf("multi-pass sort wrong at %d: %d", i, got[i])
		}
	}
}

func TestSortIsStripedIO(t *testing.T) {
	// Every batch the sorter issues is a full stripe: MaxBatch must stay 1.
	v := newVec(t, 4, 8, 2, 300)
	rng := rand.New(rand.NewSource(3))
	keys := make([]pdm.Word, 300)
	for i, p := range rng.Perm(300) {
		keys[i] = pdm.Word(p)
	}
	fill(v, keys)
	v.M.ResetStats()
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	s := v.M.Stats()
	if s.MaxBatch != 1 {
		t.Errorf("sort issued a non-parallel batch: MaxBatch=%d", s.MaxBatch)
	}
	if s.ParallelIOs == 0 {
		t.Error("sort did no I/O at all")
	}
}

func TestSortIOWithinSortBound(t *testing.T) {
	// I/O cost should be at most a small multiple of
	// stripes · (1 + passes); sanity-check the constant stays below 8×
	// the one-pass cost per level.
	v := newVec(t, 4, 8, 2, 1000)
	rng := rand.New(rand.NewSource(4))
	keys := make([]pdm.Word, 1000)
	for i, p := range rng.Perm(1000) {
		keys[i] = pdm.Word(p)
	}
	fill(v, keys)
	v.M.ResetStats()
	Sort(v, v.SortStripes(4), 4, ByWord(0))
	stripes := v.Stripes()
	ios := int(v.M.Stats().ParallelIOs)
	if ios > 8*stripes*6 {
		t.Errorf("sort used %d parallel I/Os for %d stripes; looks super-linear", ios, stripes)
	}
}

func TestByWordMultiKey(t *testing.T) {
	less := ByWord(1, 0)
	a := []pdm.Word{5, 1}
	b := []pdm.Word{3, 2}
	c := []pdm.Word{4, 1}
	if !less(a, b) { // secondary word 1 < 2
		t.Error("a < b expected")
	}
	if !less(c, a) { // tie on word 1, then 4 < 5
		t.Error("c < a expected")
	}
	if less(a, a) {
		t.Error("irreflexivity violated")
	}
}

func TestRecordAccess(t *testing.T) {
	v := newVec(t, 2, 2, 3, 10) // records straddle stripes (3 vs stripe of 4)
	fill(v, []pdm.Word{10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	for i := 0; i < 10; i++ {
		rec := Record(v, i)
		if rec[0] != pdm.Word(10+i) {
			t.Errorf("Record(%d)[0] = %d, want %d", i, rec[0], 10+i)
		}
	}
}

func TestRecordOutOfRangePanics(t *testing.T) {
	v := newVec(t, 2, 2, 1, 3)
	fill(v, []pdm.Word{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Record did not panic")
		}
	}()
	Record(v, 3)
}

func TestWriteAllSizePanics(t *testing.T) {
	v := newVec(t, 2, 2, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size WriteAll did not panic")
		}
	}()
	WriteAll(v, make([]pdm.Word, 5))
}

func TestSortPanicsOnTinyMemory(t *testing.T) {
	v := newVec(t, 2, 2, 2, 4)
	fill(v, []pdm.Word{3, 1, 2, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("memStripes=2 did not panic")
		}
	}()
	Sort(v, v.SortStripes(2), 2, ByWord(0))
}

// Property: Sort agrees with sort.Slice on arbitrary inputs, for several
// machine geometries, including duplicate keys (stability of the result
// set, not order within ties, is what matters).
func TestPropertySortMatchesStdlib(t *testing.T) {
	f := func(raw []uint16, geom uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		geoms := []struct{ d, b, mem int }{{2, 2, 3}, {4, 4, 3}, {8, 16, 5}}
		g := geoms[int(geom)%len(geoms)]
		m := pdm.NewMachine(pdm.Config{D: g.d, B: g.b})
		v := &Vec{M: m, Start: 0, RecWords: 2, N: len(raw)}
		data := make([]pdm.Word, 0, v.Words())
		for i, r := range raw {
			data = append(data, pdm.Word(r), pdm.Word(i))
		}
		WriteAll(v, data)
		Sort(v, v.SortStripes(g.mem), g.mem, ByWord(0))

		want := make([]pdm.Word, len(raw))
		for i, r := range raw {
			want[i] = pdm.Word(r)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		got := extractKeys(v)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// blockSet is a hook collecting the distinct blocks written at or past
// block from.
type blockSet struct {
	from int
	seen map[pdm.Addr]bool
}

func (h *blockSet) Event(e pdm.Event) {
	if e.Kind != pdm.EventWrite {
		return
	}
	for _, a := range e.Addrs {
		if a.Block >= h.from {
			h.seen[a] = true
		}
	}
}

// Sort leaves only the sorted vector behind: every block it wrote past
// the vector, in the data region's slack or in scratch, reads as zeros
// afterwards, and re-sorting costs the same I/Os.
func TestSortReleasesScratch(t *testing.T) {
	v := newVec(t, 4, 8, 2, 400)
	keys := make([]pdm.Word, v.N)
	for i := range keys {
		keys[i] = pdm.Word(v.N - i)
	}
	fill(v, keys)
	h := &blockSet{from: v.Stripes(), seen: map[pdm.Addr]bool{}}
	v.M.SetHook(h)
	before := v.M.Stats()
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	first := v.M.Stats().Sub(before)
	v.M.SetHook(nil)
	if len(h.seen) == 0 {
		t.Fatal("the sort wrote nothing past the vector; the test needs a larger one")
	}
	for a := range h.seen {
		if blk := v.M.Peek(a); slices.ContainsFunc(blk, func(w pdm.Word) bool { return w != 0 }) {
			t.Fatalf("block %v still holds %v after the sort", a, blk)
		}
	}
	for i, k := range extractKeys(v) {
		if k != pdm.Word(i+1) {
			t.Fatalf("position %d = %d after the sort", i, k)
		}
	}
	before = v.M.Stats()
	Sort(v, v.SortStripes(3), 3, ByWord(0))
	if again := v.M.Stats().Sub(before); again.ParallelIOs != first.ParallelIOs {
		t.Errorf("re-sort cost %d I/Os, the first sort %d", again.ParallelIOs, first.ParallelIOs)
	}
}

// Scan and Sort stream through buffers they reuse, so their allocations
// do not grow with the vector: over 64 stripes they allocate no more
// objects than over 4. The machine does allocate one block for each
// block a sort writes past the vector, since the previous sort released
// them; those are counted from the sort's write events and set aside.
func TestStreamAllocsIndependentOfSize(t *testing.T) {
	const d, b, width, mem = 4, 8, 2, 3
	measure := func(stripes int) (scan, sort float64) {
		v := newVec(t, d, b, width, stripes*d*b/width)
		keys := make([]pdm.Word, v.N)
		for i := range keys {
			keys[i] = pdm.Word(v.N - i)
		}
		fill(v, keys)
		Sort(v, v.SortStripes(mem), mem, ByWord(0)) // grows the disks to their final span
		h := &blockSet{from: v.Stripes(), seen: map[pdm.Addr]bool{}}
		v.M.SetHook(h)
		Sort(v, v.SortStripes(mem), mem, ByWord(0))
		v.M.SetHook(nil)
		scan = testing.AllocsPerRun(5, func() { Scan(v, func(int, []pdm.Word) {}) })
		sort = testing.AllocsPerRun(5, func() { Sort(v, v.SortStripes(mem), mem, ByWord(0)) }) - float64(len(h.seen))
		return scan, sort
	}
	scan4, sort4 := measure(4)
	for _, stripes := range []int{32, 64} {
		scan, sort := measure(stripes)
		if scan > scan4 {
			t.Errorf("Scan over %d stripes allocates %.0f objects, over 4 stripes %.0f", stripes, scan, scan4)
		}
		if sort > sort4 {
			t.Errorf("Sort over %d stripes allocates %.0f objects besides the blocks it materializes, over 4 stripes %.0f", stripes, sort, sort4)
		}
	}
}
