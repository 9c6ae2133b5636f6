package bucket

import (
	"testing"
	"testing/quick"

	"pdmdict/internal/pdm"
)

func rec(key pdm.Word, sat ...pdm.Word) Record { return Record{Key: key, Sat: sat} }

func TestCodecCapacity(t *testing.T) {
	cases := []struct {
		b, sat, want int
	}{
		{16, 0, 15},
		{16, 1, 7},
		{16, 3, 3},
		{2, 0, 1},
		{1, 0, 0},
	}
	for _, c := range cases {
		got := Codec{B: c.b, SatWords: c.sat}.Capacity()
		if got != c.want {
			t.Errorf("Capacity(B=%d, sat=%d) = %d, want %d", c.b, c.sat, got, c.want)
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	c := Codec{B: 16, SatWords: 2}
	recs := []Record{rec(10, 100, 101), rec(20, 200, 201)}
	block := c.Encode(recs)
	if len(block) != 16 {
		t.Fatalf("block length %d", len(block))
	}
	got := c.Decode(block)
	if len(got) != 2 {
		t.Fatalf("decoded %d records", len(got))
	}
	if got[0].Key != 10 || got[0].Sat[1] != 101 || got[1].Key != 20 || got[1].Sat[0] != 200 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestEncodeOverflowPanics(t *testing.T) {
	c := Codec{B: 4, SatWords: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow encode did not panic")
		}
	}()
	c.Encode([]Record{rec(1), rec(2), rec(3), rec(4)})
}

func TestFind(t *testing.T) {
	c := Codec{B: 16, SatWords: 1}
	block := c.Encode([]Record{rec(5, 50), rec(7, 70)})
	if sat, ok := c.Find(block, 7); !ok || sat[0] != 70 {
		t.Errorf("Find(7) = %v, %v", sat, ok)
	}
	if _, ok := c.Find(block, 6); ok {
		t.Error("Find(6) found a missing key")
	}
}

// Next visits every record of a key, in block order, without allocating,
// and agrees with Decode; a clamped corrupt header bounds the scan.
func TestNextVisitsEveryMatch(t *testing.T) {
	c := Codec{B: 16, SatWords: 2}
	block := make([]pdm.Word, c.B)
	for _, r := range []Record{rec(7, 0, 70), rec(9, 0, 90), rec(7, 1, 71), rec(3, 0, 30), rec(7, 2, 72)} {
		if !c.AppendAlways(block, r) {
			t.Fatal("block full")
		}
	}
	var want [][]pdm.Word
	for _, r := range c.Decode(block) {
		if r.Key == 7 {
			want = append(want, r.Sat)
		}
	}
	var got [][]pdm.Word
	for sat, i, ok := c.Next(block, 7, 0); ok; sat, i, ok = c.Next(block, 7, i) {
		got = append(got, sat)
	}
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("Next found %d records, Decode %d, want 3", len(got), len(want))
	}
	for k := range got {
		if &got[k][0] != &want[k][0] || len(got[k]) != c.SatWords {
			t.Errorf("match %d: Next returned %v, Decode %v (must alias the same words)", k, got[k], want[k])
		}
	}
	if _, _, ok := c.Next(block, 8, 0); ok {
		t.Error("Next found an absent key")
	}
	if _, _, ok := c.Next(block, 7, 5); ok {
		t.Error("Next resumed past the last record and still matched")
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, i, ok := c.Next(block, 7, 0); ok; _, i, ok = c.Next(block, 7, i) {
		}
	}); avg != 0 {
		t.Errorf("a full Next scan allocates %.1f objects, want 0", avg)
	}
	block[0] = 1 << 40 // corrupt header: the scan stays inside the block
	n := 0
	for _, i, ok := c.Next(block, 7, 0); ok; _, i, ok = c.Next(block, 7, i) {
		n++
	}
	if n != 3 {
		t.Errorf("scan under a corrupt header found %d records, want 3", n)
	}
}

func TestAppendAndReplace(t *testing.T) {
	c := Codec{B: 10, SatWords: 1}
	block := c.Encode(nil)
	if !c.Append(block, rec(1, 11)) || !c.Append(block, rec(2, 22)) {
		t.Fatal("appends failed")
	}
	if c.Count(block) != 2 {
		t.Fatalf("count = %d", c.Count(block))
	}
	// Same key replaces in place.
	if !c.Append(block, rec(1, 99)) {
		t.Fatal("replace failed")
	}
	if c.Count(block) != 2 {
		t.Errorf("replace changed count to %d", c.Count(block))
	}
	if sat, _ := c.Find(block, 1); sat[0] != 99 {
		t.Errorf("replace did not stick: %d", sat[0])
	}
}

func TestAppendFullBlock(t *testing.T) {
	c := Codec{B: 5, SatWords: 1} // capacity 2
	block := c.Encode([]Record{rec(1, 0), rec(2, 0)})
	if c.Append(block, rec(3, 0)) {
		t.Error("append into a full block reported success")
	}
}

func TestAppendBadSatWidthPanics(t *testing.T) {
	c := Codec{B: 8, SatWords: 2}
	block := c.Encode(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("bad satellite width did not panic")
		}
	}()
	c.Append(block, rec(1, 5))
}

func TestAppendAlwaysKeepsSameKeyRecords(t *testing.T) {
	c := Codec{B: 16, SatWords: 1}
	block := c.Encode(nil)
	if !c.AppendAlways(block, rec(5, 0)) || !c.AppendAlways(block, rec(5, 1)) {
		t.Fatal("appends failed")
	}
	if c.Count(block) != 2 {
		t.Fatalf("count = %d, want 2 (same-key records must coexist)", c.Count(block))
	}
	got := c.Decode(block)
	if got[0].Sat[0] != 0 || got[1].Sat[0] != 1 {
		t.Errorf("records = %+v", got)
	}
	// Capacity is still enforced.
	tiny := Codec{B: 2, SatWords: 0} // capacity 1
	blk := tiny.Encode([]Record{rec(1)})
	if tiny.AppendAlways(blk, rec(2)) {
		t.Error("AppendAlways into a full block reported success")
	}
}

func TestAppendAlwaysBadWidthPanics(t *testing.T) {
	c := Codec{B: 8, SatWords: 2}
	block := c.Encode(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("bad satellite width did not panic")
		}
	}()
	c.AppendAlways(block, rec(1, 5))
}

func TestRemove(t *testing.T) {
	c := Codec{B: 16, SatWords: 1}
	block := c.Encode([]Record{rec(1, 10), rec(2, 20), rec(3, 30)})
	if !c.Remove(block, 2) {
		t.Fatal("Remove(2) failed")
	}
	if c.Count(block) != 2 {
		t.Errorf("count = %d after remove", c.Count(block))
	}
	if _, ok := c.Find(block, 2); ok {
		t.Error("removed key still found")
	}
	for _, k := range []pdm.Word{1, 3} {
		if _, ok := c.Find(block, k); !ok {
			t.Errorf("key %d lost by remove", k)
		}
	}
	if c.Remove(block, 99) {
		t.Error("Remove of missing key reported success")
	}
}

func TestRemoveLastClearsTail(t *testing.T) {
	c := Codec{B: 8, SatWords: 1}
	block := c.Encode([]Record{rec(1, 10)})
	c.Remove(block, 1)
	for i, w := range block {
		if w != 0 {
			t.Errorf("word %d = %d after removing the only record", i, w)
		}
	}
}

func TestNibbleTrieBasics(t *testing.T) {
	var tr NibbleTrie
	if _, ok := tr.Get(1); ok {
		t.Error("empty trie Get succeeded")
	}
	tr.Put(1, 100)
	tr.Put(0xdeadbeefcafef00d, 200)
	tr.Put(1, 111) // update
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if v, ok := tr.Get(1); !ok || v != 111 {
		t.Errorf("Get(1) = %d, %v", v, ok)
	}
	if v, ok := tr.Get(0xdeadbeefcafef00d); !ok || v != 200 {
		t.Errorf("Get(big) = %d, %v", v, ok)
	}
	if !tr.Delete(1) {
		t.Error("Delete(1) failed")
	}
	if tr.Delete(1) {
		t.Error("double delete succeeded")
	}
	if _, ok := tr.Get(1); ok {
		t.Error("deleted key still present")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after delete, want 1", tr.Len())
	}
}

func TestNibbleTrieDistinguishesClosePrefixes(t *testing.T) {
	var tr NibbleTrie
	// Keys differing only in the lowest nibble share 15 trie levels.
	tr.Put(0xABC0, 1)
	tr.Put(0xABC1, 2)
	if v, _ := tr.Get(0xABC0); v != 1 {
		t.Errorf("Get(0xABC0) = %d", v)
	}
	if v, _ := tr.Get(0xABC1); v != 2 {
		t.Errorf("Get(0xABC1) = %d", v)
	}
	if _, ok := tr.Get(0xABC2); ok {
		t.Error("sibling key reported present")
	}
}

// Property: the codec behaves exactly like a map from key to satellite
// under any sequence of appends and removes that fits one block.
func TestPropertyCodecMatchesMap(t *testing.T) {
	c := Codec{B: 64, SatWords: 1}
	f := func(ops []uint16) bool {
		block := c.Encode(nil)
		oracle := map[pdm.Word]pdm.Word{}
		for _, op := range ops {
			key := pdm.Word(op % 32)
			switch {
			case op%3 == 0 && len(oracle) > 0:
				delete(oracle, key)
				c.Remove(block, key)
			default:
				if len(oracle) < c.Capacity() || oracle[key] != 0 {
					if c.Append(block, rec(key, pdm.Word(op))) {
						oracle[key] = pdm.Word(op)
					}
				}
			}
		}
		if c.Count(block) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			sat, ok := c.Find(block, k)
			if !ok || sat[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NibbleTrie agrees with a map under random workloads.
func TestPropertyTrieMatchesMap(t *testing.T) {
	f := func(keys []uint64, dels []uint64) bool {
		var tr NibbleTrie
		oracle := map[uint64]int{}
		for i, k := range keys {
			tr.Put(k, i)
			oracle[k] = i
		}
		for _, k := range dels {
			if tr.Delete(k) != (func() bool { _, ok := oracle[k]; return ok })() {
				return false
			}
			delete(oracle, k)
		}
		if tr.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
