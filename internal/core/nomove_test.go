package core

// The paper's Section 1.1 makes a systems promise beyond the I/O
// bounds: "If we fix the capacity of the data structure and there are
// no deletions (or if we do not require that space of deleted items is
// reused), no piece of data is ever moved, once inserted. This makes it
// easy to keep references to data, and also simplifies concurrency
// control mechanisms such as locking." These tests pin that invariant:
// across arbitrary later insertions, every previously written fragment
// and chain field stays at its original disk location.

import (
	"fmt"
	"testing"

	"pdmdict/internal/pdm"
)

// fragmentPositions maps each (key, fragIdx) to its (stripe, bucket)
// location by scanning the structure.
func fragmentPositions(bd *BasicDict) map[[2]pdm.Word]string {
	pos := map[[2]pdm.Word]string{}
	for y := 0; y < bd.buckets; y++ {
		disk, row := bd.bucketPos(y)
		for b := 0; b < bd.cfg.BucketBlocks; b++ {
			blk := bd.reg.m.Peek(bd.reg.addr(disk, row*bd.cfg.BucketBlocks+b))
			for _, rec := range bd.codec.Decode(blk) {
				pos[[2]pdm.Word{rec.Key, rec.Sat[0]}] = fmt.Sprintf("%d/%d", disk, row)
			}
		}
	}
	return pos
}

func TestBasicNoDataEverMoves(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 8, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 500, SatWords: 1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	// Insert in waves; after each wave, every earlier fragment must sit
	// exactly where it was.
	var sealed map[[2]pdm.Word]string
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < 100; i++ {
			k := pdm.Word(wave*1000 + i*7 + 1)
			if err := bd.Insert(k, []pdm.Word{k}); err != nil {
				t.Fatal(err)
			}
		}
		now := fragmentPositions(bd)
		for frag, loc := range sealed {
			if now[frag] != loc {
				t.Fatalf("wave %d: fragment %v moved from %s to %s", wave, frag, loc, now[frag])
			}
		}
		sealed = now
	}
}

func TestDynamicNoChainEverMoves(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	dd, err := NewDynamic(m, DynamicConfig{Capacity: 600, SatWords: 2, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	// Record each key's membership word (head|level) right after its
	// insert; later inserts must never change it — the chain never
	// moves.
	recorded := map[pdm.Word]pdm.Word{}
	headOf := func(k pdm.Word) pdm.Word {
		sat, ok := dd.memb.Lookup(k)
		if !ok {
			t.Fatalf("key %d missing from membership", k)
		}
		return sat[0]
	}
	for i := 0; i < 600; i++ {
		k := pdm.Word(i*11 + 5)
		if err := dd.Insert(k, []pdm.Word{k, k + 1}); err != nil {
			t.Fatal(err)
		}
		recorded[k] = headOf(k)
		if i%97 == 0 {
			for pk, want := range recorded {
				if got := headOf(pk); got != want {
					t.Fatalf("after %d inserts: key %d chain moved (%#x → %#x)", i, pk, want, got)
				}
			}
		}
	}
	for pk, want := range recorded {
		if got := headOf(pk); got != want {
			t.Fatalf("final: key %d chain moved (%#x → %#x)", pk, want, got)
		}
	}
}

func TestNoIndexNoDirectoryProperty(t *testing.T) {
	// "Lookups and updates go directly to the relevant blocks, without
	// any knowledge of the current data": two dictionaries with the same
	// configuration but different contents must touch the SAME addresses
	// when probing the same key. That is only possible because the probe
	// set is a pure function of the key and the graph.
	mkDict := func(fill int) (*BasicDict, *pdm.Machine) {
		m := pdm.NewMachine(pdm.Config{D: 8, B: 32})
		bd, err := NewBasic(m, BasicConfig{Capacity: 300, SatWords: 0, Seed: 63})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fill; i++ {
			bd.Insert(pdm.Word(i*13+2), nil)
		}
		return bd, m
	}
	empty, _ := mkDict(0)
	full, _ := mkDict(300)
	for probe := pdm.Word(0); probe < 50; probe++ {
		a := empty.probeAddrs(new(probeScratch), probe, nil)
		b := full.probeAddrs(new(probeScratch), probe, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("probe %d: address %d differs (%v vs %v) — a hidden directory exists", probe, i, a[i], b[i])
			}
		}
	}
}
