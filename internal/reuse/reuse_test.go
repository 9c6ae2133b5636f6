package reuse

import (
	"sync"
	"testing"
)

func TestLoneCallerGetsItsItemBack(t *testing.T) {
	made := 0
	p := Pool[[]int]{New: func() *[]int { made++; return new([]int) }}
	first := p.Get()
	p.Put(first)
	for i := 0; i < 100; i++ {
		x := p.Get()
		if x != first {
			t.Fatalf("round %d: got a different item", i)
		}
		p.Put(x)
	}
	if made != 1 {
		t.Fatalf("made %d items, want 1", made)
	}
	var zero Pool[int]
	if zero.Get() == nil {
		t.Fatal("zero Pool returned nil")
	}
}

// Items checked out at the same time are distinct, whatever mix of the
// slot, the pool and New served them. Run under -race.
func TestConcurrentGetsAreDistinct(t *testing.T) {
	var p Pool[int]
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				x := p.Get()
				*x = c
				if *x != c {
					t.Errorf("item shared between clients")
				}
				p.Put(x)
			}
		}(c)
	}
	wg.Wait()
}
