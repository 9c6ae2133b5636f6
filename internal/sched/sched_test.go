package sched

import (
	"errors"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pdmdict/internal/pdm"
)

// gatedBackend wraps memBackend with a gate: InsertOp blocks until the
// gate opens, simulating a slow disk so writes pile up behind an
// in-flight flush.
type gatedBackend struct {
	*memBackend
	gate    chan struct{} // receive to proceed
	blocked atomic.Int64
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{memBackend: newMemBackend(), gate: make(chan struct{})}
}

func (b *gatedBackend) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	b.blocked.Add(1)
	<-b.gate
	b.blocked.Add(-1)
	return b.memBackend.InsertOp(op, x, sat)
}

func TestBackpressureBound(t *testing.T) {
	const depth = 4
	be := newGatedBackend()
	s := New(be, Config{MaxBatch: 1, QueueDepth: depth})

	// First write closes its window immediately (MaxBatch 1) and blocks
	// inside the gated backend: the scheduler is now mid-dispatch.
	first := make(chan error, 1)
	go func() { first <- s.InsertOp(nil, 1, []pdm.Word{1}) }()
	for be.blocked.Load() == 0 {
		runtime.Gosched() // until the dispatcher is inside the backend
	}

	// Fill the queue while the flush is stuck, then overfill it: the
	// queue must cap at depth and the excess must bounce.
	done := make(chan error, depth)
	for i := 0; i < depth; i++ {
		k := pdm.Word(10 + i)
		go func() { done <- s.InsertOp(nil, k, []pdm.Word{2}) }()
	}
	for {
		s.mu.Lock()
		n := len(s.writes)
		s.mu.Unlock()
		if n == depth {
			break
		}
		runtime.Gosched()
	}
	var overloaded int
	for i := 0; i < 3; i++ {
		if err := s.InsertOp(nil, pdm.Word(100+i), []pdm.Word{3}); errors.Is(err, ErrOverloaded) {
			overloaded++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if overloaded != 3 {
		t.Fatalf("%d of 3 over-depth writes bounced, want all", overloaded)
	}

	// Release the backend: everything queued must drain.
	close(be.gate)
	if err := <-first; err != nil {
		t.Fatalf("first write: %v", err)
	}
	for i := 0; i < depth; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued write: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.QueuePeak > depth {
		t.Fatalf("queue peak %d exceeds configured depth %d", snap.QueuePeak, depth)
	}
	if snap.Overloads != 3 {
		t.Fatalf("overloads %d, want 3", snap.Overloads)
	}
}

func TestBackpressureBlocking(t *testing.T) {
	const depth = 2
	be := newGatedBackend()
	s := New(be, Config{MaxBatch: 1, QueueDepth: depth, Block: true})

	first := make(chan error, 1)
	go func() { first <- s.InsertOp(nil, 1, []pdm.Word{1}) }()
	for be.blocked.Load() == 0 {
		runtime.Gosched()
	}
	const writers = 8
	done := make(chan error, writers)
	for i := 0; i < writers; i++ {
		k := pdm.Word(10 + i)
		go func() { done <- s.InsertOp(nil, k, []pdm.Word{2}) }()
	}
	close(be.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		if err := <-done; err != nil {
			t.Fatalf("blocking writer got %v, want nil", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Overloads != 0 {
		t.Fatalf("overloads %d in blocking mode, want 0", snap.Overloads)
	}
	if snap.QueuePeak > depth {
		t.Fatalf("queue peak %d exceeds depth %d", snap.QueuePeak, depth)
	}
	for i := 0; i < writers; i++ {
		if _, ok := be.m[pdm.Word(10+i)]; !ok {
			t.Fatalf("blocked writer %d's insert lost", i)
		}
	}
}

// TestFlushDrainsPartialWindow: a single lookup with MaxBatch 8 would
// wait forever in deterministic mode; Flush from another goroutine
// closes the partial window.
func TestFlushDrainsPartialWindow(t *testing.T) {
	be := newMemBackend()
	be.m[5] = []pdm.Word{50}
	s := New(be, Config{MaxBatch: 8})
	got := make(chan pdm.Word, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		sat, ok, err := s.LookupOp(nil, 5)
		if err != nil || !ok {
			t.Errorf("lookup: ok=%v err=%v", ok, err)
			got <- 0
			return
		}
		got <- sat[0]
	}()
	<-started
	for {
		s.mu.Lock()
		n := len(s.reads)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	s.Flush()
	if v := <-got; v != 50 {
		t.Fatalf("flushed lookup returned %d, want 50", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStepBudgetClosesWindow: the deterministic step clock closes a
// partial window once the injected counter advances past the budget.
func TestStepBudgetClosesWindow(t *testing.T) {
	be := newMemBackend()
	be.m[1] = []pdm.Word{10}
	be.m[2] = []pdm.Word{20}
	var clock atomic.Int64
	s := New(be, Config{MaxBatch: 8, StepBudget: 5, Steps: clock.Load})

	// First lookup opens the window at step 0 and waits.
	got := make(chan bool, 1)
	go func() {
		_, ok, _ := s.LookupOp(nil, 1)
		got <- ok
	}()
	for {
		s.mu.Lock()
		n := len(s.reads)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	// Advance the clock past the budget; the NEXT admission observes the
	// exhausted budget and dispatches both.
	clock.Store(6)
	if _, ok, err := s.LookupOp(nil, 2); err != nil || !ok {
		t.Fatalf("second lookup: ok=%v err=%v", ok, err)
	}
	if !<-got {
		t.Fatal("first lookup missed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.Rounds != 1 {
		t.Fatalf("rounds %d, want 1 (both lookups in the budget-closed window)", snap.Rounds)
	}
}

// TestServingModeTimer: an injected AfterFunc closes partial windows.
// The "timer" here is manual — the test fires it by hand, so no wall
// clock is involved.
func TestServingModeTimer(t *testing.T) {
	be := newMemBackend()
	be.m[9] = []pdm.Word{90}
	var mu sync.Mutex
	var pending []func()
	s := New(be, Config{
		MaxBatch: 8,
		AfterFunc: func(fire func()) (stop func()) {
			mu.Lock()
			pending = append(pending, fire)
			mu.Unlock()
			return func() {}
		},
	})
	got := make(chan bool, 1)
	go func() {
		_, ok, _ := s.LookupOp(nil, 9)
		got <- ok
	}()
	for {
		mu.Lock()
		n := len(pending)
		mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	mu.Lock()
	fire := pending[0]
	mu.Unlock()
	fire()
	if !<-got {
		t.Fatal("timer-closed lookup missed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMintOpDeterminism: token IDs depend only on (client, per-client
// sequence), never on interleaving.
func TestMintOpDeterminism(t *testing.T) {
	mint := func() map[uint64]bool {
		s := New(newMemBackend(), Config{})
		ids := make(chan uint64, 40)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					ids <- s.MintOp(c, 1).ID()
				}
			}(c)
		}
		wg.Wait()
		close(ids)
		set := make(map[uint64]bool)
		for id := range ids {
			if set[id] {
				t.Fatalf("duplicate token id %x", id)
			}
			set[id] = true
		}
		return set
	}
	a, b := mint(), mint()
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("minted %d and %d ids, want 40", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("id %x minted in run 1 but not run 2", id)
		}
	}
}

// TestClosedScheduler: submissions after Close fail typed.
func TestClosedScheduler(t *testing.T) {
	s := New(newMemBackend(), Config{MaxBatch: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LookupOp(nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("lookup after close: %v, want ErrClosed", err)
	}
	if err := s.InsertOp(nil, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v, want ErrClosed", err)
	}
}

// fixedBackend answers every lookup with one stored satellite and
// applies writes to nothing: it allocates nothing, so whatever a round
// trip allocates is the scheduler's own.
type fixedBackend struct{ sat []pdm.Word }

func (b *fixedBackend) LookupBatchInto(_ *pdm.Op, _ []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	for i := range keys {
		sats[i], oks[i] = b.sat, true
	}
}

func (b *fixedBackend) InsertOp(*pdm.Op, pdm.Word, []pdm.Word) error { return nil }
func (b *fixedBackend) DeleteOp(*pdm.Op, pdm.Word) bool              { return true }

// TestRoundTripAllocatesNothing: requests, queues and the round's
// buffers are recycled, so a warm scheduled operation with a pre-minted
// token and a logged group commit allocates nothing of its own.
func TestRoundTripAllocatesNothing(t *testing.T) {
	s := New(&fixedBackend{sat: []pdm.Word{1, 2}}, Config{MaxBatch: 1, Log: NewIntentLog(io.Discard)})
	defer s.Close()
	op := s.MintOp(3, 1)
	sat := []pdm.Word{4, 5}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"LookupOp", func() {
			if got, ok, err := s.LookupOp(op, 7); !ok || err != nil || !slices.Equal(got, []pdm.Word{1, 2}) {
				t.Fatal(got, ok, err)
			}
		}},
		{"InsertOp", func() {
			if err := s.InsertOp(op, 7, sat); err != nil {
				t.Fatal(err)
			}
		}},
		{"DeleteOp", func() {
			if present, err := s.DeleteOp(op, 7); !present || err != nil {
				t.Fatal(present, err)
			}
		}},
	} {
		c.run() // warm the pools, the queues and the round's buffers
		if n := testing.AllocsPerRun(200, c.run); n != 0 {
			t.Errorf("%s: %v allocs per warm round trip, want 0", c.name, n)
		}
	}
}

// TestRecycledRequestsNeverCrossTalk: clients interleave lookups,
// inserts and deletes of keys only they own, while a flusher closes
// partial windows and a Close races the tail. Every answer must match
// the client's own oracle, so a recycled request that carried another
// client's result, or was signalled twice, shows; every submission
// after Close must get ErrClosed. Run under -race -count=20.
func TestRecycledRequestsNeverCrossTalk(t *testing.T) {
	const clients, opsEach = 8, 400
	s := New(newMemBackend(), Config{MaxBatch: 3, QueueDepth: 4, Block: true, Log: NewIntentLog(io.Discard)})
	var done atomic.Int64
	var closed atomic.Bool
	tail := make(chan struct{})
	var tailOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 37))
			oracle := make(map[pdm.Word][]pdm.Word)
			for i := 0; i < opsEach; i++ {
				if done.Add(1) == clients*opsEach*3/4 {
					tailOnce.Do(func() { close(tail) })
				}
				k := pdm.Word(c)<<32 | pdm.Word(rng.IntN(6))
				after := closed.Load()
				var err error
				switch rng.IntN(3) {
				case 0:
					var sat []pdm.Word
					var ok bool
					sat, ok, err = s.LookupOp(s.MintOp(c, 1), k)
					if want, stored := oracle[k]; err == nil && (ok != stored || !slices.Equal(sat, want)) {
						t.Errorf("client %d: lookup %x = %v, %v; want %v, %v", c, k, sat, ok, want, stored)
					}
				case 1:
					sat := []pdm.Word{k, pdm.Word(i), pdm.Word(c)}
					if err = s.InsertOp(s.MintOp(c, 1), k, sat); err == nil {
						oracle[k] = sat
					}
				case 2:
					var present bool
					if present, err = s.DeleteOp(s.MintOp(c, 1), k); err == nil {
						if _, stored := oracle[k]; present != stored {
							t.Errorf("client %d: delete %x present=%v, want %v", c, k, present, stored)
						}
						delete(oracle, k)
					}
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("client %d: %v", c, err)
				}
				if after && !errors.Is(err, ErrClosed) {
					t.Errorf("client %d: submission after Close returned %v, want ErrClosed", c, err)
				}
			}
		}(c)
	}
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				s.Flush()
				runtime.Gosched()
			}
		}
	}()
	<-tail
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	wg.Wait()
	close(stop)
	<-flushed
	if snap := s.Snapshot(); snap.QueueDepth != 0 || snap.PendingReads != 0 {
		t.Fatalf("closed scheduler still holds %d writes and %d reads", snap.QueueDepth, snap.PendingReads)
	}
}
