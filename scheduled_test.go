package pdmdict

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// newSchedTestDict builds one dictionary of the named kind, loaded with
// n keys (key k → satellite {k*3, k^7}), all derived from seed.
func newSchedTestDict(t *testing.T, kind string, seed int64, n int) Dictionary {
	t.Helper()
	opts := Options{Capacity: n * 2, SatWords: 2, Seed: uint64(seed)}
	var d Dictionary
	var err error
	switch kind {
	case "basic":
		d, err = NewBasic(BasicOptions{Options: opts})
	case "dynamic":
		d, err = NewDynamic(opts)
	case "oneprobe":
		d, err = NewOneProbe(OneProbeOptions{Options: opts})
	case "dict":
		d, err = New(opts)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatalf("build %s: %v", kind, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := Word(rng.Uint64()%100_000 + 1)
		if err := d.Insert(k, []Word{k * 3, k ^ 7}); err != nil {
			t.Fatalf("load %s: %v", kind, err)
		}
	}
	return d
}

// schedWorkload gives client c its deterministic key sequence: a mix of
// present and absent keys drawn from the same universe the loader used.
func schedWorkload(seed int64, client, rounds int) []Word {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	keys := make([]Word, rounds)
	for r := range keys {
		keys[r] = Word(rng.Uint64()%120_000 + 1)
	}
	return keys
}

// TestScheduledEquivalence: answers through the scheduler are byte-equal
// to direct lookups, across 3 structures × 3 seeds × 8 lockstep
// concurrent clients. Clients self-synchronize: each blocks on its
// in-flight request, so every admission window holds exactly one op per
// client and closes at MaxBatch.
func TestScheduledEquivalence(t *testing.T) {
	const clients, rounds, n = 8, 24, 400
	for _, kind := range []string{"basic", "dynamic", "oneprobe"} {
		for _, seed := range []int64{1, 42, 9001} {
			direct := newSchedTestDict(t, kind, seed, n)
			backing := newSchedTestDict(t, kind, seed, n)
			sd, err := NewScheduled(backing, SchedOptions{MaxBatch: clients})
			if err != nil {
				t.Fatalf("%s/%d: NewScheduled: %v", kind, seed, err)
			}
			sats := make([][][]Word, clients)
			oks := make([][]bool, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				sats[c] = make([][]Word, rounds)
				oks[c] = make([]bool, rounds)
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					keys := schedWorkload(seed, c, rounds)
					for r, k := range keys {
						sats[c][r], oks[c][r] = sd.LookupClient(c, k)
					}
				}(c)
			}
			wg.Wait()
			if err := sd.Close(); err != nil {
				t.Fatalf("%s/%d: Close: %v", kind, seed, err)
			}
			// Also exercise the batch path once for parity.
			batchKeys := schedWorkload(seed, 99, rounds)
			bSats, bOks := sd.LookupBatch(batchKeys)
			wantSats, wantOks := direct.(BatchLookuper).LookupBatch(batchKeys)
			for i := range batchKeys {
				if bOks[i] != wantOks[i] || !wordsEqual(bSats[i], wantSats[i]) {
					t.Fatalf("%s/%d: batch key %d diverged", kind, seed, batchKeys[i])
				}
			}
			for c := 0; c < clients; c++ {
				keys := schedWorkload(seed, c, rounds)
				for r, k := range keys {
					wantSat, wantOk := direct.Lookup(k)
					if oks[c][r] != wantOk || !wordsEqual(sats[c][r], wantSat) {
						t.Fatalf("%s seed %d client %d round %d key %d: scheduled (%v,%v) direct (%v,%v)",
							kind, seed, c, r, k, sats[c][r], oks[c][r], wantSat, wantOk)
					}
				}
			}
			snap := sd.Snapshot()
			if snap.Lookups != clients*rounds {
				t.Fatalf("%s/%d: %d lookups admitted, want %d", kind, seed, snap.Lookups, clients*rounds)
			}
			if snap.Rounds != rounds {
				t.Fatalf("%s/%d: %d shared rounds, want %d (full windows of %d)", kind, seed, snap.Rounds, rounds, clients)
			}
			if snap.RoundsSaved != int64((clients-1)*rounds) {
				t.Fatalf("%s/%d: rounds saved %d, want %d", kind, seed, snap.RoundsSaved, (clients-1)*rounds)
			}
		}
	}
}

func wordsEqual(a, b []Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chargeHook records batch events and forwards everything to an
// accountant, so a test can compare the machine's own charges with the
// per-op charges.
type chargeHook struct {
	acct *obs.OpAccountant
	mu   sync.Mutex
	evs  []pdm.Event // guarded by mu; Addrs not retained
}

func (h *chargeHook) Event(e pdm.Event) {
	h.acct.Event(e)
	if e.Kind == pdm.EventRead || e.Kind == pdm.EventWrite {
		h.mu.Lock()
		c := e
		c.Addrs = nil
		c.Ops = append([]uint64(nil), e.Ops...)
		h.evs = append(h.evs, c)
		h.mu.Unlock()
	}
}

// TestScheduledChargeExactness: with merged rounds, (1) the machine is
// charged each shared round ONCE — its step delta equals the sum of
// distinct event charges; (2) every participant is charged its round in
// full — the accountant's per-op total equals Σ over events of
// steps × participants; (3) ops accounted equals ops submitted.
func TestScheduledChargeExactness(t *testing.T) {
	const clients, rounds, n = 8, 30, 400
	backing := newSchedTestDict(t, "basic", 7, n).(*Basic)
	sd, err := NewScheduled(backing, SchedOptions{MaxBatch: clients})
	if err != nil {
		t.Fatal(err)
	}
	h := &chargeHook{acct: obs.NewOpAccountant()}
	sd.SetHook(h)
	before := sd.IOStats().ParallelIOs

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, k := range schedWorkload(7, c, rounds) {
				sd.LookupClient(c, k)
			}
		}(c)
	}
	wg.Wait()
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	sd.SetHook(nil)
	machineDelta := sd.IOStats().ParallelIOs - before

	var distinct, perOp int64
	h.mu.Lock()
	for _, e := range h.evs {
		distinct += int64(e.Steps)
		participants := int64(len(e.Ops))
		if e.Op != 0 {
			participants++
		}
		perOp += int64(e.Steps) * participants
	}
	h.mu.Unlock()
	if distinct != machineDelta {
		t.Fatalf("machine charged %d steps, events sum to %d", machineDelta, distinct)
	}
	ops, steps, _, _ := h.acct.Totals()
	if ops != clients*rounds {
		t.Fatalf("ops_accounted = %d, ops submitted = %d", ops, clients*rounds)
	}
	if steps != perOp {
		t.Fatalf("accountant per-op steps %d, want Σ steps×participants = %d", steps, perOp)
	}
	if perOp != machineDelta*int64(clients) {
		// Every window is full (8 lockstep clients), so every round is
		// charged to exactly 8 participants.
		t.Fatalf("per-op total %d, want machine %d × %d clients", perOp, machineDelta, clients)
	}
}

// TestScheduledTraceByteIdentity: deterministic mode produces
// byte-identical traces across two runs of the same seed — scheduler
// token IDs are a function of (client, per-client sequence) and the
// dispatcher canonicalizes batch order, so cross-client races never
// reach the trace.
func TestScheduledTraceByteIdentity(t *testing.T) {
	run := func() []byte {
		const clients, rounds, n = 8, 16, 300
		backing := newSchedTestDict(t, "basic", 11, n).(*Basic)
		sd, err := NewScheduled(backing, SchedOptions{MaxBatch: clients})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		sd.SetHook(jw)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				keys := schedWorkload(11, c, rounds)
				for r, k := range keys {
					if r%5 == 4 {
						sd.InsertCtx(sd.MintOp(c, 1, pdm.TagInsert.String()), k, []Word{k, Word(c)})
					} else {
						sd.LookupClient(c, k)
					}
				}
			}(c)
		}
		wg.Wait()
		if err := sd.Close(); err != nil {
			t.Fatal(err)
		}
		sd.SetHook(nil)
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traces differ between identical runs: %d vs %d bytes", len(a), len(b))
	}
}

// TestScheduledWritePath: inserts and deletes through the scheduler
// land, block until applied, and group-commit to the intent log.
func TestScheduledWritePath(t *testing.T) {
	const n = 200
	backing := newSchedTestDict(t, "dict", 3, n)
	var logBuf bytes.Buffer
	sd, err := NewScheduled(backing, SchedOptions{MaxBatch: 4, IntentLog: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := Word(1_000_000 + c*1000)
			for i := Word(0); i < 25; i++ {
				if err := sd.Insert(base+i, []Word{i, i}); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		base := Word(1_000_000 + c*1000)
		for i := Word(0); i < 25; i++ {
			if _, ok := backing.Lookup(base + i); !ok {
				t.Fatalf("client %d key %d not applied", c, base+i)
			}
		}
	}
	if logBuf.Len() == 0 {
		t.Fatal("intent log empty after committed writes")
	}
	snap := sd.Snapshot()
	if snap.Writes != 100 {
		t.Fatalf("writes admitted %d, want 100", snap.Writes)
	}
	if snap.Flushes == 0 || snap.Flushes > 100 {
		t.Fatalf("flushes %d out of range", snap.Flushes)
	}
}

// TestScheduledAddsNoAllocations: at MaxBatch 1 with a pre-minted token
// and an intent log, a scheduled operation allocates exactly what the
// wrapped structure's own Ctx call does — the scheduler's round trip
// adds nothing.
func TestScheduledAddsNoAllocations(t *testing.T) {
	for _, kind := range []string{"dynamic", "dict"} {
		d := newSchedTestDict(t, kind, 5, 200)
		direct := d.(interface{ asFront() *front }).asFront()
		sd, err := NewScheduled(d, SchedOptions{MaxBatch: 1, IntentLog: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		hit := Word(rand.New(rand.NewSource(5)).Uint64()%100_000 + 1) // the loader's first key
		const miss = Word(1 << 40)
		sat := []Word{hit * 3, hit ^ 7}
		dc, sc := direct.MintOp(0, 1, pdm.TagLookup.String()), sd.MintOp(0, 1, pdm.TagLookup.String())
		lookup := func(name string, look func(OpCtx, Word) ([]Word, bool), c OpCtx, k Word, want bool) func() {
			return func() {
				if got, ok := look(c, k); ok != want || ok && !wordsEqual(got, sat) {
					t.Fatalf("%s %s(%d) = %v, %v", kind, name, k, got, ok)
				}
			}
		}
		insert := func(ins func(OpCtx, Word, []Word) error, c OpCtx) func() {
			return func() {
				if err := ins(c, hit, sat); err != nil {
					t.Fatal(err)
				}
			}
		}
		schedDelete := func(c OpCtx, k Word) bool {
			present, err := sd.DeleteCtx(c, k)
			if err != nil {
				t.Fatal(err)
			}
			return present
		}
		delInsert := func(del func(OpCtx, Word) bool, ins func(OpCtx, Word, []Word) error, c OpCtx) func() {
			return func() {
				if !del(c, hit) {
					t.Fatalf("%s: stored key not deleted", kind)
				}
				insert(ins, c)()
			}
		}
		for _, tc := range []struct {
			name          string
			direct, sched func()
		}{
			{"LookupCtx hit", lookup("LookupCtx", direct.LookupCtx, dc, hit, true), lookup("LookupCtx", sd.LookupCtx, sc, hit, true)},
			{"LookupCtx miss", lookup("LookupCtx", direct.LookupCtx, dc, miss, false), lookup("LookupCtx", sd.LookupCtx, sc, miss, false)},
			{"InsertCtx", insert(direct.InsertCtx, dc), insert(sd.InsertCtx, sc)},
			{"DeleteCtx+InsertCtx", delInsert(direct.DeleteCtx, direct.InsertCtx, dc), delInsert(schedDelete, sd.InsertCtx, sc)},
		} {
			tc.direct()
			tc.sched()
			want := testing.AllocsPerRun(100, tc.direct)
			if got := testing.AllocsPerRun(100, tc.sched); got != want {
				t.Errorf("%s %s: scheduled %v allocs, direct %v", kind, tc.name, got, want)
			}
		}
		if err := sd.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
