package pdmdict

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// TestScheduledLookupAfterClose: Close shuts the scheduler, not the
// dictionary, so a lookup after it answers from the wrapped dictionary
// instead of reporting a stored key absent.
func TestScheduledLookupAfterClose(t *testing.T) {
	b, err := NewBasic(BasicOptions{Options: Options{Capacity: 64, SatWords: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(7, []Word{70, 71}); err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduled(b, SchedOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if sat, ok := s.Lookup(7); !ok || !wordsEqual(sat, []Word{70, 71}) {
		t.Errorf("Lookup(7) after Close = %v, %v; want [70 71], true", sat, ok)
	}
	if sat, ok := s.LookupClient(3, 7); !ok || !wordsEqual(sat, []Word{70, 71}) {
		t.Errorf("LookupClient(3, 7) after Close = %v, %v; want [70 71], true", sat, ok)
	}
	if !s.Contains(7) {
		t.Error("Contains(7) after Close = false; the wrapped dictionary holds it")
	}
	if s.Contains(8) {
		t.Error("Contains(8) after Close = true for an absent key")
	}
	c := s.MintOp(0, 1, pdm.TagLookup.String())
	if _, ok := s.LookupCtx(c, 7); !ok || c.Op.Steps() == 0 {
		t.Errorf("LookupCtx after Close: found %v, charged %d steps; want found and charged", ok, c.Op.Steps())
	}
	if err := s.Insert(9, []Word{1, 2}); err != ErrSchedClosed {
		t.Errorf("Insert after Close: %v, want ErrSchedClosed", err)
	}
}

// pinAllocs fails when a warm call of fn allocates more than want
// objects: the median of single calls, since a scratch sync.Pool may
// hand back a cold item after a collection and under the race detector
// drops a quarter of its puts.
func pinAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	runs := make([]float64, 51)
	for i := range runs {
		runs[i] = testing.AllocsPerRun(1, fn)
	}
	sort.Float64s(runs)
	if got := runs[len(runs)/2]; got > want {
		t.Errorf("%s allocates %.0f objects per warm call, want at most %.0f", name, got, want)
	}
}

// TestAllocationPins pins what the public entry points allocate once
// warm. A plain call's token is recycled when it returns, so a lookup
// allocates its answer and nothing else (a miss: nothing), a batch its
// two result slices and one array all hits' answers share, an update
// nothing, not even a satellite its caller built on the stack, a lookup
// under a caller-minted token what the plain one does, and a scheduled
// lookup what the direct one does.
func TestAllocationPins(t *testing.T) {
	const n = 256
	opts := Options{Capacity: 2 * n, SatWords: 2, Seed: 4}
	basic, err := NewBasic(BasicOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := NewDynamic(opts)
	if err != nil {
		t.Fatal(err)
	}
	dict, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	oneprobe, err := NewOneProbe(OneProbeOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Word, 64)
	for k := Word(1); k <= n; k++ {
		for _, d := range []Dictionary{basic, dynamic, dict, oneprobe} {
			if err := d.Insert(k, []Word{k, k + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if k <= Word(len(keys)) {
			keys[k-1] = k
		}
	}
	// A 64-key batch reads more blocks than a machine fans out inline:
	// one worker keeps it on the calling goroutine, whose count does
	// not follow GOMAXPROCS.
	basic.Machine().SetParallelism(1)
	dynamic.Machine().SetParallelism(1)
	const absent = Word(1 << 40)
	// A key one probe round answers, so the Dynamic rows cost the same
	// wherever the key landed.
	hit := Word(0)
	for _, k := range keys {
		before := dynamic.IOStats().ParallelIOs
		dynamic.Lookup(k)
		if dynamic.IOStats().ParallelIOs-before == 1 {
			hit = k
			break
		}
	}
	if hit == 0 {
		t.Fatal("no key answered in one round")
	}
	sat := []Word{hit, hit + 1}
	sched, err := NewScheduled(dynamic, SchedOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	synced := Synchronized(dynamic)

	for _, d := range []struct {
		name string
		d    interface {
			Dictionary
			BatchLookuper
		}
		batch float64
	}{
		{"Basic", basic, 3},
		{"Dynamic", dynamic, 3},
		{"Dict", dict, 3},
	} {
		pinAllocs(t, d.name+".Lookup hit", 1, func() {
			if _, ok := d.d.Lookup(hit); !ok {
				t.Fatal("stored key not found")
			}
		})
		pinAllocs(t, d.name+".Lookup miss", 0, func() {
			if _, ok := d.d.Lookup(absent); ok {
				t.Fatal("absent key found")
			}
		})
		pinAllocs(t, d.name+".LookupBatch×64", d.batch, func() {
			if _, oks := d.d.LookupBatch(keys); !oks[0] || !oks[63] {
				t.Fatal("stored keys not found")
			}
		})
		pinAllocs(t, d.name+".Insert existing", 0, func() {
			if err := d.d.Insert(hit, sat); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The concrete types, called directly with the satellite in an array
	// local to the call: the insert path takes no interface hop the
	// compiler cannot see through, so the array stays on the stack. (A
	// call through an interface or a func value moves it to the heap.)
	for _, u := range []struct {
		name string
		fn   func() error
	}{
		{"Basic", func() error { s := [2]Word{hit, hit + 1}; return basic.Insert(hit, s[:]) }},
		{"Dynamic", func() error { s := [2]Word{hit, hit + 1}; return dynamic.Insert(hit, s[:]) }},
		{"OneProbe", func() error { s := [2]Word{hit, hit + 1}; return oneprobe.Insert(hit, s[:]) }},
		{"Dict", func() error { s := [2]Word{hit, hit + 1}; return dict.Insert(hit, s[:]) }},
		{"Synchronized(Dynamic)", func() error { s := [2]Word{hit, hit + 1}; return synced.Insert(hit, s[:]) }},
	} {
		pinAllocs(t, u.name+".Insert existing, stack satellite", 0, func() {
			if err := u.fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A token minted for the caller is kept, not recycled, but it is
	// carved from a shared slab: the median call allocates what the plain
	// call does, and the slab refill every 85th mint does not show.
	for _, d := range []struct {
		name string
		d    interface {
			MintOp(client, keys int, tag string) OpCtx
			LookupCtx(c OpCtx, key Word) ([]Word, bool)
		}
	}{
		{"Dynamic", dynamic},
		{"Dict", dict},
	} {
		pinAllocs(t, d.name+".LookupCtx(MintOp) hit", 1, func() {
			if _, ok := d.d.LookupCtx(d.d.MintOp(1, 1, pdm.TagLookup.String()), hit); !ok {
				t.Fatal("stored key not found")
			}
		})
		pinAllocs(t, d.name+".LookupCtx(MintOp) miss", 0, func() {
			if _, ok := d.d.LookupCtx(d.d.MintOp(1, 1, pdm.TagLookup.String()), absent); ok {
				t.Fatal("absent key found")
			}
		})
	}
	pinAllocs(t, "Basic.LookupTry hit", 1, func() {
		if _, ok, err := basic.LookupTry(hit); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	pinAllocs(t, "Scheduled.LookupClient hit", 1, func() {
		if _, ok := sched.LookupClient(2, hit); !ok {
			t.Fatal("stored key not found")
		}
	})
}

// tokenWindows is a hook that checks every event naming an operation
// falls inside that operation's root span: nothing is charged to an op
// before its call opened it or after its call closed it. Token IDs are
// never reissued, so a recycled token charged by a call that had
// already returned shows as an event outside its ID's window.
type tokenWindows struct {
	t     *testing.T
	mu    sync.Mutex
	depth map[uint64]int  // open spans per op
	done  map[uint64]bool // ops whose root span has closed
}

func newTokenWindows(t *testing.T) *tokenWindows {
	return &tokenWindows{t: t, depth: map[uint64]int{}, done: map[uint64]bool{}}
}

func (w *tokenWindows) Event(e pdm.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	check := func(op uint64) {
		switch {
		case w.done[op]:
			w.t.Errorf("%v event %q charged to op %#x after its call returned", e.Kind, e.Tag, op)
		case w.depth[op] == 0 && e.Kind != pdm.EventSpanBegin:
			w.t.Errorf("%v event %q charged to op %#x outside any span of it", e.Kind, e.Tag, op)
		}
	}
	if e.Op != 0 {
		check(e.Op)
	}
	for _, op := range e.Ops {
		check(op)
	}
	switch e.Kind {
	case pdm.EventSpanBegin:
		w.depth[e.Op]++
	case pdm.EventSpanEnd:
		if w.depth[e.Op]--; w.depth[e.Op] == 0 {
			delete(w.depth, e.Op)
			w.done[e.Op] = true
		}
	}
}

// eventLog keeps a copy of every event, for FoldSpans.
type eventLog struct {
	mu     sync.Mutex
	events []pdm.Event
}

func (l *eventLog) Event(e pdm.Event) {
	cp := e
	cp.Addrs = append([]pdm.Addr(nil), e.Addrs...)
	cp.Ops = append([]uint64(nil), e.Ops...)
	l.mu.Lock()
	l.events = append(l.events, cp)
	l.mu.Unlock()
}

// auditedChain is the hook chain fskv installs with -trace — watchdog
// over collector, ring, accountant and a JSONL sink — with a token
// window check and an event log beside it.
type auditedChain struct {
	hook    pdm.Hook
	acct    *obs.OpAccountant
	log     *eventLog
	windows *tokenWindows
}

func newAuditedChain(t *testing.T) *auditedChain {
	c := &auditedChain{acct: obs.NewOpAccountant(), log: &eventLog{}, windows: newTokenWindows(t)}
	c.acct.RecorderSize = 1 << 14 // retain every op's record
	c.hook = obs.NewMonitor(obs.Tee(
		obs.NewCollector(),
		obs.NewRing(256),
		c.acct,
		obs.NewJSONLWriter(io.Discard),
		c.windows,
		c.log,
	), obs.DefaultRules()...)
	return c
}

// agree checks that the accountant recorded n operations, each equal
// field for field to FoldSpans' root record of the same op.
func (c *auditedChain) agree(t *testing.T, name string, n int) {
	t.Helper()
	folded := map[uint64]obs.OpRecord{}
	for _, r := range obs.FoldSpans(c.log.events, obs.CostModel{}) {
		if r.Parent == 0 && r.Op != 0 {
			folded[r.Op] = r
		}
	}
	records, total := c.acct.Recorded()
	if total != int64(n) || len(records) != n || len(folded) != n {
		t.Fatalf("%s: accountant recorded %d (%d retained), FoldSpans %d roots; want %d calls",
			name, total, len(records), len(folded), n)
	}
	for _, fr := range records {
		want, ok := folded[fr.Op]
		if !ok {
			t.Fatalf("%s: accountant op %#x missing from FoldSpans output", name, fr.Op)
		}
		if fr.OpRecord != want {
			t.Errorf("%s: op %#x diverges:\n  online  %+v\n  offline %+v", name, fr.Op, fr.OpRecord, want)
		}
	}
}

// TestRecycledTokensStayWithTheirCall runs 8 Scheduled clients and 4
// Synchronized(Dynamic) clients through the plain entry points, whose
// tokens are recycled as each call returns, under the full hook chain.
// Every call must be one accounted op that the accountant and FoldSpans
// agree on, and no event may name an op outside its own call. Run with
// -race: a recycled token charged after its release is a data race on
// its reset.
func TestRecycledTokensStayWithTheirCall(t *testing.T) {
	const perClient = 60
	opts := Options{Capacity: 4096, SatWords: 2, Seed: 9}
	load := func(d Dictionary) {
		for k := Word(1); k <= 512; k++ {
			if err := d.Insert(k, []Word{k, ^k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(clients int, client func(c int, rng *rand.Rand) int) int {
		var wg sync.WaitGroup
		calls := make([]int, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				calls[c] = client(c, rand.New(rand.NewSource(int64(c)+1)))
			}(c)
		}
		wg.Wait()
		n := 0
		for _, k := range calls {
			n += k
		}
		return n
	}
	check := func(sat []Word, ok bool, k Word) {
		if ok && !wordsEqual(sat, []Word{k, ^k}) {
			t.Errorf("key %d answered %v", k, sat)
		}
	}

	schedDyn, err := NewDynamic(opts)
	if err != nil {
		t.Fatal(err)
	}
	load(schedDyn)
	syncDyn, err := NewDynamic(opts)
	if err != nil {
		t.Fatal(err)
	}
	load(syncDyn)
	schedChain, syncChain := newAuditedChain(t), newAuditedChain(t)
	schedDyn.SetHook(schedChain.hook)
	sd, err := NewScheduled(schedDyn, SchedOptions{MaxBatch: 8, Window: 200 * time.Microsecond, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	synced := Synchronized(syncDyn)
	synced.SetHook(syncChain.hook)

	var schedCalls, syncCalls int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		schedCalls = run(8, func(c int, rng *rand.Rand) int {
			for i := 0; i < perClient; i++ {
				k := Word(rng.Intn(1024) + 1)
				switch p := rng.Intn(20); {
				case p == 0:
					if err := sd.Insert(k, []Word{k, ^k}); err != nil {
						t.Errorf("scheduled insert %d: %v", k, err)
					}
				case p == 1:
					sd.Delete(k + 2048) // absent: the loaded keys stay
				case p == 2:
					sats, oks := sd.LookupBatch([]Word{k, k + 1, k + 2})
					check(sats[0], oks[0], k)
				case p == 3:
					sd.Contains(k)
				default:
					sat, ok := sd.LookupClient(c, k)
					check(sat, ok, k)
				}
			}
			return perClient
		})
		sd.Close()
	}()
	go func() {
		defer wg.Done()
		syncCalls = run(4, func(c int, rng *rand.Rand) int {
			for i := 0; i < perClient; i++ {
				k := Word(rng.Intn(1024) + 1)
				switch p := rng.Intn(10); {
				case p == 0:
					if err := synced.Insert(k, []Word{k, ^k}); err != nil {
						t.Errorf("synchronized insert %d: %v", k, err)
					}
				case p == 1:
					synced.Delete(k + 2048)
				case p == 2:
					sats, oks := synced.LookupBatch([]Word{k, k + 3})
					check(sats[0], oks[0], k)
				default:
					sat, ok := synced.Lookup(k)
					check(sat, ok, k)
				}
			}
			return perClient
		})
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, c := range []struct {
		name  string
		chain *auditedChain
		n     int
	}{
		{"Scheduled(Dynamic)", schedChain, schedCalls},
		{"Synchronized(Dynamic)", syncChain, syncCalls},
	} {
		c.chain.agree(t, fmt.Sprintf("%s, %d calls", c.name, c.n), c.n)
		if open := len(c.chain.windows.depth); open != 0 {
			t.Errorf("%s: %d ops still have an open span", c.name, open)
		}
	}
}
