package pdmdict

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// tokenAudit forwards every event to an accountant and counts the batch
// events that carry no operation token.
type tokenAudit struct {
	acct      *obs.OpAccountant
	untokened atomic.Int64
}

func (a *tokenAudit) Event(e pdm.Event) {
	a.acct.Event(e)
	if (e.Kind == pdm.EventRead || e.Kind == pdm.EventWrite) && e.Op == 0 && len(e.Ops) == 0 {
		a.untokened.Add(1)
	}
}

type minter interface {
	MintOp(client, keys int, tag string) OpCtx
}

// TestPublicEntryPointsMintTokens: every public Lookup*/Insert*/Delete*
// and Contains entry point is exactly one accounted operation. Under an
// OpAccountant each call must complete one op and issue no batch without
// a token, and a Ctx call must charge the caller's token. The entry
// points are found by reflection, so a new one is checked without
// touching this test; unattributed lists those that mint nothing by
// design, and each of them must complete no op.
func TestPublicEntryPointsMintTokens(t *testing.T) {
	// The baselines, Direct and Static stay on the legacy span path.
	unattributed := map[string]bool{
		"HashTable": true, "Cuckoo": true, "TwoLevel": true, "BTree": true,
		"Direct": true, "Static": true,
	}
	build := func(d Dictionary, err error) Dictionary {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	opts := Options{Capacity: 256, SatWords: 2, Seed: 3}
	var recs []Record
	for k := Word(1); k <= 32; k++ {
		recs = append(recs, Record{Key: k, Sat: []Word{k, k}})
	}
	inner := build(NewBasic(BasicOptions{Options: opts})).(*Basic)
	synced := Synchronized(inner)
	sd := build(NewScheduled(build(NewBasic(BasicOptions{Options: opts})), SchedOptions{MaxBatch: 1, Block: true})).(*Scheduled)
	defer sd.Close()
	dicts := []Dictionary{
		build(New(opts)),
		build(NewBasic(BasicOptions{Options: opts})),
		build(NewDynamic(opts)),
		build(NewOneProbe(OneProbeOptions{Options: opts})),
		sd,
		synced,
		build(NewHashTable(opts)),
		build(NewCuckoo(opts)),
		build(NewTwoLevel(opts)),
		build(NewBTree(BTreeOptions{Options: opts})),
		build(NewDirect(Options{Universe: 1024, SatWords: 2})),
		build(BuildStatic(StaticOptions{Options: opts}, recs)),
	}
	keys, sat := []Word{1, 2, 3, 5, 8}, []Word{7, 7}
	for _, d := range dicts {
		audit := &tokenAudit{acct: obs.NewOpAccountant()}
		d.SetHook(audit)
		m, _ := d.(minter)
		if d == Dictionary(synced) {
			m = inner
		}
		rv := reflect.ValueOf(d)
		typ := rv.Type().Elem().Name()
		for i := 0; i < rv.NumMethod(); i++ {
			name := rv.Type().Method(i).Name
			if name != "Contains" && !strings.HasPrefix(name, "Lookup") &&
				!strings.HasPrefix(name, "Insert") && !strings.HasPrefix(name, "Delete") {
				continue
			}
			batch := strings.Contains(name, "Batch")
			mt := rv.Method(i).Type()
			args := make([]reflect.Value, mt.NumIn())
			var c OpCtx
			for j := range args {
				switch p := mt.In(j); {
				case p == reflect.TypeOf(c):
					n := 1
					if batch {
						n = len(keys)
					}
					tag := map[byte]string{'C': pdm.TagLookup.String(), 'L': pdm.TagLookup.String(), 'I': pdm.TagInsert.String(), 'D': pdm.TagDelete.String()}[name[0]]
					c = m.MintOp(0, n, tag)
					args[j] = reflect.ValueOf(c)
				case p.Kind() == reflect.Uint64:
					args[j] = reflect.ValueOf(Word(i + 1))
				case p.Kind() == reflect.Int: // LookupClient's client
					args[j] = reflect.ValueOf(1)
				case p == reflect.TypeOf(keys) && batch:
					args[j] = reflect.ValueOf(keys)
				case p == reflect.TypeOf(sat):
					args[j] = reflect.ValueOf(sat)
				default:
					t.Fatalf("%s.%s: no argument for parameter %d (%v)", typ, name, j, p)
				}
			}
			want := int64(1)
			if unattributed[typ] || unattributed[typ+"."+name] {
				want = 0
			}
			before, _, _, _ := audit.acct.Totals()
			untokened := audit.untokened.Load()
			rv.Method(i).Call(args)
			after, _, _, _ := audit.acct.Totals()
			if after-before != want {
				t.Errorf("%s.%s completed %d accounted operations, want %d", typ, name, after-before, want)
			}
			if want == 1 && audit.untokened.Load() != untokened {
				t.Errorf("%s.%s issued %d batches with no operation token", typ, name, audit.untokened.Load()-untokened)
			}
			if c.Op != nil && c.Op.Steps() == 0 {
				t.Errorf("%s.%s did not charge the caller's token", typ, name)
			}
		}
		d.SetHook(nil)
	}
}

// TestSynchronizedScheduledKeepsTokens: a SyncDict over a Scheduled
// charges a batch to the caller's token, and mints exactly the scheduler
// tokens the Scheduled used directly would, so scheduler op IDs — which
// derive from per-client sequence numbers — do not drift.
func TestSynchronizedScheduledKeepsTokens(t *testing.T) {
	keys := []Word{1, 2, 3}
	newSched := func() *Scheduled {
		sd, err := NewScheduled(newSchedTestDict(t, "basic", 5, 64), SchedOptions{MaxBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sd.Close() })
		return sd
	}
	direct, wrapped := newSched(), newSched()
	synced := Synchronized(wrapped)

	c := wrapped.MintOp(0, len(keys), pdm.TagLookup.String())
	synced.LookupBatchCtx(c, keys)
	if c.Op.Steps() == 0 {
		t.Errorf("Synchronized(Scheduled).LookupBatchCtx did not charge the caller's token")
	}
	direct.MintOp(0, len(keys), pdm.TagLookup.String())
	for i := 0; i < 3; i++ {
		direct.LookupBatch(keys)
		synced.LookupBatch(keys)
	}
	want := direct.MintOp(0, 1, pdm.TagLookup.String()).Op.ID()
	if got := wrapped.MintOp(0, 1, pdm.TagLookup.String()).Op.ID(); got != want {
		t.Errorf("next scheduler token after the same calls: %#x through Synchronized, %#x direct", got, want)
	}
}

// TestMintedTokensAreDistinct: tokens minted concurrently for callers
// who keep them all are distinct tokens under distinct IDs, though they
// are carved from shared slabs. Run with -race: two minters handed the
// same token would race on its identity.
func TestMintedTokensAreDistinct(t *testing.T) {
	const clients, perClient = 4, 1000
	d, err := NewDynamic(Options{Capacity: 64, SatWords: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	minted := make([][]*pdm.Op, clients)
	var wg sync.WaitGroup
	for c := range minted {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := make([]*pdm.Op, perClient)
			for i := range ops {
				ops[i] = d.MintOp(c, 1, pdm.TagLookup.String()).Op
			}
			minted[c] = ops
		}(c)
	}
	wg.Wait()
	tokens := map[*pdm.Op]bool{}
	ids := map[uint64]bool{}
	for c, ops := range minted {
		for i, op := range ops {
			if tokens[op] {
				t.Fatalf("client %d's token %d was handed out twice", c, i)
			}
			if ids[op.ID()] {
				t.Fatalf("client %d's token %d repeats ID %#x", c, i, op.ID())
			}
			tokens[op], ids[op.ID()] = true, true
		}
	}
}
