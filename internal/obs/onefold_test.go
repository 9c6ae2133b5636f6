package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdmdict/internal/pdm"
)

// foldStream returns a Seq-less stream of n rounds covering every event
// shape the fold handles: a token insert with a nested probe phase and
// a fault stall and a fault marker inside it (every third one stalls
// long enough to miss the default burn target); two token lookups
// answered by one merged batch that carries both in its Ops list; a
// token-less scan charged through the span parent chain; and a health
// annotation.
func foldStream(n int) []pdm.Event {
	var (
		out  []pdm.Event
		step int64
		span uint64
		op   uint64
	)
	addrs := func(k int) []pdm.Addr {
		a := make([]pdm.Addr, k)
		for i := range a {
			a[i] = pdm.Addr{Disk: (len(out) + i) % 8, Block: len(out)}
		}
		return a
	}
	for i := 0; i < n; i++ {
		op, span = op+1, span+2
		ins, probe, client := span-1, span, i%3
		stall := 1 + 20*(i%3/2)
		out = append(out,
			pdm.Event{Kind: pdm.EventSpanBegin, Tag: "insert", Span: ins, Op: op, Client: client, Keys: 1, Step: step},
			pdm.Event{Kind: pdm.EventSpanBegin, Tag: "insert.probe", Span: probe, Parent: ins, Op: op, Client: client, Step: step},
			pdm.Event{Kind: pdm.EventRead, Tag: "insert.probe", Span: probe, Op: op, Client: client, Steps: 1, Depth: 1, Addrs: addrs(4)},
			pdm.Event{Kind: pdm.EventRead, Tag: "fault.stall", Span: probe, Op: op, Client: client, Steps: stall, Addrs: addrs(1)},
			pdm.Event{Kind: pdm.EventRead, Tag: "fault.transient", Span: probe, Op: op, Client: client, Addrs: addrs(1)})
		step += int64(1 + stall)
		out = append(out,
			pdm.Event{Kind: pdm.EventSpanEnd, Tag: "insert.probe", Span: probe, Parent: ins, Op: op, Client: client, Step: step},
			pdm.Event{Kind: pdm.EventWrite, Tag: "insert", Span: ins, Op: op, Client: client, Steps: 1, Depth: 1, Addrs: addrs(2)})
		step++
		out = append(out, pdm.Event{Kind: pdm.EventSpanEnd, Tag: "insert", Span: ins, Op: op, Client: client, Step: step})

		a, b := op+1, op+2
		op, span = op+2, span+2
		out = append(out,
			pdm.Event{Kind: pdm.EventSpanBegin, Tag: "lookup", Span: span - 1, Op: a, Client: (i + 1) % 3, Keys: 1, Step: step},
			pdm.Event{Kind: pdm.EventSpanBegin, Tag: "lookup", Span: span, Op: b, Client: (i + 2) % 3, Keys: 1, Step: step},
			pdm.Event{Kind: pdm.EventRead, Tag: "lookup", Ops: []uint64{a, b}, Steps: 2, Depth: 2, Addrs: addrs(6)})
		step += 2
		out = append(out,
			pdm.Event{Kind: pdm.EventSpanEnd, Tag: "lookup", Span: span, Op: b, Client: (i + 2) % 3, Step: step},
			pdm.Event{Kind: pdm.EventSpanEnd, Tag: "lookup", Span: span - 1, Op: a, Client: (i + 1) % 3, Step: step})

		span++
		out = append(out,
			pdm.Event{Kind: pdm.EventSpanBegin, Tag: "scan", Span: span, Step: step},
			pdm.Event{Kind: pdm.EventRead, Tag: "scan", Span: span, Steps: 1, Depth: 1, Addrs: addrs(3)})
		step++
		out = append(out,
			pdm.Event{Kind: pdm.EventSpanEnd, Tag: "scan", Span: span, Step: step},
			pdm.Event{Kind: pdm.EventHealth, Tag: "health.suspect", Addrs: []pdm.Addr{{Disk: i % 8}}, From: "healthy", To: "suspect", Step: step})
	}
	return out
}

// foldChain is one composed hook chain with handles on its consumers
// and on the fold of every element in it.
type foldChain struct {
	name  string
	hook  pdm.Hook
	top   *spanFold   // the fold of the element the machine calls
	inner []*spanFold // every other element's fold
	colls []*Collector
	accts []*OpAccountant
	mons  []*Monitor
}

func recordingAccountant() *OpAccountant {
	a := NewOpAccountant()
	a.RecorderSize = 1 << 12
	return a
}

// foldChains builds every chain shape the tree composes: fskv's,
// pdmbench -serve's, the chaos soak's (whose suite hook is itself a
// watchdog over pdmbench -serve's sinks), and a watchdog over an
// accountant alone.
func foldChains() []foldChain {
	var out []foldChain

	c, a := NewCollector(), recordingAccountant()
	sinks := Tee(c, NewRing(256), a, NewJSONLWriter(io.Discard)).(*tee)
	mon := NewMonitor(sinks, DefaultRules()...)
	out = append(out, foldChain{"fskv", mon, &mon.fold, []*spanFold{&sinks.fold, &c.fold, &a.fold},
		[]*Collector{c}, []*OpAccountant{a}, []*Monitor{mon}})

	c = NewCollector()
	sinks = Tee(c, NewRing(256)).(*tee)
	mon = NewMonitor(sinks, DefaultRules()...)
	out = append(out, foldChain{"pdmbench -serve", mon, &mon.fold, []*spanFold{&sinks.fold, &c.fold},
		[]*Collector{c}, nil, []*Monitor{mon}})

	c, a = NewCollector(), recordingAccountant()
	suiteTee := Tee(c, NewRing(256)).(*tee)
	suite := NewMonitor(suiteTee, DefaultRules()...)
	sinks = Tee(suite, a).(*tee)
	mon = NewMonitor(sinks, DefaultRules()...)
	out = append(out, foldChain{"chaos soak", mon, &mon.fold,
		[]*spanFold{&sinks.fold, &suite.fold, &suiteTee.fold, &c.fold, &a.fold},
		[]*Collector{c}, []*OpAccountant{a}, []*Monitor{mon, suite}})

	a = recordingAccountant()
	mon = NewMonitor(a, DefaultRules()...)
	out = append(out, foldChain{"watchdog over accountant", mon, &mon.fold, []*spanFold{&a.fold},
		nil, []*OpAccountant{a}, []*Monitor{mon}})
	return out
}

// burnDetectors returns the monitor's slo_burn detectors.
func burnDetectors(m *Monitor) []*burnDetector {
	var out []*burnDetector
	for _, rs := range m.rules {
		if d, ok := rs.det.(*burnDetector); ok {
			out = append(out, d)
		}
	}
	return out
}

// privateFoldsUnused fails the test if any fold but the chain's own
// ever opened a span, or if an element would read open records from
// another fold than the chain's.
func (ch foldChain) privateFoldsUnused(t *testing.T, when string) {
	t.Helper()
	for i, f := range ch.inner {
		if f.f.open != nil {
			t.Errorf("%s, %s: element %d's private fold opened spans", ch.name, when, i)
		}
		if f.root() != ch.top {
			t.Errorf("%s, %s: element %d reads another fold than the chain's", ch.name, when, i)
		}
	}
	for _, m := range ch.mons {
		for _, d := range burnDetectors(m) {
			if d.own != nil {
				t.Errorf("%s, %s: the slo_burn detector folded events itself", ch.name, when)
			}
		}
	}
}

// rootAggs aggregates FoldSpans' root records per tag, as a Collector
// priced with cost would.
func rootAggs(events []pdm.Event, cost CostModel) map[string]*OpAgg {
	var out map[string]*OpAgg
	for _, r := range FoldSpans(events, cost) {
		if r.Parent == 0 {
			aggFor(&out, r.Tag).add(&r, r.Latency)
		}
	}
	return out
}

// sameAggs reports whether two aggregate maps hold equal sums and
// histograms.
func sameAggs[K comparable](a, b map[K]*OpAgg) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y := b[k]
		if y == nil || x.Count != y.Count || x.StepSum != y.StepSum || x.BlockSum != y.BlockSum ||
			x.FaultSum != y.FaultSum || x.LatencySumNanos != y.LatencySumNanos || x.WallSumNanos != y.WallSumNanos ||
			!reflect.DeepEqual(x.Steps.Buckets(), y.Steps.Buckets()) ||
			!reflect.DeepEqual(x.LatencyMicros.Buckets(), y.LatencyMicros.Buckets()) {
			return false
		}
	}
	return true
}

// tokenRoots returns FoldSpans' root records of token-carrying
// operations, in completion order.
func tokenRoots(events []pdm.Event, cost CostModel) []OpRecord {
	var out []OpRecord
	for _, r := range FoldSpans(events, cost) {
		if r.Parent == 0 && r.Op != 0 {
			out = append(out, r)
		}
	}
	return out
}

// burnVerdicts returns, per instance label, the burn detector's verdict
// on each op it recorded, in order.
func burnVerdicts(d *burnDetector) map[string][]bool {
	out := map[string][]bool{}
	for l, fin := range d.series {
		for _, f := range fin {
			out[l] = append(out[l], f.bad)
		}
	}
	return out
}

// In every chain shape the tree composes, each event is folded exactly
// once, by the element the machine calls: no other element's fold ever
// opens a span, and every consumer's records — the Collector's per-tag
// aggregates, the accountant's per-op records, each slo_burn
// detector's verdicts — equal FoldSpans over the same stream.
func TestChainsFoldEachEventOnce(t *testing.T) {
	events := foldStream(30)
	for _, ch := range foldChains() {
		// Stop inside the first round's probe phase, with both spans open.
		const mid = 3
		for _, e := range events[:mid] {
			ch.hook.Event(e)
		}
		if got := ch.top.f.Open(); got != 2 {
			t.Errorf("%s: the chain's fold holds %d open spans mid-op, want 2", ch.name, got)
		}
		ch.privateFoldsUnused(t, "mid-op")
		for _, e := range events[mid:] {
			ch.hook.Event(e)
		}
		ch.privateFoldsUnused(t, "after the stream")

		for _, c := range ch.colls {
			if want := rootAggs(events, c.Cost); !sameAggs(c.Ops(), want) {
				t.Errorf("%s: Collector.Ops differs from FoldSpans' root records", ch.name)
			}
			if c.OpenSpans() != 0 {
				t.Errorf("%s: %d spans left open", ch.name, c.OpenSpans())
			}
		}
		for _, a := range ch.accts {
			want := tokenRoots(events, a.Cost)
			recs, total := a.Recorded()
			if total != int64(len(want)) || len(recs) != len(want) {
				t.Fatalf("%s: accountant recorded %d ops (%d retained), want %d", ch.name, total, len(recs), len(want))
			}
			for i, fr := range recs {
				if fr.OpRecord != want[i] {
					t.Errorf("%s: op %d:\n  accountant %+v\n  FoldSpans  %+v", ch.name, fr.Op, fr.OpRecord, want[i])
				}
			}
		}
		for _, m := range ch.mons {
			for _, d := range burnDetectors(m) {
				want := map[string][]bool{}
				for _, r := range tokenRoots(events, d.cfg.Cost) {
					l := fmt.Sprintf("client=%d", r.Client)
					want[l] = append(want[l], r.Latency > d.cfg.Target)
				}
				if got := burnVerdicts(d); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: slo_burn verdicts\n  %v\nwant\n  %v", ch.name, got, want)
				}
			}
		}
	}
}

// One chain prices records three ways: the Collector, the accountant
// and the slo_burn rule each apply their own cost model to the chain's
// one fold, and each ends exactly where the same consumer fed the same
// stream on its own ends.
func TestChainConsumersKeepTheirCostModels(t *testing.T) {
	collCost := CostModel{StepCost: 3 * time.Millisecond, BlockCost: 100 * time.Microsecond}
	acctCost := CostModel{StepCost: 40 * time.Millisecond, BlockCost: 5 * time.Millisecond}
	burn := BurnConfig{Target: 30 * time.Millisecond, MinOps: 1, Cost: CostModel{StepCost: time.Millisecond, BlockCost: 4 * time.Millisecond}}
	consumers := func() (*Collector, *OpAccountant) {
		c, a := NewCollector(), recordingAccountant()
		c.Cost, a.Cost = collCost, acctCost
		return c, a
	}
	events := foldStream(30)
	feed := func(h pdm.Hook) {
		for _, e := range events {
			h.Event(e)
		}
	}

	c, a := consumers()
	chained := NewMonitor(Tee(c, a), BurnRateRule(burn))
	feed(chained)
	soloC, soloA := consumers()
	solo := NewMonitor(nil, BurnRateRule(burn))
	feed(soloC)
	feed(soloA)
	feed(solo)

	if !sameAggs(c.Ops(), soloC.Ops()) {
		t.Error("Collector in the chain diverges from a Collector on its own")
	}
	if !sameAggs(a.Tags(), soloA.Tags()) || !sameAggs(a.Clients(), soloA.Clients()) {
		t.Error("accountant aggregates in the chain diverge from an accountant on its own")
	}
	recs, _ := a.Recorded()
	soloRecs, _ := soloA.Recorded()
	if !reflect.DeepEqual(recs, soloRecs) {
		t.Error("accountant records in the chain diverge from an accountant on its own")
	}
	if got, want := burnVerdicts(burnDetectors(chained)[0]), burnVerdicts(burnDetectors(solo)[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("slo_burn verdicts in the chain %v, on its own %v", got, want)
	}
	if got, want := chained.Snapshot(), solo.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("slo_burn samples in the chain\n  %+v\non its own\n  %+v", got, want)
	}

	// The three models must really differ on the same ops, or the check
	// above would pass with one shared price.
	def := rootAggs(events, CostModel{})["insert"].LatencySumNanos
	coll, acct := c.Ops()["insert"].LatencySumNanos, a.Tags()["insert"].LatencySumNanos
	if coll == def || acct == def || coll == acct {
		t.Errorf("insert latency sums: collector %d, accountant %d, default %d; want three different", coll, acct, def)
	}
	bad := 0
	for _, v := range burnVerdicts(burnDetectors(chained)[0]) {
		for _, b := range v {
			if b {
				bad++
			}
		}
	}
	if bad == 0 {
		t.Error("no op misses the burn target; the burn comparison is vacuous")
	}
}

// Two machines feed one chain at once, as both structures of a
// core.Dict rebuild do, while InFlight, OpenSpans and /metrics read the
// chain. Under -race this pins the fold's locking: members read a
// record only while the fold's lock is held, and readers of open
// records take the fold's lock before the consumer's.
func TestChainSharedByTwoMachines(t *testing.T) {
	coll, acct, ring := NewCollector(), NewOpAccountant(), NewRing(64)
	mon := NewMonitor(Tee(coll, ring, acct), DefaultRules()...)
	srv := &Server{Collector: coll, Ring: ring, Accountant: acct, Monitor: mon}
	machines := []*pdm.Machine{pdm.NewMachine(pdm.Config{D: 4, B: 8}), pdm.NewMachine(pdm.Config{D: 4, B: 8})}
	for _, m := range machines {
		m.SetHook(mon)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				acct.InFlight(8)
				coll.OpenSpans()
				srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
			}
		}()
	}

	const perClient = 200
	var ids atomic.Uint64 // one token counter across both machines, as core.Dict mints
	var clients sync.WaitGroup
	for _, m := range machines {
		for client := range 2 {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for i := range perClient {
					op := pdm.MakeOp(ids.Add(1), client, 1)
					end := m.OpSpan(op, pdm.TagLookup)
					m.BatchReadOp(op, []pdm.Addr{{Disk: i % 4, Block: i % 8}})
					end.End()
				}
			}()
		}
	}
	clients.Wait()
	close(done)
	readers.Wait()

	var steps int64
	for _, m := range machines {
		steps += m.Stats().ParallelIOs
	}
	if _, _, _, got, _ := coll.Totals(); got != steps {
		t.Errorf("collector counted %d steps, the machines ran %d", got, steps)
	}
	if got, want := ring.Total(), int64(len(machines)*2*perClient*3); got < want {
		t.Errorf("ring saw %d events, want at least %d", got, want)
	}
}
