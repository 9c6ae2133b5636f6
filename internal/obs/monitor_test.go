package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pdmdict/internal/pdm"
)

// tagSink makes alertTag's result escape, so a tag built by
// concatenation would show up as an allocation.
var tagSink string

// The monitor spells alert annotations "alert." + AlertState.String(),
// from a table: emitting a transition builds no string.
func TestAnnotationTagsMatchEmitterSpelling(t *testing.T) {
	for _, s := range []AlertState{AlertInactive, AlertPending, AlertFiring, AlertResolved} {
		if got, want := alertTag(s), "alert."+s.String(); got != want {
			t.Errorf("alertTag(%v) = %q, want %q", s, got, want)
		}
		if avg := testing.AllocsPerRun(100, func() { tagSink = alertTag(s) }); avg != 0 {
			t.Errorf("alertTag(%v) allocates %.1f objects, want 0", s, avg)
		}
	}
}

// scriptDetector reports whatever the test's breach flag says — the
// harness for exercising the state machine without a real signal.
type scriptDetector struct {
	breach *bool
	value  int64
}

func (d *scriptDetector) observe(pdm.Event, int64) {}
func (d *scriptDetector) sample(int64) []ruleSample {
	return []ruleSample{{Value: d.value, Breach: *d.breach}}
}

func scriptRule(name string, breach *bool, forSteps, clearSteps int64) Rule {
	return Rule{
		Name: name, EvalEvery: 10, ForSteps: forSteps, ClearSteps: clearSteps,
		newDetector: func() detector { return &scriptDetector{breach: breach} },
	}
}

// stepEvents advances the monitor clock by n steps, one read at a time.
func stepEvents(mon *Monitor, n int) {
	for i := 0; i < n; i++ {
		mon.Event(pdm.Event{Kind: pdm.EventRead, Steps: 1, Addrs: []pdm.Addr{{Disk: 0}}})
	}
}

func TestAlertStateMachineWalksEveryEdge(t *testing.T) {
	breach := false
	mon := NewMonitor(nil, scriptRule("watch", &breach, 15, 15))

	stepEvents(mon, 20)
	if tl := mon.Timeline(); len(tl) != 0 {
		t.Fatalf("transitions with no breach: %+v", tl)
	}
	breach = true
	stepEvents(mon, 40) // eval ticks at 30 (→Pending), 40, 50 (hold ≥ 15 → Firing)
	breach = false
	stepEvents(mon, 50) // clear observed, held ≥ 15 → Resolved → Inactive

	want := []struct{ from, to AlertState }{
		{AlertInactive, AlertPending},
		{AlertPending, AlertFiring},
		{AlertFiring, AlertResolved},
		{AlertResolved, AlertInactive},
	}
	tl := mon.Timeline()
	if len(tl) != len(want) {
		t.Fatalf("timeline = %+v, want %d edges", tl, len(want))
	}
	for i, w := range want {
		if tl[i].From != w.from || tl[i].To != w.to || tl[i].Rule != "watch" {
			t.Errorf("edge %d = %s→%s (%s), want %s→%s", i, tl[i].From, tl[i].To, tl[i].Rule, w.from, w.to)
		}
		if i > 0 && tl[i].Step < tl[i-1].Step {
			t.Errorf("timeline steps not monotone: %d after %d", tl[i].Step, tl[i-1].Step)
		}
	}
	if c := mon.Cycles()["watch"]; c != 1 {
		t.Errorf("cycles = %d, want 1", c)
	}

	// A breach that clears before ForSteps must retreat without firing.
	breach = true
	stepEvents(mon, 10) // → Pending
	breach = false
	stepEvents(mon, 10) // → Inactive
	tl = mon.Timeline()
	last := tl[len(tl)-1]
	if last.From != AlertPending || last.To != AlertInactive {
		t.Errorf("short breach ended %s→%s, want pending→inactive", last.From, last.To)
	}
	if c := mon.Cycles()["watch"]; c != 1 {
		t.Errorf("cycles after aborted breach = %d, want still 1", c)
	}
}

// The two properties the watchdog guarantees by construction: every
// transition is one of the five legal edges (states are never skipped),
// and once the offending condition drains, no instance is left pending
// or firing.
func TestAlertStateMachineNeverSkipsAndAlwaysResolves(t *testing.T) {
	legal := map[[2]AlertState]bool{
		{AlertInactive, AlertPending}:  true,
		{AlertPending, AlertInactive}:  true,
		{AlertPending, AlertFiring}:    true,
		{AlertFiring, AlertResolved}:   true,
		{AlertResolved, AlertInactive}: true,
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		breach := false
		forSteps := int64(rng.Intn(32))
		clearSteps := int64(rng.Intn(32))
		mon := NewMonitor(nil, scriptRule("r", &breach, forSteps, clearSteps))
		for i := 0; i < 5000; i++ {
			if rng.Intn(8) == 0 {
				breach = !breach
			}
			mon.Event(pdm.Event{Kind: pdm.EventRead, Steps: 1, Addrs: []pdm.Addr{{Disk: 0}}})
		}
		breach = false
		stepEvents(mon, 200) // > ForSteps + ClearSteps + several eval ticks

		for i, tr := range mon.Timeline() {
			if !legal[[2]AlertState{tr.From, tr.To}] {
				t.Errorf("seed %d: illegal edge %d: %s→%s", seed, i, tr.From, tr.To)
			}
		}
		for _, r := range mon.Snapshot().Rules {
			if r.Firing != 0 || r.Pending != 0 {
				t.Errorf("seed %d: rule %s still firing=%d pending=%d after the breach drained",
					seed, r.Rule, r.Firing, r.Pending)
			}
			for _, inst := range r.Instances {
				if inst.State == AlertFiring || inst.State == AlertPending {
					t.Errorf("seed %d: instance %q stuck in %s", seed, inst.Label, inst.State)
				}
			}
		}
	}
}

func TestMonitorForwardsAndSynthesizesAlertEvents(t *testing.T) {
	var rec eventRecorder
	breach := true
	mon := NewMonitor(&rec, scriptRule("watch", &breach, 0, 0))

	mon.Event(pdm.Event{Kind: pdm.EventWrite, Steps: 10, Addrs: []pdm.Addr{{Disk: 0}}})
	kinds := rec.kinds()
	if len(kinds) != 2 || kinds[0] != pdm.EventWrite || kinds[1] != pdm.EventAlert {
		t.Fatalf("downstream saw %v, want [write alert]", kinds)
	}
	alert := rec.events[1]
	if alert.Tag != "alert.pending" || alert.Rule != "watch" ||
		alert.From != "inactive" || alert.To != "pending" || alert.Step != 10 {
		t.Errorf("alert event = %+v", alert)
	}
	if !alert.Kind.IsAnnotation() || alert.Steps != 0 {
		t.Errorf("alert event must be a zero-step annotation: %+v", alert)
	}

	// Incoming alert events are forwarded verbatim but never advance the
	// clock or feed the rules — the feedback guard replay depends on.
	before := mon.Now()
	transitions := len(mon.Timeline())
	mon.Event(pdm.Event{Kind: pdm.EventAlert, Rule: "watch", Steps: 5, Step: 99})
	if mon.Now() != before {
		t.Errorf("incoming alert advanced the clock: %d → %d", before, mon.Now())
	}
	if len(mon.Timeline()) != transitions {
		t.Error("incoming alert fed the rules")
	}
	if k := rec.kinds(); k[len(k)-1] != pdm.EventAlert {
		t.Error("incoming alert not forwarded")
	}
}

func TestMonitorListenerReceivesTransitions(t *testing.T) {
	var got []AlertTransition
	breach := true
	mon := NewMonitor(nil, scriptRule("watch", &breach, 0, 0))
	mon.SetListener(func(ts []AlertTransition) { got = append(got, ts...) })
	stepEvents(mon, 25)
	if len(got) < 2 || got[0].To != AlertPending || got[1].To != AlertFiring {
		t.Fatalf("listener saw %+v, want pending then firing", got)
	}
	mon.SetListener(nil)
	breach = false
	stepEvents(mon, 25)
	if len(got) > 2 {
		t.Error("removed listener still called")
	}
}

func TestBalanceRuleFiresAndResolvesOnSkew(t *testing.T) {
	mon := NewMonitor(nil, BalanceRule(BalanceConfig{WindowSteps: 32, MaxSkewMicro: 1_500_000, MinBlocks: 8}))

	// Seed every disk so the detector knows the array width, then slam
	// one disk: skew = max·D/total ≈ 4 » 1.5.
	mon.Event(pdm.Event{Kind: pdm.EventWrite, Steps: 1,
		Addrs: []pdm.Addr{{Disk: 0}, {Disk: 1}, {Disk: 2}, {Disk: 3}}})
	for i := 0; i < 200; i++ {
		mon.Event(pdm.Event{Kind: pdm.EventWrite, Steps: 1, Addrs: []pdm.Addr{{Disk: 0}}})
	}
	snap := mon.Snapshot()
	if snap.Rules[0].Firing != 1 {
		t.Fatalf("skewed load did not fire: %+v", snap.Rules[0])
	}
	if v := snap.Rules[0].Instances[0].ValueMicro; v <= 1_500_000 {
		t.Errorf("skew value = %d micro, want > 1.5", v)
	}

	// Balanced traffic rolls clean windows; the alert must stand down.
	for i := 0; i < 300; i++ {
		mon.Event(pdm.Event{Kind: pdm.EventRead, Steps: 1,
			Addrs: []pdm.Addr{{Disk: 0}, {Disk: 1}, {Disk: 2}, {Disk: 3}}})
	}
	if c := mon.Cycles()["balance"]; c != 1 {
		t.Errorf("balance cycles = %d, want 1 (fire → resolve)", c)
	}
	if r := mon.Snapshot().Rules[0]; r.Firing != 0 {
		t.Errorf("balance still firing after balanced traffic: %+v", r)
	}
}

// healthEvent shapes a synthetic health annotation like the machine's.
func healthEvent(disk int, from, to string) pdm.Event {
	return pdm.Event{Kind: pdm.EventHealth, Tag: pdm.HealthTagPrefix + to,
		Addrs: []pdm.Addr{{Disk: disk}}, From: from, To: to}
}

func TestDegradedCapacityRuleTracksHealthAnnotations(t *testing.T) {
	mon := NewMonitor(nil, DegradedCapacityRule(DegradedConfig{MinDown: 1}))
	stepEvents(mon, 20)
	mon.Event(healthEvent(1, "healthy", "failed"))
	stepEvents(mon, 40) // eval every 16: breach → Pending → Firing
	snap := mon.Snapshot()
	if snap.Rules[0].Firing != 1 {
		t.Fatalf("failed disk did not fire degraded_capacity: %+v", snap.Rules[0])
	}
	// Repairing still counts as down; healthy resolves.
	mon.Event(healthEvent(1, "failed", "repairing"))
	stepEvents(mon, 20)
	if mon.Snapshot().Rules[0].Firing != 1 {
		t.Error("repairing disk resolved the alert early")
	}
	mon.Event(healthEvent(1, "repairing", "healthy"))
	stepEvents(mon, 40)
	if c := mon.Cycles()["degraded_capacity"]; c != 1 {
		t.Errorf("degraded_capacity cycles = %d, want 1", c)
	}
}

func TestHealthFlapRuleCountsTransitionsPerDisk(t *testing.T) {
	// The rule evals every 64 steps, so the window must span at least two
	// eval ticks for Pending to harden into Firing before the flips age out.
	mon := NewMonitor(nil, HealthFlapRule(FlapConfig{Flips: 3, WindowSteps: 200}))
	stepEvents(mon, 10)
	mon.Event(healthEvent(2, "healthy", "failed"))
	mon.Event(healthEvent(2, "failed", "repairing"))
	mon.Event(healthEvent(2, "repairing", "healthy"))
	mon.Event(healthEvent(5, "healthy", "suspect")) // one flip: not flapping
	stepEvents(mon, 130)
	snap := mon.Snapshot()
	byLabel := map[string]AlertInstance{}
	for _, inst := range snap.Rules[0].Instances {
		byLabel[inst.Label] = inst
	}
	if byLabel["disk=2"].State != AlertFiring {
		t.Errorf("disk 2 flapped 3 times, state = %s", byLabel["disk=2"].State)
	}
	if s := byLabel["disk=5"].State; s == AlertFiring || s == AlertPending {
		t.Errorf("disk 5 flipped once, state = %s", s)
	}
	// The window drains with no further flips: flapping resolves.
	stepEvents(mon, 300)
	if c := mon.Cycles()["health_flap"]; c != 1 {
		t.Errorf("health_flap cycles = %d, want 1", c)
	}
}

func TestBurnRateRuleFiresPerClient(t *testing.T) {
	mon := NewMonitor(nil, BurnRateRule(BurnConfig{
		Target: 50 * time.Millisecond, MinOps: 2, FastSteps: 128, SlowSteps: 256,
	}))
	var cur int64
	var opID uint64
	emitOp := func(client int, steps int64) {
		opID++
		mon.Event(pdm.Event{Kind: pdm.EventSpanBegin, Tag: "lookup",
			Span: opID, Op: opID, Client: client, Step: cur})
		mon.Event(pdm.Event{Kind: pdm.EventRead, Steps: int(steps),
			Op: opID, Addrs: []pdm.Addr{{Disk: 0}}})
		cur += steps
		mon.Event(pdm.Event{Kind: pdm.EventSpanEnd, Tag: "lookup",
			Span: opID, Op: opID, Client: client, Step: cur})
	}
	// Client 7 burns (10 steps ≈ 100ms+ per op, over the 50ms target);
	// client 1 stays within SLO (1 step ≈ 11ms).
	for i := 0; i < 8; i++ {
		emitOp(7, 10)
		emitOp(1, 1)
	}
	stepEvents(mon, 80)
	snap := mon.Snapshot()
	states := map[string]AlertState{}
	for _, inst := range snap.Rules[0].Instances {
		states[inst.Label] = inst.State
	}
	if states["client=7"] != AlertFiring {
		t.Errorf("client 7 burn state = %s, want firing (instances %+v)", states["client=7"], snap.Rules[0].Instances)
	}
	if s := states["client=1"]; s == AlertFiring || s == AlertPending {
		t.Errorf("client 1 within SLO but state = %s", s)
	}
	// The slow ops age out of both windows; the alert resolves.
	stepEvents(mon, 400)
	if c := mon.Cycles()["slo_burn"]; c != 1 {
		t.Errorf("slo_burn cycles = %d, want 1", c)
	}
}

// Two token-carrying lookups interleave on one machine: client 7's op
// runs 10 steps while client 1's, open around it, runs 1. The shared
// step counter moves 11 between either op's begin and end, but slo_burn
// must judge each op by its own charges: client 1's lookups are 1-step
// ops inside the 50 ms target, client 7's are 10-step ops over it.
func TestBurnRateRuleChargesEachOpItsOwnSteps(t *testing.T) {
	d := BurnRateRule(BurnConfig{Target: 50 * time.Millisecond}).newDetector()
	var now int64
	for i := uint64(0); i < 8; i++ {
		a, b := 2*i+1, 2*i+2
		for _, e := range []pdm.Event{
			{Kind: pdm.EventSpanBegin, Tag: "lookup", Span: a, Op: a, Client: 1, Keys: 1, Step: now},
			{Kind: pdm.EventSpanBegin, Tag: "lookup", Span: b, Op: b, Client: 7, Keys: 1, Step: now},
			{Kind: pdm.EventRead, Tag: "lookup", Span: b, Op: b, Client: 7, Steps: 10, Depth: 10, Addrs: make([]pdm.Addr, 10)},
			{Kind: pdm.EventRead, Tag: "lookup", Span: a, Op: a, Client: 1, Steps: 1, Depth: 1, Addrs: make([]pdm.Addr, 1)},
			{Kind: pdm.EventSpanEnd, Tag: "lookup", Span: b, Op: b, Client: 7, Step: now + 11},
			{Kind: pdm.EventSpanEnd, Tag: "lookup", Span: a, Op: a, Client: 1, Step: now + 11},
		} {
			now += int64(e.Steps)
			d.observe(e, now)
		}
	}
	bad := map[string]int64{}
	for _, s := range d.sample(now) {
		bad[s.Label] = s.Value
	}
	if bad["client=1"] != 0 {
		t.Errorf("client 1's 1-step lookups judged bad: fraction %d µ, want 0", bad["client=1"])
	}
	if bad["client=7"] != 1_000_000 {
		t.Errorf("client 7's 10-step lookups: bad fraction %d µ, want 1000000", bad["client=7"])
	}
}

// Annotation events must survive the JSONL round trip with their alert
// fields intact, and an offline replay through the consumers must skip
// them (they transfer no blocks and charge no steps).
func TestJSONLAnnotationRoundTripAndReplaySkip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Event(pdm.Event{Kind: pdm.EventHealth, Tag: "health.failed", Seq: 1,
		Addrs: []pdm.Addr{{Disk: 3}}, From: "healthy", To: "failed", Step: 7})
	w.Event(pdm.Event{Kind: pdm.EventAlert, Tag: "alert.firing", Seq: 2,
		Rule: "balance", From: "pending", To: "firing", Value: 2_500_000, Step: 9})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	h := events[0]
	if h.Kind != pdm.EventHealth || h.Tag != "health.failed" || h.From != "healthy" ||
		h.To != "failed" || len(h.Addrs) != 1 || h.Addrs[0].Disk != 3 || h.Step != 7 {
		t.Errorf("health event = %+v", h)
	}
	a := events[1]
	if a.Kind != pdm.EventAlert || a.Tag != "alert.firing" || a.Rule != "balance" ||
		a.From != "pending" || a.To != "firing" || a.Value != 2_500_000 || a.Step != 9 {
		t.Errorf("alert event = %+v", a)
	}
	c := NewCollector()
	for _, e := range events {
		c.Event(e)
	}
	if batches, _, _, steps, blocks := c.Totals(); batches != 0 || steps != 0 || blocks != 0 {
		t.Errorf("replaying annotations charged I/O: %d batches, %d steps, %d blocks", batches, steps, blocks)
	}
	if recs := FoldSpans(events, CostModel{}); len(recs) != 0 {
		t.Errorf("annotations folded to records %+v", recs)
	}
}

// Older trace versions (pre-annotation) must keep loading.
func TestJSONLReadsV4Traces(t *testing.T) {
	trace := "{\"k\":\"trace\",\"v\":4}\n{\"k\":\"read\",\"steps\":1,\"addrs\":[[1,0]]}\n"
	events, err := ReadEvents(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 1 || events[0].Kind != pdm.EventRead {
		t.Fatalf("events = %+v", events)
	}
}

// The accounting sinks must all skip annotations, or health/alert
// events would inflate batch and op counts.
func TestSinksSkipAnnotations(t *testing.T) {
	c := NewCollector()
	acct := NewOpAccountant()
	var f SpanFolder
	h := healthEvent(0, "healthy", "failed")
	a := pdm.Event{Kind: pdm.EventAlert, Tag: "alert.firing", Rule: "balance"}
	for _, e := range []pdm.Event{h, a} {
		c.Event(e)
		acct.Event(e)
		if rec := f.Fold(e); rec != nil {
			t.Errorf("SpanFolder closed a span on %v", e.Kind)
		}
	}
	if events, _, _, _, _ := c.Totals(); events != 0 {
		t.Errorf("collector counted %d annotation events", events)
	}
	if ops, steps, _, _ := acct.Totals(); ops != 0 || steps != 0 {
		t.Errorf("accountant charged annotations: ops=%d steps=%d", ops, steps)
	}
}
