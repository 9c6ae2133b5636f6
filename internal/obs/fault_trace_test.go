package obs_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pdmdict/internal/core"
	"pdmdict/internal/fault"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// Fault injection is deterministic end to end: the same seed and the
// same workload must produce byte-identical JSONL traces, fault.*
// events included.
func TestFaultTraceDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		m := pdm.NewMachine(pdm.Config{D: 8, B: 32})
		m.SetHook(w)
		bd, err := core.NewBasic(m, core.BasicConfig{
			Capacity: 200, SatWords: 1, K: 2, Replicate: true, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := bd.Insert(pdm.Word(i)*97+1, []pdm.Word{pdm.Word(i)}); err != nil {
				t.Fatal(err)
			}
		}
		plan := fault.NewPlan(42)
		plan.SetTransient(0.1)
		plan.SetStall(0.05, 3)
		plan.FailDisk(2)
		m.SetFaultInjector(plan)
		for i := 0; i < 200; i++ {
			if _, ok, err := bd.LookupTry(pdm.Word(i)*97 + 1); err != nil || !ok {
				t.Fatalf("lookup %d: ok=%v err=%v", i, ok, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Fatal("identical seed+workload produced different JSONL traces")
	}
	if !strings.Contains(t1, `"tag":"fault.failstop"`) ||
		!strings.Contains(t1, `"tag":"fault.transient"`) {
		t.Fatalf("trace lacks fault.* events:\n%.400s", t1)
	}
	// The trace round-trips: fault events are ordinary events.
	evs, err := obs.ReadEvents(strings.NewReader(t1))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	faults := 0
	for _, e := range evs {
		if strings.HasPrefix(e.Tag, "fault.") {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("round-tripped trace lost the fault events")
	}
}

// The fault path's output is pinned across builds, not only across two
// runs of one build: a seeded plan with fail-stop, transient, corrupt
// and stall faults drives 2 000 LookupTry calls on a two-replica Basic
// (the first half under the default retry policy, the second with
// backoff and hedging), then a Scrub, the failed disk's Repair and a
// second Scrub, all under a JSONL hook. The digests are FNV-64a of the
// trace, the answers, Stats, Health and FaultCount; a change to the
// machine's host-side bookkeeping must leave every one of them alone.
func TestFaultTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	m := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	m.SetHook(w)
	bd, err := core.NewBasic(m, core.BasicConfig{
		Capacity: 300, SatWords: 2, K: 2, Replicate: true, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) pdm.Word { return pdm.Word(i)*131 + 7 }
	for i := 0; i < 300; i++ {
		if err := bd.Insert(key(i), []pdm.Word{pdm.Word(i), pdm.Word(i) << 20}); err != nil {
			t.Fatal(err)
		}
	}
	plan := fault.NewPlan(2906)
	plan.SetTransient(0.03)
	plan.SetTransientWrites(0.05)
	plan.SetStall(0.02, 2)
	plan.FailDisk(3)
	for b := 0; b < 6; b++ {
		plan.CorruptAt(pdm.Addr{Disk: 6, Block: 2 * b}, uint(b*37))
	}
	m.SetFaultInjector(plan)

	answers := fnv.New64a()
	for i := 0; i < 2000; i++ {
		if i == 1000 {
			bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: 2, BackoffBase: 1, BackoffFactor: 2, Hedge: true})
		}
		x := key(i * 7 % 330) // one in eleven is absent
		sat, ok, err := bd.LookupTry(x)
		fmt.Fprintf(answers, "%d %v %v %v\n", x, sat, ok, err)
	}
	// Disk 3 cannot be rebuilt while disk 6's damaged buckets are read
	// as its survivors; once disk 6 is rebuilt from disk 3's intact
	// copies, it can.
	plan.HealDisk(3)
	fmt.Fprintf(answers, "scrub %v\n", bd.Scrub())
	for _, disk := range []int{3, 6, 3} {
		fmt.Fprintf(answers, "repair %d %v\n", disk, bd.Repair(disk))
	}
	fmt.Fprintf(answers, "scrub %v\n", bd.Scrub())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	got := map[string]uint64{
		"trace":   digest(buf.Bytes()),
		"answers": answers.Sum64(),
		"stats":   digest(fmt.Appendf(nil, "%+v", m.Stats())),
		"health":  digest(fmt.Appendf(nil, "%+v", m.Health())),
		"faults":  uint64(m.FaultCount()),
	}
	want := map[string]uint64{
		"trace":   0x508a463736406dc1,
		"answers": 0x500ac762957ce2c4,
		"stats":   0x9dfd318d3a2dfbb4,
		"health":  0x6b4c9a8355ce2abd,
		"faults":  3041,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s digest = %#x, want %#x", k, got[k], v)
		}
	}
	for _, tag := range []string{"fault.failstop", "fault.transient", "fault.corrupt", "fault.stall", "fault.checksum"} {
		if !strings.Contains(buf.String(), `"tag":"`+tag+`"`) {
			t.Errorf("trace has no %s event", tag)
		}
	}
}

// A retry policy's modeled backoff is recorded as addr-less charged
// reads (ChargeSteps) under the "backoff" span, each carrying its
// charge, so an offline replay of the trace through a collector
// reproduces the run's exact step count, backoff included.
func TestReplayReproducesBackoffCharges(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	m := pdm.NewMachine(pdm.Config{D: 4, B: 32})
	m.SetHook(w)
	bd, err := core.NewBasic(m, core.BasicConfig{
		Capacity: 100, SatWords: 1, K: 2, Replicate: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := bd.Insert(pdm.Word(i)*97+1, []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffFactor: 2})
	plan := fault.NewPlan(17)
	plan.SetTransient(0.3)
	m.SetFaultInjector(plan)
	for i := 0; i < 100; i++ {
		//lint:pdm-allow iocharge: replicas settle every query; errors only mean retries ran
		bd.LookupTry(pdm.Word(i)*97 + 1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	backoffs, backoffSteps := 0, int64(0)
	for _, e := range events {
		if e.Kind == pdm.EventRead && len(e.Addrs) == 0 && e.Steps > 0 {
			backoffs++
			backoffSteps += int64(e.Steps)
		}
	}
	if backoffs == 0 {
		t.Fatal("workload recorded no addr-less backoff charges; raise the transient rate")
	}
	want := m.Health().BackoffSteps
	if want == 0 {
		t.Fatal("no backoff steps charged")
	}
	if backoffSteps != want {
		t.Errorf("trace records %d backoff steps, machine charged %d", backoffSteps, want)
	}
	c := obs.NewCollector()
	for _, e := range events {
		c.Event(e)
	}
	if _, _, _, steps, _ := c.Totals(); steps != m.Stats().ParallelIOs {
		t.Errorf("replayed steps = %d, machine ran %d (backoff charges included)", steps, m.Stats().ParallelIOs)
	}
}
