package core

import (
	"bytes"
	"testing"

	"pdmdict/internal/fault"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// diskTransientInjector transiently fails read accesses to one disk, a
// bounded number of times (fails < 0 means forever). Deterministic by
// construction: no RNG, just an access counter.
type diskTransientInjector struct {
	disk  int
	fails int
}

func (in *diskTransientInjector) Access(kind pdm.EventKind, a pdm.Addr) pdm.Fault {
	if kind == pdm.EventRead && a.Disk == in.disk && in.fails != 0 {
		if in.fails > 0 {
			in.fails--
		}
		return pdm.Fault{Kind: pdm.FaultTransient}
	}
	return pdm.Fault{}
}

// The zero-value retry policy and the spelled-out DefaultRetryPolicy
// must be indistinguishable on the wire: the same faulted workload
// produces byte-identical JSONL traces either way. This is the
// compatibility contract that lets SetRetryPolicy exist without
// changing a single historical trace.
func TestRetryPolicyDefaultTraceEquivalence(t *testing.T) {
	run := func(explicit bool) string {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		m := pdm.NewMachine(pdm.Config{D: 8, B: 32})
		m.SetHook(w)
		bd, err := NewBasic(m, BasicConfig{
			Capacity: 200, SatWords: 1, K: 2, Replicate: true, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if explicit {
			bd.SetRetryPolicy(pdm.DefaultRetryPolicy())
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
	if run(false) != run(true) {
		t.Fatal("zero-value policy and DefaultRetryPolicy produced different traces")
	}
}

// retryBasic is a two-replica Basic on four disks holding one key.
func retryBasic(t *testing.T, key pdm.Word) (*BasicDict, *pdm.Machine) {
	t.Helper()
	m := pdm.NewMachine(pdm.Config{D: 4, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 120, SatWords: 1, K: 2, Replicate: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := bd.Insert(key, []pdm.Word{key}); err != nil {
		t.Fatal(err)
	}
	return bd, m
}

// roundOneSteps is what a fault-free lookup of x is charged: the cost of
// its first round alone.
func roundOneSteps(bd *BasicDict, x pdm.Word) int64 {
	op := pdm.MakeOp(1, 0, 1)
	bd.LookupOp(op, x)
	return op.Steps()
}

// Backoff is modeled waiting: each retry round charges the policy's
// schedule (base·factor^(round−1)) to the machine as parallel-I/O
// steps, visible in both the step counter and the health report. An
// absent key needs every probe block, so disk 1's bucket is retried.
func TestRetryPolicyBackoffCharged(t *testing.T) {
	key := pdm.Word(3)*2654435761 + 1
	bd, m := retryBasic(t, key)
	bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffFactor: 2})
	m.SetFaultInjector(&diskTransientInjector{disk: 1, fails: -1})

	before := m.Stats().ParallelIOs
	if _, ok, err := bd.LookupTry(key + 2); ok || err == nil {
		t.Fatalf("absent key with an unreadable bucket: ok=%v err=%v, want inconclusive", ok, err)
	}
	rep := m.Health()
	// Two retry rounds: 4 steps before the first, 4·2 before the second.
	if rep.BackoffSteps != 12 {
		t.Fatalf("backoff steps = %d, want 12", rep.BackoffSteps)
	}
	if rep.Retries != 2 {
		t.Fatalf("retry batches = %d, want 2", rep.Retries)
	}
	if got := m.Stats().ParallelIOs - before; got < 12 {
		t.Fatalf("parallel I/Os for the lookup = %d, want >= 12 (backoff charged)", got)
	}
}

// The twin: the same policy and the same dead bucket, but the stored
// key's surviving replica settles it in round one, so nothing is
// retried, no backoff is charged, and the op costs exactly round one.
func TestRetryPolicySettledKeyChargedNoBackoff(t *testing.T) {
	key := pdm.Word(3)*2654435761 + 1
	bd, m := retryBasic(t, key)
	want := roundOneSteps(bd, key)
	bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffFactor: 2})
	m.SetFaultInjector(&diskTransientInjector{disk: 1, fails: -1})

	op := pdm.MakeOp(2, 0, 1)
	if sat, ok, err := bd.LookupTryOp(op, key); err != nil || !ok || sat[0] != key {
		t.Fatalf("lookup with a surviving replica: sat=%v ok=%v err=%v", sat, ok, err)
	}
	if rep := m.Health(); rep.Retries != 0 || rep.BackoffSteps != 0 || rep.Hedges != 0 {
		t.Fatalf("retries=%d backoff=%d hedges=%d, want all 0", rep.Retries, rep.BackoffSteps, rep.Hedges)
	}
	if op.Steps() != want {
		t.Fatalf("op charged %d steps, want round one's %d", op.Steps(), want)
	}
}

// With Hedge enabled, a retried read whose disk is Suspect is issued
// twice in the retry batch; either copy answers the slot. The hedged
// duplicate turns "retry also failed" into a success here: an absent
// key needs disk 1's bucket, so the miss is conclusive only once it
// arrives.
func TestRetryPolicyHedgesSuspectDisk(t *testing.T) {
	key := pdm.Word(5)*2654435761 + 1
	bd, m := retryBasic(t, key)
	m.SetSuspectThresholds(1, 1<<20)
	bd.SetRetryPolicy(pdm.RetryPolicy{Hedge: true})
	// The probe's disk-1 access fails (promoting disk 1 to Suspect), and
	// so does the first copy in the retry batch — only the hedged second
	// copy gets through.
	m.SetFaultInjector(&diskTransientInjector{disk: 1, fails: 2})

	if sat, ok, err := bd.LookupTry(key + 2); err != nil || ok {
		t.Fatalf("hedged lookup of an absent key: ok=%v err=%v sat=%v", ok, err, sat)
	}
	if got := m.DiskState(1); got != pdm.Suspect {
		t.Fatalf("disk 1 state = %v, want Suspect", got)
	}
	rep := m.Health()
	if rep.Hedges != 1 {
		t.Fatalf("hedged reads = %d, want 1", rep.Hedges)
	}
	if rep.Retries != 1 {
		t.Fatalf("retry batches = %d, want 1", rep.Retries)
	}
}

// The twin: disk 1 fails the same way and turns Suspect, but the stored
// key's other replica settles it in round one, so no retry and no hedge
// is issued and the op costs exactly round one.
func TestRetryPolicySettledKeyNotHedged(t *testing.T) {
	key := pdm.Word(5)*2654435761 + 1
	bd, m := retryBasic(t, key)
	want := roundOneSteps(bd, key)
	m.SetSuspectThresholds(1, 1<<20)
	bd.SetRetryPolicy(pdm.RetryPolicy{Hedge: true})
	m.SetFaultInjector(&diskTransientInjector{disk: 1, fails: 2})

	op := pdm.MakeOp(2, 0, 1)
	if sat, ok, err := bd.LookupTryOp(op, key); err != nil || !ok || sat[0] != key {
		t.Fatalf("lookup with a surviving replica: sat=%v ok=%v err=%v", sat, ok, err)
	}
	if got := m.DiskState(1); got != pdm.Suspect {
		t.Fatalf("disk 1 state = %v, want Suspect", got)
	}
	if rep := m.Health(); rep.Retries != 0 || rep.BackoffSteps != 0 || rep.Hedges != 0 {
		t.Fatalf("retries=%d backoff=%d hedges=%d, want all 0", rep.Retries, rep.BackoffSteps, rep.Hedges)
	}
	if op.Steps() != want {
		t.Fatalf("op charged %d steps, want round one's %d", op.Steps(), want)
	}
}

// MaxRetries < 0 disables retries entirely: a transient failure is
// reported after the single initial batch, with no recovery I/O.
func TestRetryPolicyNegativeDisablesRetries(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 4, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 120, SatWords: 1, K: 2, Replicate: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	key := pdm.Word(9)*2654435761 + 1
	if err := bd.Insert(key, []pdm.Word{key}); err != nil {
		t.Fatal(err)
	}
	bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: -1})
	m.SetFaultInjector(&diskTransientInjector{disk: 2, fails: -1})
	//lint:pdm-allow iocharge: the surviving replica settles the query
	if _, ok, _ := bd.LookupTry(key); !ok {
		t.Fatal("lookup failed despite a surviving replica")
	}
	if rep := m.Health(); rep.Retries != 0 {
		t.Fatalf("retry batches = %d, want 0 (retries disabled)", rep.Retries)
	}
}
