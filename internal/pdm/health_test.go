package pdm

import "testing"

func readThrough(t *testing.T, m *Machine, a Addr) error {
	t.Helper()
	_, err := m.TryBatchRead([]Addr{a})
	return err
}

func TestHealthStateStrings(t *testing.T) {
	want := map[HealthState]string{
		Healthy: "healthy", Suspect: "suspect", Failed: "failed", Repairing: "repairing",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

// A single transient error keeps the disk Healthy (the legacy degraded
// bit still trips); crossing the threshold within the window promotes it
// to Suspect.
func TestHealthTransientsPromoteToSuspect(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 4})
	a := Addr{Disk: 1, Block: 0}
	m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultTransient}}})

	if readThrough(t, m, a) == nil {
		t.Fatal("transient fault not surfaced")
	}
	if got := m.DiskState(1); got != Healthy {
		t.Fatalf("after 1 transient: state = %v, want healthy", got)
	}
	if !m.Degraded() {
		t.Fatal("legacy degraded bit must trip on the first transient")
	}
	if !m.AllDisksHealthy() {
		t.Fatal("AllDisksHealthy false with every disk Healthy")
	}

	for i := 1; i < DefaultSuspectThreshold; i++ {
		readThrough(t, m, a)
	}
	if got := m.DiskState(1); got != Suspect {
		t.Fatalf("after %d transients: state = %v, want suspect", DefaultSuspectThreshold, got)
	}
	if m.AllDisksHealthy() {
		t.Fatal("AllDisksHealthy true with a Suspect disk")
	}
	r := m.Health()
	if r.Disks[1].Transients != DefaultSuspectThreshold || r.Disks[1].Transitions != 1 {
		t.Fatalf("report row = %+v, want %d transients, 1 transition", r.Disks[1], DefaultSuspectThreshold)
	}
	if len(r.Unhealthy()) != 1 || r.Unhealthy()[0].Disk != 1 {
		t.Fatalf("Unhealthy() = %+v, want just disk 1", r.Unhealthy())
	}
}

// Transients outside the sliding window do not accumulate toward
// Suspect: spreading them further apart than the window keeps the disk
// Healthy.
func TestHealthTransientWindowSlides(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	m.SetSuspectThresholds(2, 4) // 2 transients within 4 steps
	a := Addr{Disk: 0, Block: 0}
	pad := Addr{Disk: 1, Block: 0}
	si := &scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultTransient}, pad: {}}}
	m.SetFaultInjector(si)

	readThrough(t, m, a)
	// Burn more than the window in clean steps on the other disk.
	for i := 0; i < 6; i++ {
		readThrough(t, m, pad)
	}
	readThrough(t, m, a)
	if got := m.DiskState(0); got != Healthy {
		t.Fatalf("stale transient counted: state = %v, want healthy", got)
	}
	// Two inside one window do promote.
	readThrough(t, m, a)
	if got := m.DiskState(0); got != Suspect {
		t.Fatalf("state = %v, want suspect", got)
	}
}

func TestHealthFailStopMarksFailedAndReachability(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 4})
	a := Addr{Disk: 2, Block: 0}
	si := &scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultFailStop}}}
	m.SetFaultInjector(si)

	readThrough(t, m, a)
	r := m.Health()
	if r.Disks[2].State != Failed || r.Disks[2].Reachable {
		t.Fatalf("after fail-stop: %+v, want failed and unreachable", r.Disks[2])
	}

	// The drive comes back: a clean access flips reachability but the
	// state stays Failed until a repair vouches for the data.
	delete(si.faults, a)
	if err := readThrough(t, m, a); err != nil {
		t.Fatalf("healed access: %v", err)
	}
	r = m.Health()
	if r.Disks[2].State != Failed || !r.Disks[2].Reachable {
		t.Fatalf("after healed access: %+v, want failed and reachable", r.Disks[2])
	}
}

func TestHealthChecksumMarksFailed(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	a := Addr{Disk: 0, Block: 0}
	m.WriteBlock(a, []Word{1, 2, 3})
	m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultCorrupt, Bit: 5}}, once: true})
	if readThrough(t, m, a) == nil {
		t.Fatal("corrupted read did not error")
	}
	r := m.Health()
	if r.Disks[0].State != Failed || !r.Disks[0].Reachable {
		t.Fatalf("after checksum mismatch: %+v, want failed and reachable", r.Disks[0])
	}
}

func TestHealthStallDoesNotChangeStateButFlagsHedging(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	a := Addr{Disk: 1, Block: 0}
	m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultStall, Stall: 3}}, once: true})
	if err := readThrough(t, m, a); err != nil {
		t.Fatalf("stalled read errored: %v", err)
	}
	if got := m.DiskState(1); got != Healthy {
		t.Fatalf("stall changed state to %v", got)
	}
	if !m.SuspectOrStalling(1) {
		t.Fatal("recently stalled disk must warrant hedging")
	}
	if m.SuspectOrStalling(0) {
		t.Fatal("clean disk flagged for hedging")
	}
}

func TestMarkRepairingLifecycle(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	if m.MarkRepairing(0) {
		t.Fatal("claimed a Healthy disk for repair")
	}
	m.MarkFailed(0)
	if got := m.DiskState(0); got != Failed {
		t.Fatalf("MarkFailed: state = %v", got)
	}
	if !m.MarkRepairing(0) {
		t.Fatal("could not claim a Failed disk")
	}
	if m.MarkRepairing(0) {
		t.Fatal("double-claimed a Repairing disk")
	}
	if m.AllDisksHealthy() || !m.Degraded() {
		t.Fatal("Repairing disk must count as unhealthy and degraded")
	}
	m.MarkHealthy(0)
	if got := m.DiskState(0); got != Healthy || !m.AllDisksHealthy() {
		t.Fatalf("MarkHealthy: state = %v, allHealthy = %v", got, m.AllDisksHealthy())
	}
	if r := m.Health(); r.Disks[0].Transitions != 3 {
		t.Fatalf("transitions = %d, want 3 (failed, repairing, healthy)", r.Disks[0].Transitions)
	}
}

func TestClearDegradedResetsAllDisks(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 4})
	m.MarkFailed(1)
	m.MarkFailed(3)
	if !m.Degraded() {
		t.Fatal("failed disks must degrade the machine")
	}
	m.ClearDegraded()
	if m.Degraded() || !m.AllDisksHealthy() {
		t.Fatal("ClearDegraded must return every disk to Healthy")
	}
	if !m.Health().AllHealthy() {
		t.Fatal("report disagrees with AllDisksHealthy")
	}
}

func TestHealthNotifyFiresOnTransitions(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	fired := 0
	m.SetHealthNotify(func() { fired++ })
	a := Addr{Disk: 0, Block: 0}
	si := &scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultFailStop}}}
	m.SetFaultInjector(si)

	readThrough(t, m, a)
	if fired != 1 {
		t.Fatalf("notify fired %d times after fail-stop, want 1", fired)
	}
	// Same fault again: no transition, no notification.
	readThrough(t, m, a)
	if fired != 1 {
		t.Fatalf("notify fired %d times after repeat fault, want still 1", fired)
	}
	// Reachability flip notifies too.
	delete(si.faults, a)
	readThrough(t, m, a)
	if fired != 2 {
		t.Fatalf("notify fired %d times after reachability, want 2", fired)
	}
}

// ChargeSteps lands modeled backoff on the machine, the op, and the
// health counters, and emits an addr-less event carrying the steps so
// per-event step sums still partition the machine total.
func TestChargeStepsAccountsAndEmits(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	h := &recordingHook{}
	m.SetHook(h)
	op := m.NewOp(7, 1)
	base := m.Stats()

	m.ChargeSteps(op, 5)
	m.ChargeSteps(nil, 2)
	m.ChargeSteps(op, 0) // no-op

	if d := m.Stats().Sub(base); d.ParallelIOs != 7 || d.BlockReads != 0 {
		t.Fatalf("machine charged %d steps %d reads, want 7 and 0", d.ParallelIOs, d.BlockReads)
	}
	if op.Steps() != 5 {
		t.Fatalf("op charged %d steps, want 5", op.Steps())
	}
	if got := m.Health().BackoffSteps; got != 7 {
		t.Fatalf("BackoffSteps = %d, want 7", got)
	}
	evs := h.all()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Steps != 5 || len(evs[0].Addrs) != 0 || evs[0].Op != op.ID() {
		t.Fatalf("first backoff event = %+v", evs[0])
	}
	sum := 0
	for _, e := range evs {
		sum += e.Steps
	}
	if int64(sum) != m.Stats().Sub(base).ParallelIOs {
		t.Fatalf("event steps %d != machine delta %d", sum, m.Stats().Sub(base).ParallelIOs)
	}
}

func TestRecoveryCounters(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	m.NoteRetry()
	m.NoteRetry()
	m.NoteHedges(3)
	m.NoteHedges(0)
	m.NoteRepairChunk(16)
	m.NoteRepairChunk(0)
	r := m.Health()
	if r.Retries != 2 || r.Hedges != 3 || r.RepairChunks != 2 || r.RepairRows != 16 {
		t.Fatalf("counters = %+v", r)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	var zero RetryPolicy
	if zero.Retries() != DefaultRetries {
		t.Fatalf("zero-value Retries() = %d, want %d", zero.Retries(), DefaultRetries)
	}
	if DefaultRetryPolicy().Retries() != DefaultRetries {
		t.Fatal("DefaultRetryPolicy mismatch")
	}
	if (RetryPolicy{MaxRetries: -1}).Retries() != 0 {
		t.Fatal("negative MaxRetries must mean no retries")
	}
	if zero.Backoff(1) != 0 {
		t.Fatal("zero-value policy must not back off")
	}
	p := RetryPolicy{BackoffBase: 2, BackoffFactor: 3}
	if p.Backoff(1) != 2 || p.Backoff(2) != 6 || p.Backoff(3) != 18 {
		t.Fatalf("exponential backoff = %d,%d,%d", p.Backoff(1), p.Backoff(2), p.Backoff(3))
	}
	if (RetryPolicy{BackoffBase: 1, BackoffFactor: 2}).Backoff(40) != maxBackoffSteps {
		t.Fatal("backoff not capped")
	}
}

// The merged-batch charging rule on the fault-aware read: a shared
// attribution list charges the machine once and every listed op in full.
func TestTryBatchReadSharedChargesEveryOp(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m.SetHook(h)
	a := m.NewOp(1, 1)
	b := m.NewOp(2, 1)
	base := m.Stats()
	_, err := m.TryBatchReadInto(new(ReadBuf), nil, []*Op{a, b}, []Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}})
	if err != nil {
		t.Fatalf("TryBatchReadInto: %v", err)
	}
	if d := m.Stats().Sub(base); d.ParallelIOs != 1 || d.BlockReads != 2 {
		t.Errorf("machine charged %d steps %d reads, want 1 and 2 (once)", d.ParallelIOs, d.BlockReads)
	}
	for _, op := range []*Op{a, b} {
		if op.Steps() != 1 || op.Blocks() != 2 {
			t.Errorf("op %d charged steps=%d blocks=%d, want 1/2 (full batch)", op.ID(), op.Steps(), op.Blocks())
		}
	}
	evs := h.all()
	if len(evs) != 1 || len(evs[0].Ops) != 2 || evs[0].Ops[0] != a.ID() || evs[0].Ops[1] != b.ID() {
		t.Errorf("event attribution = %+v", evs)
	}
}
