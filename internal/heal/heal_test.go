package heal

import (
	"sync"
	"testing"
	"time"

	"pdmdict/internal/core"
	"pdmdict/internal/fault"
	"pdmdict/internal/pdm"
)

func buildReplicated(t *testing.T, d, b, n, k int) (*pdm.Machine, *core.BasicDict) {
	t.Helper()
	m := pdm.NewMachine(pdm.Config{D: d, B: b})
	bd, err := core.NewBasic(m, core.BasicConfig{Capacity: n, SatWords: 3, K: k, Replicate: true, Seed: 7})
	if err != nil {
		t.Fatalf("NewBasic: %v", err)
	}
	for i := 0; i < n; i++ {
		key := pdm.Word(i)*2654435761 + 1
		if err := bd.Insert(key, []pdm.Word{pdm.Word(i), key, key ^ 0xabc}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return m, bd
}

func checkAll(t *testing.T, bd *core.BasicDict, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := pdm.Word(i)*2654435761 + 1
		sat, ok, err := bd.LookupTry(key)
		if err != nil || !ok || sat[1] != key {
			t.Fatalf("key %d: ok=%v err=%v sat=%v", i, ok, err, sat)
		}
	}
}

func snapshotDisk(m *pdm.Machine, disk, blocks int) [][]pdm.Word {
	out := make([][]pdm.Word, blocks)
	for b := 0; b < blocks; b++ {
		out[b] = m.Peek(pdm.Addr{Disk: disk, Block: b})
	}
	return out
}

// A wiped, repairer-marked disk is rebuilt bit-identically by driving
// Tick until the supervisor goes idle — no goroutine, fully
// deterministic.
func TestTickRepairsWipedDiskBitIdentical(t *testing.T) {
	const d, b, n, disk = 6, 64, 250, 2
	m, bd := buildReplicated(t, d, b, n, 2)
	blocks := bd.BlocksPerDisk()
	before := snapshotDisk(m, disk, blocks)
	m.WipeDisk(disk)
	m.MarkFailed(disk) // reachable: the supervisor may start immediately

	s := New(m, bd, Config{ChunkRows: 3})
	steps := 0
	for s.Tick() {
		if steps++; steps > 10_000 {
			t.Fatal("supervisor did not converge")
		}
	}
	if got := m.DiskState(disk); got != pdm.Healthy {
		t.Fatalf("disk state after repair = %v", got)
	}
	if !s.Idle() {
		t.Fatal("supervisor retains an episode after healing")
	}
	after := snapshotDisk(m, disk, blocks)
	for i := range before {
		if len(before[i]) != len(after[i]) {
			t.Fatalf("block %d: length %d != %d", i, len(after[i]), len(before[i]))
		}
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("block %d word %d differs after repair", i, j)
			}
		}
	}
	checkAll(t, bd, n)
}

// An unreachable failed disk is left alone; reachability (a successful
// access observed by traffic) releases the repair.
func TestTickWaitsForReachability(t *testing.T) {
	const d, b, n, disk = 4, 64, 120, 1
	m, bd := buildReplicated(t, d, b, n, 2)
	plan := fault.NewPlan(3)
	m.SetFaultInjector(plan)
	plan.FailDisk(disk)
	// Traffic observes the fail-stop: Failed, unreachable.
	for i := 0; i < n && m.DiskState(disk) != pdm.Failed; i++ {
		key := pdm.Word(i)*2654435761 + 1
		//lint:pdm-allow iocharge: error path is the point
		bd.LookupTry(key)
	}
	if m.DiskState(disk) != pdm.Failed {
		t.Fatal("fail-stop not observed")
	}
	s := New(m, bd, Config{})
	if s.Tick() {
		t.Fatal("supervisor acted on an unreachable disk")
	}
	// The drive comes back; the next access that touches it proves it.
	plan.HealDisk(disk)
	for i := 0; i < n; i++ {
		key := pdm.Word(i)*2654435761 + 1
		//lint:pdm-allow iocharge: recovery probe
		bd.LookupTry(key)
	}
	rep := m.Health()
	if !rep.Disks[disk].Reachable {
		t.Fatal("reachability not recorded")
	}
	for s.Tick() {
	}
	if got := m.DiskState(disk); got != pdm.Healthy {
		t.Fatalf("disk state = %v after recovery", got)
	}
	checkAll(t, bd, n)
}

// Updates that land while a repair is mid-flight must be honored by the
// rebuilt stripe: no resurrected deletes, no clobbered inserts.
func TestRepairUnderUpdates(t *testing.T) {
	const d, b, n, disk = 6, 64, 200, 3
	m, bd := buildReplicated(t, d, b, n, 2)
	m.WipeDisk(disk)
	m.MarkFailed(disk)

	s := New(m, bd, Config{ChunkRows: 1}) // smallest chunks: max interleaving
	key := func(i int) pdm.Word { return pdm.Word(i)*2654435761 + 1 }
	deleted := map[int]bool{}
	inserted := []pdm.Word{}
	i := 0
	steps := 0
	for s.Tick() {
		if steps++; steps > 100_000 {
			t.Fatal("supervisor did not converge")
		}
		// Interleave one delete and one insert between every chunk.
		if i < n/2 {
			if !bd.Delete(key(i)) {
				t.Fatalf("delete %d: not present", i)
			}
			deleted[i] = true
			nk := pdm.Word(0x10_0000 + i)
			if err := bd.Insert(nk, []pdm.Word{nk, nk ^ 1, nk ^ 2}); err != nil {
				t.Fatalf("insert %v: %v", nk, err)
			}
			inserted = append(inserted, nk)
			i++
		}
	}
	if got := m.DiskState(disk); got != pdm.Healthy {
		t.Fatalf("disk state = %v", got)
	}
	for j := 0; j < n; j++ {
		sat, ok := bd.Lookup(key(j))
		if deleted[j] {
			if ok {
				t.Fatalf("deleted key %d resurrected by repair", j)
			}
			continue
		}
		if !ok || sat[1] != key(j) {
			t.Fatalf("surviving key %d: ok=%v sat=%v", j, ok, sat)
		}
	}
	for _, nk := range inserted {
		sat, ok := bd.Lookup(nk)
		if !ok || sat[0] != nk {
			t.Fatalf("inserted key %v lost: ok=%v sat=%v", nk, ok, sat)
		}
	}
	if bad := bd.Scrub(); len(bad) != 0 {
		t.Fatalf("post-repair scrub found %d bad blocks", len(bad))
	}
}

// A repair that keeps failing (its survivors are unreadable) parks the
// episode after MaxAttempts and demotes the disk back to Failed.
func TestRepairParksAfterMaxAttempts(t *testing.T) {
	const d, b, n = 4, 64, 120
	m, bd := buildReplicated(t, d, b, n, 2)
	plan := fault.NewPlan(5)
	m.SetFaultInjector(plan)
	m.WipeDisk(2)
	m.MarkFailed(2)
	plan.FailDisk(1) // a survivor is down: collect chunks cannot finish

	s := New(m, bd, Config{ChunkRows: 2, MaxAttempts: 3})
	steps := 0
	for s.Tick() {
		if steps++; steps > 10_000 {
			t.Fatal("supervisor did not park")
		}
	}
	if got := m.DiskState(2); got != pdm.Failed {
		t.Fatalf("disk state = %v, want parked Failed", got)
	}
	// Ticking again does nothing: the episode is parked.
	if s.Tick() {
		t.Fatal("parked episode still working")
	}
	rep := m.Health()
	if rep.RepairChunks == 0 {
		t.Fatal("no repair chunks recorded")
	}
}

// A Suspect disk is verified by scrub only: with no actual damage it
// returns to Healthy without a rebuild.
func TestSuspectVerifiedByScrub(t *testing.T) {
	const d, b, n = 4, 64, 120
	m, bd := buildReplicated(t, d, b, n, 2)
	m.SetSuspectThresholds(1, 1<<20)
	plan := fault.NewPlan(9)
	m.SetFaultInjector(plan)
	plan.SetTransient(1)
	//lint:pdm-allow iocharge: transient burst is the point
	bd.LookupTry(pdm.Word(1)*2654435761 + 1)
	plan.SetTransient(0)
	suspects := 0
	for disk := 0; disk < d; disk++ {
		if m.DiskState(disk) == pdm.Suspect {
			suspects++
		}
	}
	if suspects == 0 {
		t.Fatal("transient burst raised no suspicion")
	}
	s := New(m, bd, Config{ChunkRows: 4})
	for s.Tick() {
	}
	if !m.AllDisksHealthy() {
		t.Fatalf("suspect disks not cleared: %+v", m.Health().Unhealthy())
	}
	if m.Health().RepairRows == 0 {
		t.Fatal("verification scrub not accounted as repair rows")
	}
}

// The notification-driven background loop heals a fail/heal episode
// under concurrent client traffic, with nothing but health transitions
// to wake it.
func TestSupervisorBackgroundHealsUnderTraffic(t *testing.T) {
	const d, b, n, disk = 6, 64, 200, 4
	m, bd := buildReplicated(t, d, b, n, 2)
	plan := fault.NewPlan(11)
	m.SetFaultInjector(plan)

	s := New(m, bd, Config{ChunkRows: 2})
	s.Start()
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := pdm.Word(i%n)*2654435761 + 1
				sat, ok, err := bd.LookupTry(key)
				if err == nil && ok && sat[1] != key {
					t.Errorf("client %d: wrong satellite for key %d", c, i%n)
					return
				}
				i += 7
			}
		}(c)
	}

	plan.FailDisk(disk)
	waitFor(t, "failure observed", func() bool { return m.DiskState(disk) != pdm.Healthy })
	plan.HealDisk(disk)
	waitFor(t, "disk healed", func() bool { return m.AllDisksHealthy() })
	close(stop)
	wg.Wait()
	checkAll(t, bd, n)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
