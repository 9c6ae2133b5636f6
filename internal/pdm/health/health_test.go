package health

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHealthStateNames(t *testing.T) {
	seen := map[string]State{}
	for s := State(0); s < numStates; s++ {
		name := s.String()
		if name == "" {
			t.Errorf("state %d has an empty name", s)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("states %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if got := State(4).String(); got != "HealthState(4)" {
		t.Errorf("State(4).String() = %q, want the HealthState(4) fallback", got)
	}
}

// TestTrackerInvariants drives random observations, supervisor marks and
// resets, and checks after every step the invariants that toLocked being
// the only writer of a state is there to keep.
func TestTrackerInvariants(t *testing.T) {
	const disks = 5
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(disks)
		tr.SetSuspectThresholds(2, 16)
		var handed int64
		for step := int64(0); step < 2000; step++ {
			var got []Transition
			switch k := rng.Intn(10); {
			case k < 6:
				acc := make([]Access, 1+rng.Intn(2*disks))
				for i := range acc {
					acc[i] = Access{Disk: rng.Intn(disks), Outcome: Outcome(rng.Intn(int(Stall) + 1))}
				}
				got = tr.Observe(nil, acc, step)
			case k == 6:
				got = tr.MarkRepairing(rng.Intn(disks), step)
			case k == 7:
				got = tr.MarkFailed(rng.Intn(disks), step)
			case k == 8:
				got = tr.MarkHealthy(rng.Intn(disks), step)
			default:
				got = tr.Reset(step)
			}
			for _, x := range got {
				if x.From == x.To {
					t.Fatalf("seed %d step %d: handed back a self-transition %+v", seed, step, x)
				}
			}
			handed += int64(len(got))

			rows := tr.Report()
			unhealthy := 0
			var counted int64
			for _, r := range rows {
				if r.State != Healthy {
					unhealthy++
				}
				counted += r.Transitions
			}
			if tr.AllHealthy() != (unhealthy == 0) {
				t.Fatalf("seed %d step %d: AllHealthy() = %v with %d non-Healthy disks", seed, step, tr.AllHealthy(), unhealthy)
			}
			if counted != handed {
				t.Fatalf("seed %d step %d: rows count %d transitions, %d were handed back", seed, step, counted, handed)
			}
		}
	}
}

// Batches and the repair supervisor reach one tracker from many
// goroutines: under -race, concurrent observations, marks and reports
// must still account every transition exactly once.
func TestTrackerConcurrentUse(t *testing.T) {
	const disks, workers = 4, 4
	tr := New(disks)
	var wg sync.WaitGroup
	var handed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var out []Transition
			for step := int64(0); step < 500; step++ {
				d := rng.Intn(disks)
				switch rng.Intn(4) {
				case 0:
					out = tr.Observe(out[:0], []Access{{Disk: d, Outcome: Outcome(rng.Intn(int(Stall) + 1))}}, step)
				case 1:
					out = tr.MarkRepairing(d, step)
				case 2:
					out = tr.MarkHealthy(d, step)
				default:
					out = out[:0]
					tr.Report()
					tr.SuspectOrStalling(d, step)
				}
				handed.Add(int64(len(out)))
			}
		}(int64(w))
	}
	wg.Wait()
	var counted int64
	for _, r := range tr.Report() {
		counted += r.Transitions
	}
	if counted != handed.Load() {
		t.Fatalf("rows count %d transitions, %d were handed back", counted, handed.Load())
	}
}

// Observing into warm storage allocates nothing: the machine calls
// Observe on every batch of a degraded run.
func TestObserveAllocatesNothing(t *testing.T) {
	tr := New(2)
	tr.SetSuspectThresholds(8, 4)
	acc := []Access{{Disk: 0, Outcome: FailStop}, {Disk: 1, Outcome: Transient}, {Disk: 0, Outcome: OK}}
	var out []Transition
	step := int64(0)
	observe := func() {
		step++
		out = tr.Observe(out[:0], acc, step)
	}
	for i := 0; i < 16; i++ {
		observe()
	}
	if avg := testing.AllocsPerRun(1000, observe); avg != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", avg)
	}
}
