// Package health is the per-disk health state machine of a parallel
// disk machine. The machine classifies every access of its Try batches
// and hands the list to a Tracker, which runs one small state machine
// per disk:
//
//	Healthy → Suspect    N transient errors within W parallel-I/O steps
//	any     → Failed     fail-stop, injected corruption, or checksum mismatch
//	Failed  → Repairing  MarkRepairing (the repair supervisor claims the disk)
//	any     → Healthy    MarkHealthy (a clean scrub of the disk's stripe)
//
// Thresholds are stated in parallel-I/O steps, the machine's
// deterministic clock, so a seed walks the same states on every run. A
// state is an unexported field only Tracker.toLocked writes: the
// transition and unhealthy-disk counts cannot drift from the states.
package health

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// State is one disk's position in the health state machine.
type State uint8

// Health states.
const (
	Healthy   State = iota // no evidence against the disk
	Suspect                // a transient burst: hedge reads, verify with a scrub
	Failed                 // fail-stop or damage seen: the data needs repair
	Repairing              // claimed by a repair supervisor; a fault demotes it to Failed

	numStates
)

// stateNames are the states' report and metric names, indexed by state.
var stateNames = [numStates]string{
	Healthy:   "healthy",
	Suspect:   "suspect",
	Failed:    "failed",
	Repairing: "repairing",
}

// String names the state as used in reports and metrics. An out-of-range
// value prints under the name the machine exports the type as.
func (s State) String() string {
	if s < numStates {
		return stateNames[s]
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// Default Healthy → Suspect edge: this many transient errors within a
// sliding window this many parallel-I/O steps wide.
const (
	DefaultSuspectThreshold = 3
	DefaultSuspectWindow    = 256
)

// Outcome classifies one access of a Try batch.
type Outcome uint8

// Access outcomes, in the order a batch's classification checks them.
const (
	OK        Outcome = iota // the access went through cleanly
	FailStop                 // the disk did not answer
	Damaged                  // the disk answered with a corrupt block
	Transient                // a transient error turned the access away
	Stall                    // the access went through, late
)

// Access is one classified access of a batch.
type Access struct {
	Disk    int
	Outcome Outcome
}

// Transition is one disk's change of state, handed back to the caller
// so it can announce it once the tracker's lock is released.
type Transition struct {
	Disk     int
	From, To State
	Step     int64 // the step counter the caller passed in
}

// DiskHealth is one disk's row of a health report.
type DiskHealth struct {
	Disk        int   `json:"disk"`
	State       State `json:"state"`
	Transitions int64 `json:"transitions"`
	Transients  int64 `json:"transients"`
	Faults      int64 `json:"faults"`
	LastFault   int64 `json:"last_fault_step"`
	// Reachable, in the Failed state: an access got through after the
	// failure, so the drive is answering again and repair can begin.
	Reachable bool `json:"reachable"`
}

// row is one disk's tracker state.
type row struct {
	state       State   // guarded by Tracker.mu; written only by toLocked
	transitions int64   // guarded by Tracker.mu
	transients  int64   // guarded by Tracker.mu
	faults      int64   // guarded by Tracker.mu; fault outcomes observed on this disk (stalls included)
	lastFault   int64   // guarded by Tracker.mu; step counter at the most recent fault
	lastStall   int64   // guarded by Tracker.mu; step counter at the most recent stall, -1 = never
	reachable   bool    // guarded by Tracker.mu; Failed only: a later access got through (drive is back)
	window      []int64 // guarded by Tracker.mu; steps of the transients inside the suspect window
}

// Tracker holds every disk's state machine. Its methods are safe for
// concurrent use; AllHealthy is a single atomic load.
type Tracker struct {
	mu       sync.Mutex
	disks    []row  // guarded by mu
	notify   func() // guarded by mu
	suspectN int    // guarded by mu
	suspectW int64  // guarded by mu
	// unhealthy mirrors how many disks are not Healthy.
	unhealthy atomic.Int64
}

// New returns a tracker for the given number of disks, all Healthy,
// with the default suspect thresholds.
func New(disks int) *Tracker {
	t := &Tracker{
		disks:    make([]row, disks),
		suspectN: DefaultSuspectThreshold,
		suspectW: DefaultSuspectWindow,
	}
	for d := range t.disks {
		t.disks[d].lastStall = -1
	}
	return t
}

// toLocked moves one disk to state s at the given step, maintaining the
// transition count and the unhealthy-disk counter, and appends the
// transition to out. It is the only code that writes a state. Callers
// hold t.mu.
func (t *Tracker) toLocked(out []Transition, disk int, s State, step int64) []Transition {
	h := &t.disks[disk]
	if h.state == s {
		return out
	}
	from := h.state
	if from == Healthy {
		t.unhealthy.Add(1)
	} else if s == Healthy {
		t.unhealthy.Add(-1)
	}
	h.state = s
	h.transitions++
	return append(out, Transition{Disk: disk, From: from, To: s, Step: step})
}

// Observe folds one batch's classified accesses, in batch order, into
// the per-disk state machines at the given step, appends the resulting
// transitions to out, and returns it. When anything actionable happened
// — a transition, or a Failed disk answering again — it calls the
// notify callback after releasing its lock. Observing allocates nothing
// beyond what appending to out takes.
func (t *Tracker) Observe(out []Transition, accesses []Access, step int64) []Transition {
	start, woke := len(out), false
	t.mu.Lock()
	for _, a := range accesses {
		h := &t.disks[a.Disk]
		if a.Outcome != OK {
			h.faults++
			h.lastFault = step
		}
		switch a.Outcome {
		case Stall:
			h.lastStall = step
			fallthrough
		case OK:
			// The access got through, late or not: a Failed disk is
			// answering again. Leave the state to the supervisor, but
			// record reachability and wake it.
			if h.state == Failed && !h.reachable {
				h.reachable, woke = true, true
			}
		case FailStop:
			h.reachable = false
			out = t.toLocked(out, a.Disk, Failed, step)
		case Damaged:
			// The disk answered, but with damage: Failed and immediately
			// reachable, so repair can start without waiting for traffic.
			// A disk already claimed as Repairing stays claimed — the bad
			// block keeps failing client reads until the rebuild rewrites
			// it, and demoting mid-repair would restart the job forever
			// under traffic. (Fail-stop still demotes: the drive vanished.)
			h.reachable = true
			if h.state != Repairing {
				out = t.toLocked(out, a.Disk, Failed, step)
			}
		case Transient:
			h.transients++
			h.window = append(h.window, step)
			lo := 0
			for lo < len(h.window) && h.window[lo] <= step-t.suspectW {
				lo++
			}
			if lo > 0 {
				h.window = append(h.window[:0], h.window[lo:]...)
			}
			if h.state == Healthy && len(h.window) >= t.suspectN {
				out = t.toLocked(out, a.Disk, Suspect, step)
			}
		}
	}
	var notify func()
	if woke || len(out) > start {
		notify = t.notify
	}
	t.mu.Unlock()
	if notify != nil {
		notify()
	}
	return out
}

// MarkRepairing claims a disk for repair: Failed or Suspect becomes
// Repairing. It returns the transition, or nothing when the disk is
// Healthy (nothing to repair) or already Repairing.
func (t *Tracker) MarkRepairing(disk int, step int64) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := &t.disks[disk]
	if h.state != Failed && h.state != Suspect {
		return nil
	}
	h.reachable = false
	return t.toLocked(nil, disk, Repairing, step)
}

// MarkFailed demotes a disk to Failed and leaves it reachable (the
// failure was observed by the repairer, not a fail-stop).
func (t *Tracker) MarkFailed(disk int, step int64) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.disks[disk].reachable = true
	return t.toLocked(nil, disk, Failed, step)
}

// MarkHealthy returns a disk to Healthy and clears its transient window.
func (t *Tracker) MarkHealthy(disk int, step int64) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.healthyLocked(nil, disk, step)
}

// Reset returns every disk to Healthy, clearing transient windows.
func (t *Tracker) Reset(step int64) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Transition
	for d := range t.disks {
		out = t.healthyLocked(out, d, step)
	}
	return out
}

// healthyLocked is MarkHealthy for one disk. Callers hold t.mu.
func (t *Tracker) healthyLocked(out []Transition, disk int, step int64) []Transition {
	h := &t.disks[disk]
	h.reachable = false
	h.window = h.window[:0]
	return t.toLocked(out, disk, Healthy, step)
}

// Report returns a consistent snapshot of every disk's row.
func (t *Tracker) Report() []DiskHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]DiskHealth, len(t.disks))
	for d := range t.disks {
		h := &t.disks[d]
		out[d] = DiskHealth{
			Disk:        d,
			State:       h.state,
			Transitions: h.transitions,
			Transients:  h.transients,
			Faults:      h.faults,
			LastFault:   h.lastFault,
			Reachable:   h.reachable,
		}
	}
	return out
}

// State returns one disk's current state.
func (t *Tracker) State(disk int) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.disks[disk].state
}

// AllHealthy reports whether every disk is Healthy: one atomic load.
func (t *Tracker) AllHealthy() bool {
	return t.unhealthy.Load() == 0
}

// SuspectOrStalling reports whether a disk is Suspect, or stalled within
// the suspect window before step now.
func (t *Tracker) SuspectOrStalling(disk int, now int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := &t.disks[disk]
	return h.state == Suspect || h.lastStall >= 0 && now-h.lastStall <= t.suspectW
}

// SetNotify installs (or, with nil, removes) the callback Observe fires
// when something actionable happened.
func (t *Tracker) SetNotify(fn func()) {
	t.mu.Lock()
	t.notify = fn
	t.mu.Unlock()
}

// SetSuspectThresholds sets the Healthy → Suspect edge: n transient
// errors within window steps. Non-positive arguments restore the
// defaults.
func (t *Tracker) SetSuspectThresholds(n int, window int64) {
	if n <= 0 {
		n = DefaultSuspectThreshold
	}
	if window <= 0 {
		window = DefaultSuspectWindow
	}
	t.mu.Lock()
	t.suspectN = n
	t.suspectW = window
	t.mu.Unlock()
}
