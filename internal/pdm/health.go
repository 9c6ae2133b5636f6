package pdm

import "fmt"

// Per-disk health. The machine watches the fault outcomes flowing
// through its Try batch methods and runs one small state machine per
// disk:
//
//	Healthy → Suspect    N transient errors within W parallel-I/O steps
//	any     → Failed     fail-stop, injected corruption, or checksum mismatch
//	Failed  → Repairing  MarkRepairing (the repair supervisor claims the disk)
//	any     → Healthy    MarkHealthy (a clean scrub of the disk's stripe)
//
// Every threshold is stated in parallel-I/O steps — the machine's own
// deterministic clock — never in wall time, so the same seed and
// workload walk the same state sequence on every run. The legacy
// machine-wide Degraded bit remains as a derived view: it reports true
// whenever any disk is unhealthy OR any data-threatening fault has been
// observed since the last ClearDegraded (the PR 2 semantics, preserved
// so that a single transient error still flags the machine until a
// clean scrub).

// HealthState is one disk's position in the health state machine.
type HealthState uint8

// Health states.
const (
	// Healthy: no evidence against the disk.
	Healthy HealthState = iota
	// Suspect: a burst of transient errors (SuspectThreshold within
	// SuspectWindow steps). Retry policies may hedge reads against a
	// suspect disk; the repair supervisor verifies it with a scrub.
	Suspect
	// Failed: a fail-stop, injected corruption, or checksum mismatch was
	// observed. The disk's data can no longer be trusted; repair is
	// required before the disk returns to Healthy.
	Failed
	// Repairing: a repair supervisor has claimed the disk and is
	// rebuilding its stripe. A further fault regresses the disk to
	// Failed, which tells the supervisor to restart from scratch.
	Repairing
)

// String names the state as used in reports and metrics.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	case Repairing:
		return "repairing"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// HealthTagPrefix prefixes the Tag of every EventHealth event: the tag
// is HealthTagPrefix + the destination state's String() (e.g.
// "health.failed"), mirroring how fault events use FaultTagPrefix.
const HealthTagPrefix = "health."

// Default deterministic thresholds for the Healthy → Suspect edge.
const (
	// DefaultSuspectThreshold is how many transient errors within the
	// window move a disk from Healthy to Suspect.
	DefaultSuspectThreshold = 3
	// DefaultSuspectWindow is the width of that sliding window, in
	// parallel-I/O steps.
	DefaultSuspectWindow = 256
)

// diskHealth is one disk's tracker state. Guarded by Machine.healthMu.
type diskHealth struct {
	state       HealthState // guarded by Machine.healthMu; written only by transitionLocked
	transitions int64       // guarded by Machine.healthMu
	transients  int64       // guarded by Machine.healthMu
	faults      int64       // guarded by Machine.healthMu; fault events observed on this disk (stalls included)
	lastFault   int64       // guarded by Machine.healthMu; step counter at the most recent fault
	lastStall   int64       // guarded by Machine.healthMu; step counter at the most recent stall, -1 = never
	reachable   bool        // guarded by Machine.healthMu; Failed only: a later access got through (drive is back)
	window      []int64     // guarded by Machine.healthMu
}

// DiskHealth is one disk's row of a HealthReport.
type DiskHealth struct {
	Disk        int         `json:"disk"`
	State       HealthState `json:"state"`
	Transitions int64       `json:"transitions"`
	Transients  int64       `json:"transients"`
	Faults      int64       `json:"faults"`
	LastFault   int64       `json:"last_fault_step"`
	// Reachable is meaningful in the Failed state: it reports that an
	// access to the disk succeeded after the failure was observed, i.e.
	// the drive is answering again and repair can begin.
	Reachable bool `json:"reachable"`
}

// HealthReport is a consistent snapshot of every disk's health plus the
// machine-wide recovery counters.
type HealthReport struct {
	Disks []DiskHealth `json:"disks"`

	// Recovery instrumentation, accumulated by the retry/repair layers
	// through NoteRetry, NoteHedges, and NoteRepairChunk, and by
	// ChargeSteps for modeled backoff.
	Retries      int64 `json:"retries"`       // retry batches issued
	Hedges       int64 `json:"hedges"`        // hedged duplicate reads issued
	BackoffSteps int64 `json:"backoff_steps"` // modeled backoff pIOs charged
	RepairChunks int64 `json:"repair_chunks"` // incremental repair/scrub chunks run
	RepairRows   int64 `json:"repair_rows"`   // bucket rows processed by those chunks
}

// AllHealthy reports whether every disk is in the Healthy state.
func (r HealthReport) AllHealthy() bool {
	for _, d := range r.Disks {
		if d.State != Healthy {
			return false
		}
	}
	return true
}

// Unhealthy returns the disks not in the Healthy state, in disk order.
func (r HealthReport) Unhealthy() []DiskHealth {
	var out []DiskHealth
	for _, d := range r.Disks {
		if d.State != Healthy {
			out = append(out, d)
		}
	}
	return out
}

// Health returns a snapshot of the per-disk health state machine and
// the recovery counters.
func (m *Machine) Health() HealthReport {
	r := HealthReport{
		Disks:        make([]DiskHealth, m.cfg.D),
		Retries:      m.retries.Load(),
		Hedges:       m.hedges.Load(),
		BackoffSteps: m.backoffSteps.Load(),
		RepairChunks: m.repairChunks.Load(),
		RepairRows:   m.repairRows.Load(),
	}
	m.healthMu.Lock()
	for d := range m.health {
		h := &m.health[d]
		r.Disks[d] = DiskHealth{
			Disk:        d,
			State:       h.state,
			Transitions: h.transitions,
			Transients:  h.transients,
			Faults:      h.faults,
			LastFault:   h.lastFault,
			Reachable:   h.reachable,
		}
	}
	m.healthMu.Unlock()
	return r
}

// DiskState returns one disk's current health state.
func (m *Machine) DiskState(disk int) HealthState {
	m.checkAddr(Addr{Disk: disk})
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	return m.health[disk].state
}

// AllDisksHealthy reports whether every disk is Healthy. It reads one
// atomic counter, so it is safe to call from anywhere — including a
// FaultInjector's Access method, which runs under the machine's fault
// lock (chaos schedules use it to gate scripted damage on recovery).
func (m *Machine) AllDisksHealthy() bool {
	return m.unhealthy.Load() == 0
}

// StepCount returns the machine's cumulative parallel-I/O step counter —
// the deterministic clock health thresholds, backoff, and chaos
// schedules are stated in. Like AllDisksHealthy it is one atomic load.
func (m *Machine) StepCount() int64 {
	return m.pios.Load()
}

// SetHealthNotify installs (or, with nil, removes) the health
// notification callback. It fires after a disk changes state and after
// an access to a Failed disk succeeds (the drive is answering again) —
// the two signals a repair supervisor needs to wake on. The callback
// runs on the goroutine that issued the triggering batch, outside the
// machine's locks; it must be fast and non-blocking (typically a
// buffered-channel send with a default case).
func (m *Machine) SetHealthNotify(fn func()) {
	m.healthMu.Lock()
	m.healthNotify = fn
	m.healthMu.Unlock()
}

// SetSuspectThresholds overrides the Healthy → Suspect edge: n transient
// errors within window parallel-I/O steps. Non-positive arguments
// restore the defaults.
func (m *Machine) SetSuspectThresholds(n int, window int64) {
	if n <= 0 {
		n = DefaultSuspectThreshold
	}
	if window <= 0 {
		window = DefaultSuspectWindow
	}
	m.healthMu.Lock()
	m.suspectN = n
	m.suspectW = window
	m.healthMu.Unlock()
}

// transitionLocked moves one disk to a new state, maintaining the
// transition count and the unhealthy-disk counter, and queues an
// EventHealth annotation for the transition (drained by the caller via
// drainHealthEventsLocked and emitted once healthMu is released, so
// hooks never run under the health lock). Callers hold m.healthMu.
func (m *Machine) transitionLocked(disk int, to HealthState) {
	h := &m.health[disk]
	if h.state == to {
		return
	}
	from := h.state
	if from == Healthy {
		m.unhealthy.Add(1)
	} else if to == Healthy {
		m.unhealthy.Add(-1)
	}
	h.state = to
	h.transitions++
	m.healthEvents = append(m.healthEvents, Event{
		Kind:  EventHealth,
		Tag:   HealthTagPrefix + to.String(),
		Addrs: []Addr{{Disk: disk}},
		From:  from.String(),
		To:    to.String(),
		Step:  m.pios.Load(),
	})
}

// drainHealthEventsLocked hands the queued health transitions to the
// caller for emission and resets the queue. Callers hold m.healthMu and
// emit (or drop) the returned events after releasing it.
func (m *Machine) drainHealthEventsLocked() []Event {
	evs := m.healthEvents
	m.healthEvents = nil
	return evs
}

// MarkRepairing claims a disk for repair: Failed or Suspect becomes
// Repairing. It reports whether the claim succeeded (false when the
// disk is Healthy — nothing to repair — or already Repairing).
func (m *Machine) MarkRepairing(disk int) bool {
	m.checkAddr(Addr{Disk: disk})
	m.healthMu.Lock()
	h := &m.health[disk]
	if h.state != Failed && h.state != Suspect {
		m.healthMu.Unlock()
		return false
	}
	m.transitionLocked(disk, Repairing)
	h.reachable = false
	evs := m.drainHealthEventsLocked()
	m.healthMu.Unlock()
	m.emitAnnotations(evs)
	return true
}

// MarkFailed demotes a disk to Failed — the repair supervisor's path
// for a repair attempt that could not complete. The disk is left
// reachable (the failure was observed by the repairer, not a fail-stop),
// so a later supervisor pass may retry.
func (m *Machine) MarkFailed(disk int) {
	m.checkAddr(Addr{Disk: disk})
	m.healthMu.Lock()
	m.transitionLocked(disk, Failed)
	m.health[disk].reachable = true
	evs := m.drainHealthEventsLocked()
	m.healthMu.Unlock()
	m.emitAnnotations(evs)
}

// MarkHealthy returns a disk to Healthy and clears its transient
// window — the repair supervisor's acknowledgment after a clean scrub
// of the disk's stripe.
func (m *Machine) MarkHealthy(disk int) {
	m.checkAddr(Addr{Disk: disk})
	m.healthMu.Lock()
	m.transitionLocked(disk, Healthy)
	h := &m.health[disk]
	h.reachable = false
	h.window = h.window[:0]
	evs := m.drainHealthEventsLocked()
	m.healthMu.Unlock()
	m.emitAnnotations(evs)
}

// observeHealth folds one Try batch's outcomes — each access's address,
// fault draw (fs nil: none) and error — into the per-disk state machines
// and fires the health notification when anything actionable happened.
// step is the machine's step counter at observation time;
// single-threaded runs observe the same values on every run, which is
// what keeps health transitions trace-deterministic. It returns the
// EventHealth annotations for any transitions, which the calling Try
// batch appends to its emission (after the batch's fault events).
func (m *Machine) observeHealth(addrs []Addr, fs []Fault, res []error, step int64) []Event {
	var notify func()
	actionable := false
	m.healthMu.Lock()
	for i, a := range addrs {
		kind := faultAt(fs, i).Kind
		h := &m.health[a.Disk]
		if res[i] == nil && kind == FaultNone {
			// A successful access to a Failed disk means the drive is
			// answering again: leave the state to the supervisor, but
			// record reachability and wake it.
			if h.state == Failed && !h.reachable {
				h.reachable = true
				actionable = true
			}
			continue
		}
		h.faults++
		h.lastFault = step
		switch {
		case kind == FaultFailStop:
			h.reachable = false
			if h.state != Failed {
				m.transitionLocked(a.Disk, Failed)
				actionable = true
			}
		case kind == FaultCorrupt || res[i] == ErrChecksum:
			// The disk answered, but with damage: Failed and immediately
			// reachable, so repair can start without waiting for traffic.
			// A disk already claimed as Repairing stays claimed — the bad
			// block keeps failing client reads until the rebuild rewrites
			// it, and demoting mid-repair would restart the job forever
			// under traffic. (Fail-stop still demotes: the drive vanished.)
			h.reachable = true
			if h.state != Failed && h.state != Repairing {
				m.transitionLocked(a.Disk, Failed)
				actionable = true
			}
		case kind == FaultTransient:
			h.transients++
			h.window = append(h.window, step)
			lo := 0
			for lo < len(h.window) && h.window[lo] <= step-m.suspectW {
				lo++
			}
			if lo > 0 {
				h.window = append(h.window[:0], h.window[lo:]...)
			}
			if h.state == Healthy && len(h.window) >= m.suspectN {
				m.transitionLocked(a.Disk, Suspect)
				actionable = true
			}
		case kind == FaultStall:
			h.lastStall = step
			// A stalled access still got through — that counts as
			// reachability evidence for a Failed disk.
			if h.state == Failed && !h.reachable {
				h.reachable = true
				actionable = true
			}
		}
	}
	if actionable {
		notify = m.healthNotify
	}
	evs := m.drainHealthEventsLocked()
	m.healthMu.Unlock()
	if notify != nil {
		notify()
	}
	return evs
}

// SuspectOrStalling reports whether a disk warrants hedged reads: it is
// Suspect, or it stalled within the suspect window. Retry policies with
// hedging enabled consult this before re-issuing a failed read.
func (m *Machine) SuspectOrStalling(disk int) bool {
	m.checkAddr(Addr{Disk: disk})
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h := &m.health[disk]
	if h.state == Suspect {
		return true
	}
	return h.lastStall >= 0 && m.pios.Load()-h.lastStall <= m.suspectW
}

// NoteRetry counts one retry batch issued by a retry policy.
func (m *Machine) NoteRetry() { m.retries.Add(1) }

// NoteHedges counts n hedged duplicate reads issued by a retry policy.
func (m *Machine) NoteHedges(n int) {
	if n > 0 {
		m.hedges.Add(int64(n))
	}
}

// NoteRepairChunk counts one incremental repair or scrub chunk covering
// rows bucket rows — the repair supervisor's progress instrumentation.
func (m *Machine) NoteRepairChunk(rows int) {
	m.repairChunks.Add(1)
	if rows > 0 {
		m.repairRows.Add(int64(rows))
	}
}

// ChargeSteps charges steps parallel-I/O steps that transfer no blocks —
// modeled waiting time, such as a retry policy's backoff. The charge
// lands on the machine's step counter, on op (when non-nil), and on the
// backoff tally reported by Health; an addr-less EventRead carrying the
// steps is emitted so traces stay a complete account of the total
// (obs.Replay re-charges such events through this method).
func (m *Machine) ChargeSteps(op *Op, steps int) {
	if steps <= 0 {
		return
	}
	m.charge(steps, 0)
	m.backoffSteps.Add(int64(steps))
	chargeOps(m, op, nil, EventRead, steps, 0, 0)
	if m.hooked.Load() {
		m.emit(op, nil, Event{Kind: EventRead, Steps: steps}, nil)
	}
}
