package pdm

import "pdmdict/internal/pdm/health"

// Per-disk health. The machine classifies every access of its Try
// batches and folds the list into a health.Tracker, which runs one state
// machine per disk and hands back the transitions the machine announces
// as EventHealth annotations. Degraded stays a derived view: true while
// any disk is unhealthy or any data-threatening fault was seen since the
// last ClearDegraded, so a single transient error flags the machine
// until a clean scrub.

// The state machine's names, as the machine has always exported them:
// HealthState is one disk's position (package health documents each
// state), DiskHealth its row of a HealthReport, and the defaults set the
// Healthy → Suspect edge (that many transient errors within a window of
// that many parallel-I/O steps).
type (
	HealthState = health.State
	DiskHealth  = health.DiskHealth
)

const (
	Healthy                 = health.Healthy
	Suspect                 = health.Suspect
	Failed                  = health.Failed
	Repairing               = health.Repairing
	DefaultSuspectThreshold = health.DefaultSuspectThreshold
	DefaultSuspectWindow    = health.DefaultSuspectWindow
)

// HealthTagPrefix prefixes the Tag of every EventHealth event: the tag
// is HealthTagPrefix + the destination state's String() (e.g.
// "health.failed"), mirroring how fault events use FaultTagPrefix.
const HealthTagPrefix = "health."

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
	return HealthReport{
		Disks:        m.tracker.Report(),
		Retries:      m.retries.Load(),
		Hedges:       m.hedges.Load(),
		BackoffSteps: m.backoffSteps.Load(),
		RepairChunks: m.repairChunks.Load(),
		RepairRows:   m.repairRows.Load(),
	}
}

// DiskState returns one disk's current health state.
func (m *Machine) DiskState(disk int) HealthState {
	m.checkAddr(Addr{Disk: disk})
	return m.tracker.State(disk)
}

// AllDisksHealthy reports whether every disk is Healthy. It reads one
// atomic counter, so it is safe to call from anywhere — including a
// FaultInjector's Access method, which runs under the machine's fault
// lock (chaos schedules use it to gate scripted damage on recovery).
func (m *Machine) AllDisksHealthy() bool {
	return m.tracker.AllHealthy()
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
	m.tracker.SetNotify(fn)
}

// SetSuspectThresholds overrides the Healthy → Suspect edge: n transient
// errors within window parallel-I/O steps. Non-positive arguments
// restore the defaults.
func (m *Machine) SetSuspectThresholds(n int, window int64) {
	m.tracker.SetSuspectThresholds(n, window)
}

// healthEvent is the EventHealth annotation announcing one transition.
func healthEvent(tr health.Transition) Event {
	return Event{
		Kind:  EventHealth,
		Tag:   HealthTagPrefix + tr.To.String(),
		Addrs: []Addr{{Disk: tr.Disk}},
		From:  tr.From.String(),
		To:    tr.To.String(),
		Step:  tr.Step,
	}
}

// emitTransitions fires the EventHealth annotations of transitions made
// outside a Try batch (MarkRepairing and friends) under the emission
// lock, stamping each with a sequence number. Unlike emit it attaches no
// op attribution and no span: the transitions were driven by an explicit
// state-machine call, not by a batch.
func (m *Machine) emitTransitions(trs []health.Transition) {
	if len(trs) == 0 || !m.hooked.Load() {
		return
	}
	m.emitMu.Lock()
	if m.hook == nil {
		m.emitMu.Unlock()
		return
	}
	for _, tr := range trs {
		ev := healthEvent(tr)
		m.seq++
		ev.Seq = m.seq
		m.hook.Event(ev)
	}
	m.emitMu.Unlock()
}

// MarkRepairing claims a disk for repair: Failed or Suspect becomes
// Repairing. It reports whether the claim succeeded (false when the
// disk is Healthy — nothing to repair — or already Repairing).
func (m *Machine) MarkRepairing(disk int) bool {
	m.checkAddr(Addr{Disk: disk})
	trs := m.tracker.MarkRepairing(disk, m.pios.Load())
	m.emitTransitions(trs)
	return len(trs) > 0
}

// MarkFailed demotes a disk to Failed — the repair supervisor's path
// for a repair attempt that could not complete. The disk is left
// reachable (the failure was observed by the repairer, not a fail-stop),
// so a later supervisor pass may retry.
func (m *Machine) MarkFailed(disk int) {
	m.checkAddr(Addr{Disk: disk})
	m.emitTransitions(m.tracker.MarkFailed(disk, m.pios.Load()))
}

// MarkHealthy returns a disk to Healthy and clears its transient
// window — the repair supervisor's acknowledgment after a clean scrub
// of the disk's stripe.
func (m *Machine) MarkHealthy(disk int) {
	m.checkAddr(Addr{Disk: disk})
	m.emitTransitions(m.tracker.MarkHealthy(disk, m.pios.Load()))
}

// SuspectOrStalling reports whether a disk warrants hedged reads: it is
// Suspect, or it stalled within the suspect window. Retry policies with
// hedging enabled consult this before re-issuing a failed read.
func (m *Machine) SuspectOrStalling(disk int) bool {
	m.checkAddr(Addr{Disk: disk})
	return m.tracker.SuspectOrStalling(disk, m.pios.Load())
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
// steps is emitted so traces stay a complete account of the total.
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
