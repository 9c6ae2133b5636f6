package pdmdict

import (
	"errors"
	"io"
	"time"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
	"pdmdict/internal/sched"
)

// Scheduled routes a dictionary's operations through the group-commit
// request scheduler (internal/sched): concurrent single-key lookups
// that arrive within an admission window coalesce into ONE merged,
// de-duplicated shared read round, and mutations queue behind a
// checksummed intent log that is applied and flushed once per window —
// so a burst of b independent clients pays the deepest per-disk queue
// of distinct blocks, not b sequential rounds. Per-op charges stay
// exact: every participant of a merged round is charged the round's
// full cost once (see DESIGN.md §15 for the charge convention).
//
// Two clocks, selected by SchedOptions.Window:
//
//   - Window == 0 is deterministic mode: the admission window closes
//     when MaxBatch operations are pending or the machine's step
//     counter advances StepBudget — no wall clock anywhere, so traces
//     are byte-identical run to run for a fixed seed and lockstep
//     workload. Callers must cooperate (run MaxBatch lockstep clients,
//     or Flush) — a partial window blocks until a trigger fires.
//   - Window > 0 is serving mode: a wall timer additionally closes
//     partial windows after the given duration. The timer lives out
//     here, injected into the scheduler as an opaque callback (like
//     SetWallClock), so wall time decides only WHEN a round runs —
//     never what it contains or costs — and stays out of traces by
//     construction.
//
// All methods are safe for concurrent use. A Scheduled caller must not
// also use the wrapped dictionary directly while writes are in flight.
type Scheduled struct {
	d Dictionary
	f *front // d's entry points, for hand-assembled batches
	s *sched.Scheduler
}

var _ Dictionary = (*Scheduled)(nil)

// SchedSnapshot is a point-in-time view of a Scheduled's scheduler; see
// obs.SchedSnapshot for field semantics.
type SchedSnapshot = obs.SchedSnapshot

// ErrOverloaded is returned by Scheduled's write path when the write
// queue is at its configured depth, a flush is already in progress, and
// SchedOptions.Block is false — the backpressure signal.
var ErrOverloaded = sched.ErrOverloaded

// ErrSchedClosed is returned for operations submitted after Close.
var ErrSchedClosed = sched.ErrClosed

// SchedOptions configures NewScheduled. The zero value is a reasonable
// deterministic-mode default (MaxBatch 16, QueueDepth 64, non-blocking
// backpressure, no intent log).
type SchedOptions struct {
	// MaxBatch closes the admission window when this many operations
	// are pending (0 = 16). For deterministic lockstep workloads set it
	// to the client count.
	MaxBatch int
	// Window, when positive, enables serving mode: a wall timer closes
	// partial windows after this duration.
	Window time.Duration
	// StepBudget, when positive, closes the window once the machine's
	// parallel-I/O step counter has advanced this much since the window
	// opened — the deterministic partial-window clock.
	StepBudget int64
	// QueueDepth bounds the pending-write queue (0 = 64). The queue
	// never exceeds it.
	QueueDepth int
	// Block makes writers that meet a full queue wait for the in-flight
	// group commit instead of receiving ErrOverloaded.
	Block bool
	// IntentLog, when non-nil, receives the checksummed write-ahead
	// intent records; the log is flushed once per group commit, and
	// writers are acknowledged only after their group's flush. Replay
	// with sched.ReplayIntents after a crash.
	IntentLog io.Writer
}

// NewScheduled wraps d — a *Dict, *Basic, *Dynamic, or *OneProbe — in a
// group-commit scheduler.
func NewScheduled(d Dictionary, opts SchedOptions) (*Scheduled, error) {
	fd, ok := d.(interface{ asFront() *front })
	if !ok {
		return nil, errors.New("pdmdict: NewScheduled: unsupported dictionary type")
	}
	f := fd.asFront()
	cfg := sched.Config{
		MaxBatch:   opts.MaxBatch,
		StepBudget: opts.StepBudget,
		Steps:      f.steps,
		QueueDepth: opts.QueueDepth,
		Block:      opts.Block,
	}
	if opts.IntentLog != nil {
		cfg.Log = sched.NewIntentLog(opts.IntentLog)
	}
	if opts.Window > 0 {
		window := opts.Window
		cfg.AfterFunc = func(fire func()) (stop func()) {
			t := time.AfterFunc(window, fire)
			return func() { t.Stop() }
		}
	}
	return &Scheduled{d: d, f: f, s: sched.New(f.core, cfg)}, nil
}

// MintOp mints a scheduler-scoped operation token for client over keys
// keys with the given root tag. Scheduler tokens encode (client,
// per-client sequence), so equal per-client workloads mint equal IDs
// regardless of cross-client races — the property deterministic-mode
// trace identity rests on.
func (s *Scheduled) MintOp(client, keys int, tag string) OpCtx {
	return OpCtx{Op: s.s.MintOp(client, keys), Tag: tag}
}

// Lookup joins the current admission window and blocks until its merged
// shared round resolves the key.
func (s *Scheduled) Lookup(key Word) ([]Word, bool) {
	return s.LookupClient(0, key)
}

// LookupClient is Lookup attributed to the given client — distinct
// clients mint independent deterministic token sequences.
func (s *Scheduled) LookupClient(client int, key Word) ([]Word, bool) {
	c := s.MintOp(client, 1, pdm.TagLookup.String())
	sat, ok := s.LookupCtx(c, key)
	pdm.ReleaseOp(c.Op)
	return sat, ok
}

// LookupCtx is Lookup under an operation token. After Close the lookup
// goes straight to the wrapped dictionary, which stays usable.
func (s *Scheduled) LookupCtx(c OpCtx, key Word) ([]Word, bool) {
	sat, ok, err := s.s.LookupOp(c.Op, key)
	if err != nil {
		return s.f.LookupCtx(c, key)
	}
	return sat, ok
}

// Contains reports whether key is present, via a scheduled lookup.
func (s *Scheduled) Contains(key Word) bool {
	_, ok := s.Lookup(key)
	return ok
}

// LookupBatch answers a hand-assembled batch directly on the wrapped
// dictionary — a caller who already holds b keys has already done the
// coalescing, so the batch bypasses the admission window (it would only
// add latency) and rides the dictionary's own merged-round path under
// one batch token.
func (s *Scheduled) LookupBatch(keys []Word) ([][]Word, []bool) {
	c := s.MintOp(0, len(keys), pdm.TagLookup.String())
	sats, oks := s.LookupBatchCtx(c, keys)
	pdm.ReleaseOp(c.Op)
	return sats, oks
}

// LookupBatchCtx is LookupBatch under an operation token.
func (s *Scheduled) LookupBatchCtx(c OpCtx, keys []Word) ([][]Word, []bool) {
	return s.f.LookupBatchCtx(c, keys)
}

// Insert queues the mutation and blocks until its group commits: the
// write is applied and the intent log (if any) flushed. Returns
// ErrOverloaded under backpressure when SchedOptions.Block is false.
func (s *Scheduled) Insert(key Word, sat []Word) error {
	c := s.MintOp(0, 1, pdm.TagInsert.String())
	err := s.InsertCtx(c, key, sat)
	pdm.ReleaseOp(c.Op)
	return err
}

// InsertCtx is Insert under an operation token.
func (s *Scheduled) InsertCtx(c OpCtx, key Word, sat []Word) error {
	return s.s.InsertOp(c.Op, key, sat)
}

// Delete queues the removal and blocks until its group commits,
// reporting whether the key was present. A false return under
// backpressure means the delete was NOT applied — use DeleteCtx, which
// surfaces the backpressure error, when that distinction matters.
func (s *Scheduled) Delete(key Word) bool {
	c := s.MintOp(0, 1, pdm.TagDelete.String())
	present, _ := s.DeleteCtx(c, key)
	pdm.ReleaseOp(c.Op)
	return present
}

// DeleteCtx is Delete under an operation token, surfacing the
// backpressure error.
func (s *Scheduled) DeleteCtx(c OpCtx, key Word) (bool, error) {
	return s.s.DeleteOp(c.Op, key)
}

// Len returns the wrapped dictionary's committed size. Writes still
// queued in an open window are not counted; Flush first for an exact
// answer.
func (s *Scheduled) Len() int { return s.d.Len() }

// IOStats returns the wrapped dictionary's accumulated disk traffic.
func (s *Scheduled) IOStats() IOStats { return s.d.IOStats() }

// SetHook attaches an observability hook to the wrapped dictionary's
// machine.
func (s *Scheduled) SetHook(h IOHook) { s.d.SetHook(h) }

// Flush closes and dispatches the current admission window and returns
// once nothing is pending — the deterministic-mode escape hatch for
// partial windows and the shutdown drain.
func (s *Scheduled) Flush() { s.s.Flush() }

// Close drains every pending operation and shuts the scheduler down;
// later writes fail with ErrSchedClosed, and later lookups answer
// straight from the wrapped dictionary, which remains usable directly.
func (s *Scheduled) Close() error { return s.s.Close() }

// Snapshot returns the scheduler's counters and histograms — the same
// view obs serves on /debug/sched.
func (s *Scheduled) Snapshot() SchedSnapshot { return s.s.Snapshot() }

// Unwrap returns the wrapped dictionary.
func (s *Scheduled) Unwrap() Dictionary { return s.d }
