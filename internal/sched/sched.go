// Package sched is the group-commit request scheduler: it sits between
// the public dictionaries and the machine, coalescing concurrent
// single-key lookups that arrive within an admission window into ONE
// merged, de-duplicated probe round (the dictionary's batch lookup,
// LookupBatchInto, with an attribution list of one token per key), and
// queuing mutations behind a checksummed intent log that is
// group-committed — applied and flushed once per window. One
// parallel-I/O round is thereby amortized across many independent
// callers, while operation tokens keep per-op charges exact: every
// participant of a merged round is charged the round's
// full cost once, and the machine executes (and is charged) the round
// once.
//
// Two clocks close the admission window:
//
//   - Deterministic mode (Config.AfterFunc nil): the window closes when
//     MaxBatch operations are pending, when the injected machine step
//     counter has advanced StepBudget since the window opened, when the
//     write queue reaches QueueDepth, or on an explicit Flush. No wall
//     clock is read anywhere — same seed, same lockstep workload, same
//     trace bytes. Callers must cooperate: a window that never fills
//     blocks its participants until another trigger fires (run exactly
//     MaxBatch lockstep clients, or Flush).
//   - Serving mode (Config.AfterFunc set): additionally, a bounded
//     wall-time window injected from OUTSIDE the measured packages
//     (like pdm.SetWallClock) closes a partial batch. The timer only
//     decides WHEN a round runs, never what it contains or costs, so
//     wall time stays excluded from traces by construction.
//
// The write path is asynchronous with bounded queue depth: admitted
// mutations wait for the next group commit (their callers block until
// the group's intent records are applied and flushed), and when the
// queue is full while a flush is in progress, further writers either
// block or get ErrOverloaded, per Config.Block. The queue can never
// exceed QueueDepth.
//
// The scheduler runs no goroutines of its own: whichever caller closes
// a window dispatches it, and callers that merely join a window park on
// their request's done channel until the dispatcher sends on it.
// Requests, queues and the round's buffers are all recycled, so a
// scheduled operation costs the host what the direct call does. The
// scheduler's mutex is never held across a dictionary call.
package sched

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
	"pdmdict/internal/reuse"
)

// Backend is the dictionary surface the scheduler drives. core.Dict,
// core.BasicDict, and the two chained-level structures,
// core.DynamicDict and core.OneProbeDict, satisfy it; the latter two
// through the one cascade they embed.
type Backend interface {
	// LookupBatchInto resolves keys in merged, de-duplicated read
	// rounds, answering keys[i] into sats[i] and oks[i]. The scheduler
	// always passes a nil op and the attribution list shared, where
	// shared[i] owns keys[i]: every token is charged each round it
	// rides, in full, exactly once.
	LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool)
	// InsertOp stores (x, sat), attributed to op.
	InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error
	// DeleteOp removes x, attributed to op, reporting presence.
	DeleteOp(op *pdm.Op, x pdm.Word) bool
}

// ErrOverloaded is returned by the write path when the intent queue is
// at QueueDepth, a flush is already in progress, and Config.Block is
// false — the backpressure signal.
var ErrOverloaded = errors.New("sched: write queue full")

// ErrClosed is returned for operations submitted after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// schedOpBase is the high bit of every scheduler-minted token ID,
// keeping them disjoint from the machines' counter-minted IDs. The
// client rides bits 32..62 and a per-client sequence number the low 32,
// so token IDs — and with them trace bytes — are a pure function of
// each client's own submission order, immune to cross-client races.
const schedOpBase = uint64(1) << 63

// Config parameterizes a Scheduler.
type Config struct {
	// MaxBatch closes the admission window when this many operations
	// (reads + queued writes) are pending. 0 defaults to 16. In
	// deterministic lockstep workloads this is the client count.
	MaxBatch int
	// StepBudget, when positive, also closes the window once Steps()
	// has advanced this much since the window opened — the
	// deterministic "don't wait forever while other traffic makes
	// progress" clock. Requires Steps.
	StepBudget int64
	// Steps is the injected deterministic clock: the machine's parallel
	// I/O step counter (pdm.Machine.StepCount, core.Dict.StepCount).
	Steps func() int64
	// AfterFunc, when set, enables serving mode: it must start a
	// single-shot timer for the caller's chosen wall window and return
	// a stop function. It is injected from outside the measured
	// packages (cmd/, pdmdict), mirroring pdm.SetWallClock, so this
	// package never touches a wall clock.
	AfterFunc func(fire func()) (stop func())
	// QueueDepth bounds the pending-write queue. 0 defaults to 64.
	QueueDepth int
	// Block makes a writer that meets a full queue wait for the
	// in-flight flush instead of receiving ErrOverloaded.
	Block bool
	// Log, when non-nil, is the intent log group-committed on every
	// flush. Writers are acknowledged only after their group's commit.
	Log *IntentLog
}

// readReq is one admitted lookup waiting for its window's shared round.
// Requests are recycled: done (capacity 1) is made once, the dispatcher
// signals it with a send and never touches the request again, and the
// waiter copies the result out and returns the request to its pool.
type readReq struct {
	op   *pdm.Op
	key  pdm.Word
	sat  []pdm.Word // written by the dispatcher before it signals done
	ok   bool       // written by the dispatcher before it signals done
	done chan struct{}
}

// writeReq is one admitted mutation waiting for its group commit,
// recycled as readReq is. sat is the request's own copy of the caller's
// satellite.
type writeReq struct {
	op      *pdm.Op
	del     bool
	key     pdm.Word
	sat     []pdm.Word
	err     error // written by the dispatcher before it signals done
	present bool  // written by the dispatcher before it signals done
	done    chan struct{}
}

// window is one closed admission window, taken from the queues and
// executed outside the lock.
type window struct {
	reads  []*readReq
	writes []*writeReq
	steps  int64 // window length on the injected step clock
}

// Scheduler coalesces concurrent operations into shared rounds and
// group-committed write flushes. Create with New; all methods are safe
// for concurrent use.
type Scheduler struct {
	cfg Config
	be  Backend

	mu      sync.Mutex
	notFull *sync.Cond // signaled whenever a dispatch completes; shares mu

	reads       []*readReq     // guarded by mu
	writes      []*writeReq    // guarded by mu
	spareReads  []*readReq     // guarded by mu; the last window's queue, emptied for the next
	spareWrites []*writeReq    // guarded by mu; likewise
	seqs        map[int]uint64 // guarded by mu; per-client token sequences
	windowGen   uint64         // guarded by mu; increments per window open
	windowStep  int64          // guarded by mu; Steps() at window open
	force       bool           // guarded by mu; timer fired or Flush pending
	dispatching bool           // guarded by mu; a window is executing
	stopTimer   func()         // guarded by mu; serving-mode window timer
	closed      bool           // guarded by mu

	lookups     int64 // guarded by mu
	rounds      int64 // guarded by mu
	roundsSaved int64 // guarded by mu
	writesTotal int64 // guarded by mu
	flushes     int64 // guarded by mu
	overloads   int64 // guarded by mu
	queuePeak   int64 // guarded by mu
	occSum      int64 // guarded by mu
	winStepSum  int64 // guarded by mu

	occ      obs.Hist // per-round read occupancy (atomic counters)
	winSteps obs.Hist // admission-window length in machine steps

	readReqs  reuse.Pool[readReq]
	writeReqs reuse.Pool[writeReq]

	// The read round's buffers belong to the dispatcher: the
	// dispatching flag lets only one execute run at a time, and mu
	// orders each dispatcher after the one before it.
	ops  []*pdm.Op
	keys []pdm.Word
	sats [][]pdm.Word
	oks  []bool
}

// New returns a scheduler over be.
func New(be Backend, cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg, be: be, seqs: make(map[int]uint64)}
	s.notFull = sync.NewCond(&s.mu)
	s.readReqs.New = func() *readReq { return &readReq{done: make(chan struct{}, 1)} }
	s.writeReqs.New = func() *writeReq { return &writeReq{done: make(chan struct{}, 1)} }
	return s
}

func (s *Scheduler) maxBatch() int {
	if s.cfg.MaxBatch <= 0 {
		return 16
	}
	return s.cfg.MaxBatch
}

func (s *Scheduler) queueDepth() int {
	if s.cfg.QueueDepth <= 0 {
		return 64
	}
	return s.cfg.QueueDepth
}

// MintOp mints a deterministic operation token for one request by
// client over keys keys: IDs encode (client, that client's submission
// sequence), so equal per-client workloads mint equal IDs regardless of
// cross-client interleaving — the property deterministic-mode trace
// identity rests on. Tokens are machine-independent (pdm.MakeOp) and
// carry the high schedOpBase bit, disjoint from counter-minted IDs.
func (s *Scheduler) MintOp(client, keys int) *pdm.Op {
	s.mu.Lock()
	seq := s.seqs[client] + 1
	s.seqs[client] = seq
	s.mu.Unlock()
	return pdm.MakeOp(schedOpBase|uint64(uint32(client))<<32|(seq&0xFFFFFFFF), client, keys)
}

// LookupOp submits one lookup attributed to op (nil mints a client-0
// token) and blocks until its admission window's shared round resolves
// it. The error is non-nil only when the scheduler is closed.
func (s *Scheduler) LookupOp(op *pdm.Op, key pdm.Word) ([]pdm.Word, bool, error) {
	if op == nil {
		op = s.MintOp(0, 1)
	}
	r := s.readReqs.Get()
	r.op, r.key = op, key
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.readReqs.Put(r)
		return nil, false, ErrClosed
	}
	s.openWindowLocked()
	s.reads = append(s.reads, r)
	s.lookups++
	w, run := s.takeIfClosableLocked()
	s.mu.Unlock()
	if run {
		s.runWindows(w)
	}
	<-r.done
	sat, ok := r.sat, r.ok
	*r = readReq{done: r.done}
	s.readReqs.Put(r)
	return sat, ok, nil
}

// InsertOp submits one insert attributed to op (nil mints a client-0
// token) and blocks until its group commits: the backend applied it and
// the intent log flushed. Returns ErrOverloaded under backpressure with
// Config.Block false, ErrClosed after Close.
func (s *Scheduler) InsertOp(op *pdm.Op, key pdm.Word, sat []pdm.Word) error {
	if op == nil {
		op = s.MintOp(0, 1)
	}
	w := s.writeReqs.Get()
	w.op, w.key, w.sat = op, key, append(w.sat[:0], sat...)
	_, err := s.submitWrite(w)
	return err
}

// DeleteOp submits one delete attributed to op (nil mints a client-0
// token) and blocks until its group commits, reporting whether the key
// was present. Errors as InsertOp.
func (s *Scheduler) DeleteOp(op *pdm.Op, key pdm.Word) (bool, error) {
	if op == nil {
		op = s.MintOp(0, 1)
	}
	w := s.writeReqs.Get()
	w.op, w.del, w.key = op, true, key
	return s.submitWrite(w)
}

// submitWrite admits w and waits for its group commit, then copies the
// result out and recycles w, on the error paths too.
func (s *Scheduler) submitWrite(w *writeReq) (present bool, err error) {
	if err = s.admitWrite(w); err == nil {
		<-w.done
		present, err = w.present, w.err
	}
	*w = writeReq{sat: w.sat[:0], done: w.done}
	s.writeReqs.Put(w)
	return present, err
}

// admitWrite enqueues w, enforcing the queue bound: the queue never
// holds more than QueueDepth entries. A writer that meets a full queue
// drains it itself if no dispatch is running, waits if one is (Block),
// or gets ErrOverloaded.
func (s *Scheduler) admitWrite(w *writeReq) error {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if len(s.writes) < s.queueDepth() {
			break
		}
		if !s.dispatching {
			// Queue full and nobody flushing: this writer flushes.
			if win, run := s.takeIfClosableLocked(); run {
				s.mu.Unlock()
				s.runWindows(win)
				s.mu.Lock()
				continue
			}
		}
		if !s.cfg.Block {
			s.overloads++
			s.mu.Unlock()
			return ErrOverloaded
		}
		s.notFull.Wait()
	}
	s.openWindowLocked()
	s.writes = append(s.writes, w)
	s.writesTotal++
	if d := int64(len(s.writes)); d > s.queuePeak {
		s.queuePeak = d
	}
	win, run := s.takeIfClosableLocked()
	s.mu.Unlock()
	if run {
		s.runWindows(win)
	}
	return nil
}

// openWindowLocked starts a new admission window if none is open (the
// queues are empty): records the step clock, bumps the generation, and
// arms the serving-mode timer.
func (s *Scheduler) openWindowLocked() {
	if len(s.reads)+len(s.writes) > 0 {
		return
	}
	s.windowGen++
	s.force = false
	if s.cfg.Steps != nil {
		s.windowStep = s.cfg.Steps()
	}
	if s.cfg.AfterFunc != nil {
		gen := s.windowGen
		// The fire callback hands off to a fresh goroutine so the
		// timer's thread never blocks on a dispatch (a timer-fired
		// close runs a whole I/O round) and acquires no lock while the
		// opener still holds mu.
		s.stopTimer = s.cfg.AfterFunc(func() { go s.timerFire(gen) })
	}
}

// timerFire closes the window it was armed for, if still current.
func (s *Scheduler) timerFire(gen uint64) {
	var w window
	run := false
	s.mu.Lock()
	if gen == s.windowGen {
		s.force = true
		w, run = s.takeIfClosableLocked()
	}
	s.mu.Unlock()
	if run {
		s.runWindows(w)
	}
}

// shouldCloseLocked reports whether the current window must close.
func (s *Scheduler) shouldCloseLocked() bool {
	n := len(s.reads) + len(s.writes)
	if n == 0 {
		return false
	}
	if s.force || s.closed {
		return true
	}
	if n >= s.maxBatch() {
		return true
	}
	if len(s.writes) >= s.queueDepth() {
		return true
	}
	if s.cfg.StepBudget > 0 && s.cfg.Steps != nil &&
		s.cfg.Steps()-s.windowStep >= s.cfg.StepBudget {
		return true
	}
	return false
}

// takeIfClosableLocked closes and removes the current window if it must
// close and no other dispatch is running. The caller that receives
// run=true MUST call runWindows with the window after releasing mu.
func (s *Scheduler) takeIfClosableLocked() (window, bool) {
	if s.dispatching || !s.shouldCloseLocked() {
		return window{}, false
	}
	w := window{reads: s.reads, writes: s.writes}
	if s.cfg.Steps != nil {
		w.steps = s.cfg.Steps() - s.windowStep
	}
	s.reads, s.writes = s.spareReads, s.spareWrites
	s.spareReads, s.spareWrites = nil, nil
	s.force = false
	if s.stopTimer != nil {
		s.stopTimer()
		s.stopTimer = nil
	}
	s.dispatching = true
	return w, true
}

// runWindows executes w, then keeps dispatching any windows that became
// closable while it ran, so progress never depends on a new arrival.
// Must be called WITHOUT mu held.
func (s *Scheduler) runWindows(w window) {
	for {
		s.execute(w)
		clear(w.reads)
		clear(w.writes)
		s.mu.Lock()
		s.spareReads, s.spareWrites = w.reads[:0], w.writes[:0]
		s.dispatching = false
		s.notFull.Broadcast()
		next, run := s.takeIfClosableLocked()
		s.mu.Unlock()
		if !run {
			return
		}
		w = next
	}
}

// execute runs one closed window: the write group first (logged, then
// applied in token order, then committed — the group commit), then the
// merged read round. Runs outside the scheduler lock; the dispatching
// flag guarantees at most one execute at a time, so log order equals
// apply order.
func (s *Scheduler) execute(w window) {
	if len(w.writes) > 0 {
		// Canonical order: token IDs, which for scheduler-minted tokens
		// encode (client, per-client sequence) — deterministic under
		// cross-client races.
		slices.SortFunc(w.writes, func(a, b *writeReq) int { return cmp.Compare(a.op.ID(), b.op.ID()) })
		var logErr error
		if s.cfg.Log != nil {
			for _, wr := range w.writes {
				in := Intent{Del: wr.del, Key: wr.key, Sat: wr.sat}
				if err := s.cfg.Log.Append(in); err != nil {
					logErr = err
					break
				}
			}
		}
		for _, wr := range w.writes {
			if logErr != nil {
				wr.err = logErr
				continue
			}
			if wr.del {
				wr.present = s.be.DeleteOp(wr.op, wr.key)
			} else {
				wr.err = s.be.InsertOp(wr.op, wr.key, wr.sat)
			}
		}
		if s.cfg.Log != nil && logErr == nil {
			if err := s.cfg.Log.Commit(); err != nil {
				for _, wr := range w.writes {
					if wr.err == nil {
						wr.err = err
					}
				}
			}
		}
		for _, wr := range w.writes {
			wr.done <- struct{}{}
		}
	}
	if n := len(w.reads); n > 0 {
		slices.SortFunc(w.reads, func(a, b *readReq) int { return cmp.Compare(a.op.ID(), b.op.ID()) })
		s.ops, s.keys = s.ops[:0], s.keys[:0]
		for _, r := range w.reads {
			s.ops, s.keys = append(s.ops, r.op), append(s.keys, r.key)
		}
		s.sats, s.oks = slices.Grow(s.sats[:0], n)[:n], slices.Grow(s.oks[:0], n)[:n]
		s.be.LookupBatchInto(nil, s.ops, s.keys, s.sats, s.oks)
		for i, r := range w.reads {
			r.sat, r.ok = s.sats[i], s.oks[i]
			r.done <- struct{}{}
		}
		// No token or satellite outlives its round.
		clear(s.ops)
		clear(s.sats)
	}
	s.mu.Lock()
	if n := int64(len(w.reads)); n > 0 {
		s.rounds++
		s.roundsSaved += n - 1
		s.occSum += n
		s.occ.Observe(n)
	}
	if len(w.writes) > 0 {
		s.flushes++
	}
	s.winStepSum += w.steps
	s.winSteps.Observe(w.steps)
	s.mu.Unlock()
}

// Flush closes and dispatches the current window (and any windows that
// form while draining) and returns once nothing is pending — the
// deterministic-mode escape hatch for partial windows and the shutdown
// drain.
func (s *Scheduler) Flush() {
	for {
		s.mu.Lock()
		if len(s.reads)+len(s.writes) == 0 && !s.dispatching {
			s.mu.Unlock()
			return
		}
		s.force = true
		w, run := s.takeIfClosableLocked()
		if !run {
			// Another goroutine is mid-dispatch; wait for it to finish,
			// then re-check.
			s.notFull.Wait()
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		s.runWindows(w)
	}
}

// Close drains every pending operation and marks the scheduler closed;
// subsequent submissions return ErrClosed. Safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.notFull.Broadcast()
	s.mu.Unlock()
	s.Flush()
	return nil
}

// Snapshot returns the scheduler's counters and histograms for the
// /metrics and /debug/sched surfaces. Byte-deterministic for
// deterministic workloads.
func (s *Scheduler) Snapshot() obs.SchedSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return obs.SchedSnapshot{
		Lookups:       s.lookups,
		Rounds:        s.rounds,
		RoundsSaved:   s.roundsSaved,
		Writes:        s.writesTotal,
		Flushes:       s.flushes,
		Overloads:     s.overloads,
		QueueDepth:    int64(len(s.writes)),
		QueuePeak:     s.queuePeak,
		PendingReads:  int64(len(s.reads)),
		OccupancySum:  s.occSum,
		Occupancy:     s.occ.Summarize("sched_batch_occupancy"),
		WindowStepSum: s.winStepSum,
		WindowSteps:   s.winSteps.Summarize("sched_window_steps"),
	}
}
