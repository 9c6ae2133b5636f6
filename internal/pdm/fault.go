package pdm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// Fault layer. The simulated machine can be wired to a FaultInjector
// that decides, per block access, whether the access succeeds, fails, or
// is corrupted. Faults surface only through the error-returning batch
// methods (TryBatchRead / TryBatchWrite); the classic infallible
// BatchRead / BatchWrite bypass injection entirely, so structures that
// have not been taught degraded-mode operation keep seeing a perfect
// machine. Every block additionally carries a CRC32 checksum, updated on
// every write and verified on every Try read, so latent corruption (bit
// flips injected between a write and a later read) is detected rather
// than silently returned.
//
// Each injected fault is also reported through the machine's
// observability hook as an Event tagged "fault.<kind>" ("fault.failstop",
// "fault.transient", "fault.corrupt", "fault.stall", "fault.checksum").
// The batch's own event carries only the base cost; a stall's extra
// steps ride on its fault.stall event, so per-tag step sums still
// partition the machine's total parallel I/Os. With a deterministic
// injector the fault event sequence is reproducible bit for bit.

// Errors a faulted block access can carry.
var (
	// ErrDiskFailed marks an access to a fail-stopped disk.
	ErrDiskFailed = errors.New("pdm: disk failed")
	// ErrTransient marks an access that failed this time but may succeed
	// if retried.
	ErrTransient = errors.New("pdm: transient I/O error")
	// ErrChecksum marks a read whose block content does not match its
	// stored checksum (detected corruption).
	ErrChecksum = errors.New("pdm: block checksum mismatch")
)

// FaultTagPrefix prefixes the tag of every fault event the machine
// synthesizes ("fault." + FaultKind.String()); sinks use it to tell
// fault events apart from the batches they ride on.
const FaultTagPrefix = "fault."

// FaultKind classifies what a FaultInjector does to one block access.
type FaultKind uint8

// Fault kinds.
const (
	// FaultNone lets the access through untouched.
	FaultNone FaultKind = iota
	// FaultFailStop denies the access: the disk is down (fail-stop).
	FaultFailStop
	// FaultTransient fails this access only; a retry may succeed.
	FaultTransient
	// FaultCorrupt flips one bit of the stored block (the checksum is
	// left stale, so the damage is detectable, not silent) before the
	// access proceeds; a read of the damaged block reports ErrChecksum.
	FaultCorrupt
	// FaultStall lets the access through but charges extra parallel-I/O
	// steps (a slow disk, a timeout served late).
	FaultStall
)

// String names the fault kind as used in event tags.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultFailStop:
		return "failstop"
	case FaultTransient:
		return "transient"
	case FaultCorrupt:
		return "corrupt"
	case FaultStall:
		return "stall"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injection decision.
type Fault struct {
	Kind FaultKind
	// Bit is the bit offset to flip for FaultCorrupt (taken modulo the
	// block's bit width).
	Bit uint
	// Stall is the extra parallel-I/O cost for FaultStall.
	Stall int
}

// FaultInjector decides the fate of each block access issued through the
// Try batch methods. Access is called once per address, in batch order,
// under a machine lock that keeps each batch's draws contiguous even
// with concurrent Try batches: implementations must be fast, must not
// call back into the machine, and must be deterministic if reproducible
// traces are wanted (see internal/fault for the standard seedable
// implementation).
type FaultInjector interface {
	Access(kind EventKind, a Addr) Fault
}

// BlockError describes one failed access within a Try batch.
type BlockError struct {
	// Index is the position of the access in the batch.
	Index int
	// Addr is the block address.
	Addr Addr
	// Err is ErrDiskFailed, ErrTransient, or ErrChecksum.
	Err error
}

// Error formats the single-block failure.
func (e BlockError) Error() string { return fmt.Sprintf("%v: %v", e.Addr, e.Err) }

// Unwrap exposes the underlying cause to errors.Is.
func (e BlockError) Unwrap() error { return e.Err }

// BatchError aggregates the failed accesses of one Try batch. Successful
// accesses of the same batch still carry their data; callers recover by
// inspecting Blocks and falling back to surviving replicas.
type BatchError struct {
	Blocks []BlockError
}

// Error summarizes the batch failure.
func (e *BatchError) Error() string {
	if len(e.Blocks) == 1 {
		return "pdm: 1 block access failed: " + e.Blocks[0].Error()
	}
	parts := make([]string, 0, len(e.Blocks))
	for _, b := range e.Blocks {
		parts = append(parts, b.Error())
	}
	return fmt.Sprintf("pdm: %d block accesses failed: %s", len(e.Blocks), strings.Join(parts, "; "))
}

// Unwrap exposes the per-block errors, so errors.Is(err, ErrDiskFailed)
// and friends see through a BatchError even when it is itself wrapped.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Blocks))
	for i := range e.Blocks {
		errs[i] = &e.Blocks[i]
	}
	return errs
}

// AsBatchError extracts a *BatchError from err, if it is one.
func AsBatchError(err error) (*BatchError, bool) {
	var be *BatchError
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// crcBlock checksums a block's words (little-endian) with CRC-32/IEEE.
// It walks the table byte by byte itself: handing crc32.Update a buffer
// per word made that buffer escape, one allocation per verified block.
func crcBlock(blk []Word) uint32 {
	crc := ^uint32(0)
	for _, w := range blk {
		for i := 0; i < 8; i++ {
			crc = crc32.IEEETable[byte(crc)^byte(w)] ^ crc>>8
			w >>= 8
		}
	}
	return ^crc
}

// FlipBit flips one stored bit of a block in place, leaving the stored
// checksum stale — the same silent latent damage a FaultCorrupt injects,
// but manifested immediately instead of on the block's next access. No
// I/O is performed or accounted, and health is not notified: the damage
// stays invisible until a checksum-verified read trips over it. Chaos
// schedules use it so a scripted corruption lands at its scheduled step
// even when the target block is cold. Safe to call from inside a
// FaultInjector (it takes only the target shard's lock).
func (m *Machine) FlipBit(a Addr, bit uint) {
	m.checkAddr(a)
	s := &m.shards[a.Disk]
	s.mu.Lock()
	s.corruptLocked(a.Block, bit)
	s.mu.Unlock()
}

// BlockClean reports whether a block's stored content matches its
// checksum, without performing or accounting any I/O. Like FlipBit it is
// an oracle for chaos schedules (gating a round on the previous round's
// damage having been rewritten), safe to call from inside a
// FaultInjector.
func (m *Machine) BlockClean(a Addr) bool {
	m.checkAddr(a)
	s := &m.shards[a.Disk]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyLocked(a.Block)
}

// SetFaultInjector installs (or, with nil, removes) the machine's fault
// injector. Only the Try batch methods consult it; see the package
// comment at the top of this file.
func (m *Machine) SetFaultInjector(fi FaultInjector) {
	m.faultMu.Lock()
	m.injector = fi
	m.faultMu.Unlock()
}

// Degraded reports whether any data-threatening fault (fail-stop,
// transient error, corruption, or checksum mismatch — stalls don't
// count) has been observed since the last ClearDegraded, or any disk is
// currently not Healthy. It is a derived view over the per-disk health
// state machine (see Health for the per-disk report); dictionaries
// surface it as their degraded-mode flag.
func (m *Machine) Degraded() bool {
	return m.degraded.Load() || m.unhealthy.Load() != 0
}

// ClearDegraded resets the degraded flag AND returns every disk to the
// Healthy state, clearing transient windows. Repair machinery calls it
// after a clean full scrub — the one observation that vouches for all
// disks at once. To clear a single repaired disk, use MarkHealthy.
func (m *Machine) ClearDegraded() {
	m.degraded.Store(false)
	m.healthMu.Lock()
	for d := range m.health {
		m.transitionLocked(d, Healthy)
		m.health[d].reachable = false
		m.health[d].window = m.health[d].window[:0]
	}
	evs := m.drainHealthEventsLocked()
	m.healthMu.Unlock()
	m.emitAnnotations(evs)
}

// FaultCount returns the number of fault events observed (injected
// faults plus checksum mismatches) over the machine's lifetime.
func (m *Machine) FaultCount() int64 {
	return m.faults.Load()
}

// faultEvent builds the hook event for one injected or detected fault.
// Only stalls carry cost: their extra steps are charged to the
// fault.stall tag rather than the issuing batch's tag, so per-tag sums
// still partition the machine's total.
func faultEvent(kind EventKind, a Addr, fk string, stall int) Event {
	return Event{Kind: kind, Tag: FaultTagPrefix + fk, Addrs: []Addr{a}, Steps: stall, Depth: stall}
}

// drawFaults consults the injector once per address, in batch order,
// under faultMu so each batch's decision sequence stays contiguous
// under concurrency. Returns nil when no injector is installed.
func (m *Machine) drawFaults(kind EventKind, addrs []Addr) []Fault {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if m.injector == nil {
		return nil
	}
	fs := make([]Fault, len(addrs))
	for i, a := range addrs {
		fs[i] = m.injector.Access(kind, a)
	}
	return fs
}

// finishTry turns per-access outcomes into the batch's fault events,
// block errors, stall surcharge, and degraded/fault bookkeeping —
// sequentially, in batch order, so the emitted event sequence does not
// depend on how the accesses were scheduled across shards. hevents are
// the EventHealth annotations for transitions the batch's outcomes
// caused; the caller emits them after the fault events but keeps them
// out of fault accounting (they are annotations, not faults).
func (m *Machine) finishTry(kind EventKind, addrs []Addr, fs []Fault, res []error) (berrs []BlockError, fevents, hevents []Event, extra int) {
	degrading := false
	for i, a := range addrs {
		var f Fault
		if fs != nil {
			f = fs[i]
		}
		switch f.Kind {
		case FaultFailStop:
			fevents = append(fevents, faultEvent(kind, a, "failstop", 0))
			degrading = true
		case FaultTransient:
			fevents = append(fevents, faultEvent(kind, a, "transient", 0))
			degrading = true
		case FaultCorrupt:
			fevents = append(fevents, faultEvent(kind, a, "corrupt", 0))
			degrading = true
		case FaultStall:
			extra += f.Stall
			fevents = append(fevents, faultEvent(kind, a, "stall", f.Stall))
		}
		if res[i] == nil {
			continue
		}
		berrs = append(berrs, BlockError{Index: i, Addr: a, Err: res[i]})
		if res[i] == ErrChecksum {
			fevents = append(fevents, faultEvent(kind, a, "checksum", 0))
			degrading = true
		}
	}
	m.faults.Add(int64(len(fevents)))
	if degrading {
		m.degraded.Store(true)
	}
	// Feed the per-disk health state machines. The fast path — no
	// injector, no errors, every disk Healthy — skips the pass entirely;
	// otherwise one observation per access is folded in batch order, so
	// health transitions land at deterministic points of the trace.
	if fs != nil || len(berrs) > 0 || m.unhealthy.Load() != 0 {
		obs := make([]healthObs, len(addrs))
		for i, a := range addrs {
			var f Fault
			if fs != nil {
				f = fs[i]
			}
			obs[i] = healthObs{
				disk:     a.Disk,
				kind:     f.Kind,
				checksum: res[i] == ErrChecksum,
				ok:       res[i] == nil && f.Kind == FaultNone,
			}
		}
		hevents = m.observeHealth(obs, m.pios.Load())
	}
	return berrs, fevents, hevents, extra
}

// TryBatchRead is BatchRead with fault injection and checksum
// verification. It returns the blocks in request order; entries whose
// access failed (fail-stopped disk, transient error, checksum mismatch)
// are nil, and the error is a *BatchError listing them. The batch is
// accounted like BatchRead — failed accesses still cost their I/O (the
// arm moved, the timeout elapsed) and count as block reads; stalls add
// extra steps on top of the batch cost.
func (m *Machine) TryBatchRead(addrs []Addr) ([][]Word, error) {
	return m.TryBatchReadInto(new(ReadBuf), nil, nil, addrs)
}

// TryBatchReadOp is TryBatchRead charged and attributed to op: the op is
// charged the batch's steps including any stall surcharge, its blocks,
// and one fault per emitted fault event, so the op's counters match the
// sum over its events exactly.
func (m *Machine) TryBatchReadOp(op *Op, addrs []Addr) ([][]Word, error) {
	return m.TryBatchReadInto(new(ReadBuf), op, nil, addrs)
}

// TryBatchReadShared is TryBatchRead on behalf of several operations —
// the fault-aware counterpart of BatchReadShared, with the same merged-
// batch accounting rule: the machine is charged once, every listed op is
// charged the batch's full steps (stall surcharge included), blocks, and
// fault events, and the emitted event carries the attribution list.
func (m *Machine) TryBatchReadShared(ops []*Op, addrs []Addr) ([][]Word, error) {
	return m.TryBatchReadInto(new(ReadBuf), nil, ops, addrs)
}

// TryBatchReadInto is the one implementation behind TryBatchRead,
// TryBatchReadOp and TryBatchReadShared, reading into the caller's
// buffer under BatchReadInto's ownership rule; the view of a failed
// access is nil.
func (m *Machine) TryBatchReadInto(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr) ([][]Word, error) {
	out := rb.reset(len(addrs), m.cfg.B)
	if len(addrs) == 0 {
		return out, nil
	}
	arena := rb.arena // captured below in rb's place, so a fresh rb stays on the stack
	for _, a := range addrs {
		m.checkAddr(a)
	}
	fs := m.drawFaults(EventRead, addrs)
	res := make([]error, len(addrs))
	apply := func(i int) {
		a := addrs[i]
		s := &m.shards[a.Disk]
		s.ios.Add(1)
		var f Fault
		if fs != nil {
			f = fs[i]
		}
		switch f.Kind {
		case FaultFailStop:
			res[i] = ErrDiskFailed
			return
		case FaultTransient:
			res[i] = ErrTransient
			return
		}
		s.mu.Lock()
		if f.Kind == FaultCorrupt {
			s.corruptLocked(a.Block, f.Bit)
		}
		if !s.verifyLocked(a.Block) {
			s.mu.Unlock()
			res[i] = ErrChecksum
			return
		}
		s.readLocked(a.Block, arena, out, int32(i))
		s.mu.Unlock()
	}
	steps, depth := m.tryRun(addrs, apply)
	berrs, fevents, hevents, extra := m.finishTry(EventRead, addrs, fs, res)
	m.charge(steps+extra, depth)
	m.blockReads.Add(int64(len(addrs)))
	chargeOps(m, op, shared, EventRead, steps+extra, len(addrs), len(fevents))
	if m.hooked.Load() {
		m.emit(op, shared, Event{Kind: EventRead, Addrs: addrs, Steps: steps, Depth: depth}, append(fevents, hevents...))
	}
	if len(berrs) > 0 {
		return out, &BatchError{Blocks: berrs}
	}
	return out, nil
}

// TryBatchWrite is BatchWrite with fault injection: writes hitting a
// fail-stopped disk or a transient fault are NOT applied and are
// reported in the returned *BatchError; a corruption fault flips a
// stored bit after the write lands (leaving the checksum stale); stalls
// charge extra steps. Applied writes update their block's checksum.
func (m *Machine) TryBatchWrite(writes []BlockWrite) error {
	return m.tryBatchWrite(nil, writes)
}

// TryBatchWriteOp is TryBatchWrite charged and attributed to op, with
// the same accounting rule as TryBatchReadOp.
func (m *Machine) TryBatchWriteOp(op *Op, writes []BlockWrite) error {
	return m.tryBatchWrite(op, writes)
}

func (m *Machine) tryBatchWrite(op *Op, writes []BlockWrite) error {
	if len(writes) == 0 {
		return nil
	}
	addrs := make([]Addr, len(writes))
	for i, w := range writes {
		m.checkAddr(w.Addr)
		if len(w.Data) > m.cfg.B {
			panic(fmt.Sprintf("pdm: write of %d words exceeds block size %d", len(w.Data), m.cfg.B))
		}
		addrs[i] = w.Addr
	}
	fs := m.drawFaults(EventWrite, addrs)
	res := make([]error, len(writes))
	apply := func(i int) {
		w := &writes[i]
		s := &m.shards[w.Addr.Disk]
		s.ios.Add(1)
		var f Fault
		if fs != nil {
			f = fs[i]
		}
		switch f.Kind {
		case FaultFailStop:
			res[i] = ErrDiskFailed
			return
		case FaultTransient:
			res[i] = ErrTransient
			return
		}
		s.mu.Lock()
		blk := s.blockLocked(w.Addr.Block)
		copy(blk, w.Data)
		s.sums[w.Addr.Block] = crcBlock(blk)
		if f.Kind == FaultCorrupt {
			s.corruptLocked(w.Addr.Block, f.Bit)
		}
		s.mu.Unlock()
	}
	steps, depth := m.tryRun(addrs, apply)
	berrs, fevents, hevents, extra := m.finishTry(EventWrite, addrs, fs, res)
	m.charge(steps+extra, depth)
	m.blockWrites.Add(int64(len(writes)))
	chargeOps(m, op, nil, EventWrite, steps+extra, len(writes), len(fevents))
	if m.hooked.Load() {
		m.emit(op, nil, Event{Kind: EventWrite, Addrs: addrs, Steps: steps, Depth: depth}, append(fevents, hevents...))
	}
	if len(berrs) > 0 {
		return &BatchError{Blocks: berrs}
	}
	return nil
}

// tryRun executes apply for every access of a Try batch — inline and in
// batch order for small batches, grouped by shard (batch order within
// each disk, which is all the fault semantics depend on: accesses to
// one block always share a disk) and fanned out for large ones — and
// returns the batch's base cost.
func (m *Machine) tryRun(addrs []Addr, apply func(i int)) (steps, depth int) {
	if len(addrs) <= smallBatchMax {
		steps, depth = m.cost(len(addrs), smallDepth(addrs))
		for i := range addrs {
			apply(i)
		}
		return steps, depth
	}
	sc := m.scratch.Get()
	steps, depth = m.cost(len(addrs), sc.partition(addrs))
	m.runShards(sc, len(addrs), func(d int32) {
		for _, i := range sc.segment(d) {
			apply(int(i))
		}
	})
	m.release(sc)
	return steps, depth
}

// WipeDisk discards every block (and checksum) of one disk, simulating
// the swap-in of a blank replacement drive. No I/O is accounted; the
// rebuild that follows (a dictionary's Repair) is where the cost lives.
func (m *Machine) WipeDisk(disk int) {
	m.checkAddr(Addr{Disk: disk})
	s := &m.shards[disk]
	s.mu.Lock()
	s.blocks = nil
	s.sums = nil
	s.mu.Unlock()
}

// VerifyChecksums scans every materialized block and returns the
// addresses whose content does not match the stored checksum. Like Peek
// it performs no accounted I/O — it is the ground-truth diagnostic;
// dictionaries implement accounted scrubs on top of TryBatchRead.
func (m *Machine) VerifyChecksums() []Addr {
	var bad []Addr
	for d := range m.shards {
		s := &m.shards[d]
		s.mu.Lock()
		for b, blk := range s.blocks {
			if blk == nil {
				continue
			}
			if crcBlock(blk) != s.sums[b] {
				bad = append(bad, Addr{Disk: d, Block: b})
			}
		}
		s.mu.Unlock()
	}
	return bad
}
