package pdm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"unsafe"

	"pdmdict/internal/pdm/health"
)

// Fault layer. The simulated machine can be wired to a FaultInjector
// that decides, per block access, whether the access succeeds, fails, or
// is corrupted. Faults surface only through the error-returning batch
// methods (the TryBatchRead and TryBatchWriteOp forms); the infallible
// BatchRead / BatchWrite forms run the same batch bodies (batchRead,
// batchWrite) with the fault layer off — no injection, no checksum
// verification, no fault or health bookkeeping — so structures that
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

// AsBatchError extracts a *BatchError from err, if it is one. The bare
// *BatchError a Try batch returns is recognized by a type assertion
// before errors.As is tried, whose target would cost an allocation.
func AsBatchError(err error) (*BatchError, bool) {
	if be, ok := err.(*BatchError); ok {
		return be, true
	}
	var be *BatchError
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// hostLittleEndian reports whether the host lays a word out in memory as
// its little-endian encoding, the byte order checksums are defined over.
// It picks crcBlock's path once.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// crcBlock returns the CRC-32/IEEE of a block's words in little-endian
// byte order, the value the shards store and snapshots recompute, with
// crc32.ChecksumIEEE, which uses the CPU's carry-less multiply where
// there is one. A little-endian host's words already are that encoding,
// so it checksums their own memory; any other host encodes them into
// buf first, which must then hold 8·len(blk) bytes — a shard passes the
// buffer its mutex guards.
func crcBlock(buf []byte, blk []Word) uint32 {
	if hostLittleEndian {
		return crcInPlace(blk)
	}
	return crcEncoded(buf, blk)
}

// crcInPlace checksums the words' memory as bytes: the little-endian
// encoding on a little-endian host, and only there.
func crcInPlace(blk []Word) uint32 {
	if len(blk) == 0 {
		return crc32.ChecksumIEEE(nil)
	}
	return crc32.ChecksumIEEE(unsafe.Slice((*byte)(unsafe.Pointer(&blk[0])), 8*len(blk)))
}

// crcEncoded checksums the words' little-endian encoding, written word
// by word into buf, on any host.
func crcEncoded(buf []byte, blk []Word) uint32 {
	buf = buf[:8*len(blk)]
	for i, w := range blk {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return crc32.ChecksumIEEE(buf)
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
	return m.degraded.Load() || !m.tracker.AllHealthy()
}

// ClearDegraded resets the degraded flag AND returns every disk to the
// Healthy state, clearing transient windows. Repair machinery calls it
// after a clean full scrub — the one observation that vouches for all
// disks at once. To clear a single repaired disk, use MarkHealthy.
func (m *Machine) ClearDegraded() {
	m.degraded.Store(false)
	m.emitTransitions(m.tracker.Reset(m.pios.Load()))
}

// FaultCount returns the number of fault events observed (injected
// faults plus checksum mismatches) over the machine's lifetime.
func (m *Machine) FaultCount() int64 {
	return m.faults.Load()
}

// faultTags are the fault event tags by kind, FaultTagPrefix plus the
// kind's name, and checksumTag the tag of a detected checksum mismatch:
// constants, so building a fault event concatenates nothing.
var faultTags = [...]string{
	FaultFailStop:  FaultTagPrefix + "failstop",
	FaultTransient: FaultTagPrefix + "transient",
	FaultCorrupt:   FaultTagPrefix + "corrupt",
	FaultStall:     FaultTagPrefix + "stall",
}

const checksumTag = FaultTagPrefix + "checksum"

// drawFaults consults the injector once per address, in batch order,
// under faultMu so each batch's decision sequence stays contiguous
// under concurrency, and keeps the draws in sc.faults. The draws are
// empty when no injector is installed.
func (m *Machine) drawFaults(sc *batchScratch, kind EventKind, addrs []Addr) []Fault {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	fs := sc.faults[:0]
	if m.injector != nil {
		for _, a := range addrs {
			fs = append(fs, m.injector.Access(kind, a))
		}
	}
	sc.faults = fs
	return fs
}

// faultAt returns access i's draw; without draws (an oblivious batch, or
// no injector) every access goes through untouched.
func faultAt(fs []Fault, i int) Fault {
	if len(fs) == 0 {
		return Fault{}
	}
	return fs[i]
}

// denied returns the error of an access that fault f turns away before
// it reaches the disk, or nil.
func denied(f Fault) error {
	switch f.Kind {
	case FaultFailStop:
		return ErrDiskFailed
	case FaultTransient:
		return ErrTransient
	}
	return nil
}

// outcomes returns the scratch's n per-access outcome slots, all nil: a
// fault-aware access writes its slot only when it fails.
func (sc *batchScratch) outcomes(n int) []error {
	if cap(sc.res) < n {
		sc.res = make([]error, n)
	}
	clear(sc.res[:n])
	return sc.res[:n]
}

// finishTry turns per-access outcomes into the batch's block errors
// (appended to berrs, empty on entry), stall surcharge, fault count, and degraded and
// health bookkeeping — sequentially, in batch order, so none of it
// depends on how the accesses were scheduled across shards. With a hook
// installed it also builds the batch's fault events into sc.fevents,
// followed by the EventHealth annotations for transitions the outcomes
// caused (annotations, not faults: they are not counted). Without one,
// fault events are only counted.
func (m *Machine) finishTry(sc *batchScratch, hooked bool, kind EventKind, addrs []Addr, fs []Fault, res []error, berrs []BlockError) (_ []BlockError, nfaults, extra int) {
	sc.fevents = sc.fevents[:0]
	// A fault event's Addrs is a one-element slice of the batch's own
	// list, valid, like any Event.Addrs, only during the hook call. Only
	// stalls carry cost: their extra steps are charged to the fault.stall
	// tag rather than the issuing batch's tag, so per-tag sums still
	// partition the machine's total.
	fault := func(i int, tag string, stall int) {
		nfaults++
		if hooked {
			sc.fevents = append(sc.fevents, Event{Kind: kind, Tag: tag, Addrs: addrs[i : i+1 : i+1], Steps: stall, Depth: stall})
		}
	}
	degrading := false
	for i, a := range addrs {
		f := faultAt(fs, i)
		switch f.Kind {
		case FaultFailStop, FaultTransient, FaultCorrupt:
			fault(i, faultTags[f.Kind], 0)
			degrading = true
		case FaultStall:
			extra += f.Stall
			fault(i, faultTags[f.Kind], f.Stall)
		}
		if res[i] == nil {
			continue
		}
		berrs = append(berrs, BlockError{Index: i, Addr: a, Err: res[i]})
		if res[i] == ErrChecksum {
			fault(i, checksumTag, 0)
			degrading = true
		}
	}
	m.faults.Add(int64(nfaults))
	if degrading {
		m.degraded.Store(true)
	}
	// Feed the per-disk health state machines. The fast path — no
	// injector, no errors, every disk Healthy — skips the pass entirely;
	// otherwise every access is classified and the list folded in batch
	// order, so health transitions land at deterministic points of the
	// trace. Both lists live in the scratch: observing allocates nothing.
	if len(fs) > 0 || len(berrs) > 0 || !m.tracker.AllHealthy() {
		acc := sc.accesses[:0]
		for i, a := range addrs {
			o := health.OK
			if k := faultAt(fs, i).Kind; int(k) < len(healthOutcomes) {
				o = healthOutcomes[k]
			}
			if res[i] == ErrChecksum {
				o = health.Damaged
			}
			acc = append(acc, health.Access{Disk: a.Disk, Outcome: o})
		}
		sc.accesses = acc
		sc.trans = m.tracker.Observe(sc.trans[:0], acc, m.pios.Load())
		if hooked {
			for _, tr := range sc.trans {
				sc.fevents = append(sc.fevents, healthEvent(tr))
			}
		}
	}
	return berrs, nfaults, extra
}

// healthOutcomes classifies a Try access by its fault draw for the
// health tracker; a checksum mismatch overrides the draw with Damaged,
// and a kind past the table counts as OK, as readLocked and writeLocked
// let it through.
var healthOutcomes = [...]health.Outcome{
	FaultNone:      health.OK,
	FaultFailStop:  health.FailStop,
	FaultTransient: health.Transient,
	FaultCorrupt:   health.Damaged,
	FaultStall:     health.Stall,
}

// TryBatchRead is BatchRead with fault injection and checksum
// verification. It returns the blocks in request order; entries whose
// access failed (fail-stopped disk, transient error, checksum mismatch)
// are nil, and the error is a *BatchError listing them. The batch is
// accounted like BatchRead — failed accesses still cost their I/O (the
// arm moved, the timeout elapsed) and count as block reads; stalls add
// extra steps on top of the batch cost. The blocks and the error are
// the caller's alone.
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

// TryBatchReadInto is TryBatchRead and TryBatchReadOp reading into the
// caller's buffer — batchRead in its fault-aware mode; the view of a
// failed access is nil. op and shared attribute the batch as for
// BatchReadInto: with an attribution list the machine is charged once,
// and every listed op is charged the batch's full steps (stall surcharge
// included), blocks, and fault events.
//
// The views and the *BatchError both alias rb and are valid until rb's
// next read: a caller that keeps the error longer must copy its Blocks.
// On a warm buffer the read allocates nothing, faults or not.
func (m *Machine) TryBatchReadInto(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr) ([][]Word, error) {
	return m.batchRead(rb, op, shared, addrs, true)
}

// TryBatchWriteOp is BatchWriteOp with fault injection — batchWrite in
// its fault-aware mode: writes hitting a fail-stopped disk or a
// transient fault are NOT applied and are reported in the returned
// *BatchError; a corruption fault flips a stored bit after the write
// lands (leaving the checksum stale); stalls charge extra steps. Applied
// writes update their block's checksum. op (nil for none) is charged
// with the same accounting rule as TryBatchReadOp.
func (m *Machine) TryBatchWriteOp(op *Op, writes []BlockWrite) error {
	return m.batchWrite(op, writes, true)
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
			if s.sumLocked(blk) != s.sums[b] {
				bad = append(bad, Addr{Disk: d, Block: b})
			}
		}
		s.mu.Unlock()
	}
	return bad
}
